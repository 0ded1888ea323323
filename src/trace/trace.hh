/**
 * @file
 * Simulation event tracing (the observability subsystem).
 *
 * A TraceManager is a bounded, per-Machine ring buffer of typed
 * timing events. Components hold a nullable TraceManager pointer and
 * emit through VIA_TRACE_EMIT, which compiles to a single null check
 * when tracing is off (and to nothing at all when the build defines
 * VIA_TRACE_DISABLED). Tracing is strictly observation-only: no hook
 * may change timing, statistics, or architectural state.
 *
 * Events fall in two classes:
 *   - timed events, emitted by the timing model with known ticks
 *     (instruction lifecycle, cache misses, DRAM bursts, FIVU
 *     phases);
 *   - staged events, emitted by the functional layer (SSPM/CAM
 *     semantics run at emit time, before the instruction's timing is
 *     known). They are buffered and stamped with the instruction's
 *     issue/complete window when the core folds it into the schedule
 *     (TraceManager::flushStaged).
 *
 * The ring drops the newest events once full and counts the drops,
 * so a trace of an arbitrarily long run has bounded memory.
 *
 * Exporters (perfetto_export, konata_export) and the post-run
 * summary (trace_summary) consume the finished buffer; see
 * docs/tracing.md for the event schema.
 */

#ifndef VIA_TRACE_TRACE_HH
#define VIA_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/opcodes.hh"
#include "simcore/types.hh"

namespace via
{

/** Hardware component an event is attributed to (one track each). */
enum class TraceComponent : std::uint8_t
{
    Core = 0,
    Lsq,
    CacheL1,
    CacheL2,
    Dram,
    Sspm,
    Cam,
    Fivu,
    Kernel,
    COUNT
};

/** Display name of a component ("core", "l1d", ...). */
const char *traceComponentName(TraceComponent c);

/** Typed trace record kinds. */
enum class TraceEventKind : std::uint8_t
{
    // Core: one record per retired instruction. Span runs from
    // dispatch to commit; a0=seq, a1=issue tick, a2=complete tick.
    InstRetired = 0,
    // Core: front-end redirect. Instant; a0=branch site.
    BranchMispredict,
    // LSQ: a load replayed against an in-flight store. Instant at
    // the forwarding store's completion; a0=address.
    LsqForwardStall,
    // Cache: tag probe outcomes. Instant at the access tick;
    // a0=line address.
    CacheHit,
    CacheMiss,
    // Cache: an MSHR tracked a miss. Span from issue to fill;
    // a0=line address, a1=cycles the miss waited for a free MSHR.
    MshrAlloc,
    // DRAM: one burst occupying the pipe. Span from pipe grant to
    // data return; a0=bytes, a1=1 for writes.
    DramBurst,
    // SSPM: port-limited element phases of one VIA instruction.
    // Span; a0=elements moved.
    SspmReadPhase,
    SspmWritePhase,
    // SSPM: a phase needed more than one cycle because the element
    // count exceeded the ports. Instant; a0=serialization cycles
    // beyond the first.
    SspmPortConflict,
    // CAM (staged from the functional layer): a0=key.
    CamMatch,
    CamMiss,
    CamInsert,
    CamOverflow,
    CamClear,
    // FIVU: unit occupancy for one VIA instruction. Span from
    // acceptance to architectural completion; a0=seq.
    FivuBusy,
    COUNT
};

/** Record kind name ("inst", "cache_miss", ...). */
const char *traceEventKindName(TraceEventKind k);

/** One trace record. POD; ~48 bytes, ring-buffer friendly. */
struct TraceEvent
{
    Tick start = 0;
    Tick end = 0; //!< == start for instant events
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    std::uint64_t a2 = 0;
    TraceEventKind kind = TraceEventKind::InstRetired;
    TraceComponent comp = TraceComponent::Core;
    Op op = Op::Nop;

    bool isSpan() const { return end > start; }
};

/** A named kernel phase, rendered as a span on the kernel track. */
struct TracePhase
{
    std::string name;
    Tick start = 0;
    Tick end = 0;
};

/**
 * Bounded in-memory event sink. One per Machine: concurrent sweeps
 * each trace their own Machine, so no locking is needed and output
 * is deterministic at any thread count.
 */
class TraceManager
{
  public:
    /** @param capacity ring size in events (>= 1). */
    explicit TraceManager(std::size_t capacity);

    /** Append one finished event; drops (and counts) when full. */
    void
    emit(const TraceEvent &ev)
    {
        if (_events.size() >= _capacity) {
            ++_dropped;
            return;
        }
        _events.push_back(ev);
    }

    /**
     * Buffer a functional-layer event whose ticks are not yet known.
     * It is stamped and moved into the ring by the next flushStaged.
     */
    void
    stage(TraceEventKind kind, TraceComponent comp, std::uint64_t a0,
          std::uint64_t a1 = 0)
    {
        TraceEvent ev;
        ev.kind = kind;
        ev.comp = comp;
        ev.a0 = a0;
        ev.a1 = a1;
        _staged.push_back(ev);
    }

    /**
     * Stamp all staged events with the owning instruction's
     * [issue, complete] window and append them to the ring.
     */
    void flushStaged(Tick start, Tick end, Op op);

    /** Open a kernel phase at @p tick, closing any open one. */
    void beginPhase(const std::string &name, Tick tick);

    /** Close the open phase at @p tick (no-op when none is open). */
    void endPhase(Tick tick);

    const std::vector<TraceEvent> &events() const { return _events; }
    const std::vector<TracePhase> &phases() const { return _phases; }

    /** Events rejected because the ring was full. */
    std::uint64_t dropped() const { return _dropped; }
    std::size_t capacity() const { return _capacity; }

  private:
    std::size_t _capacity;
    std::vector<TraceEvent> _events;
    std::vector<TraceEvent> _staged;
    std::vector<TracePhase> _phases;
    std::uint64_t _dropped = 0;
};

} // namespace via

/**
 * Emission macro: zero work when the component has no manager (the
 * default) and zero code when traces are compiled out.
 */
#ifdef VIA_TRACE_DISABLED
#define VIA_TRACE_EMIT(mgr, ...)                                     \
    do {                                                             \
    } while (0)
#define VIA_TRACE_STAGE(mgr, ...)                                    \
    do {                                                             \
    } while (0)
#else
#define VIA_TRACE_EMIT(mgr, ...)                                     \
    do {                                                             \
        if ((mgr) != nullptr)                                        \
            (mgr)->emit(__VA_ARGS__);                                \
    } while (0)
#define VIA_TRACE_STAGE(mgr, ...)                                    \
    do {                                                             \
        if ((mgr) != nullptr)                                        \
            (mgr)->stage(__VA_ARGS__);                               \
    } while (0)
#endif

#endif // VIA_TRACE_TRACE_HH
