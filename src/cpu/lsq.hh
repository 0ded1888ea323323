/**
 * @file
 * Load/store ordering support for the core model.
 *
 * StoreTracker remembers the most recent stores (a store-buffer worth)
 * so that younger loads to overlapping bytes wait until the store has
 * drained to the cache. Addresses are known at emit time, so this is
 * perfect memory disambiguation — adequate for the streaming kernels
 * studied here and noted as a modelling assumption in the README.
 */

#ifndef VIA_CPU_LSQ_HH
#define VIA_CPU_LSQ_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "simcore/types.hh"
#include "trace/trace.hh"

namespace via
{

class Serializer;
class Deserializer;

/**
 * A pool of queue slots occupied for a time interval (LQ/SQ
 * occupancy). Allocation is gated on the earliest-free slot, which
 * is what bounds memory-level parallelism in a real core.
 *
 * Free times are kept as a ring sorted ascending from _head, so the
 * allocation gate is a read of the head. A booking drops the head and
 * inserts the new free time from the latest end; bookings arrive in
 * roughly completion order, so it usually lands at once. The pools
 * are probed per element access, so the common booking must cost a
 * compare and a store.
 */
class SlotPool
{
  public:
    explicit
    SlotPool(std::uint32_t slots)
        : _freeAt(slots > 0 ? slots : 1, 0)
    {}

    /** Earliest tick a slot can be allocated. */
    Tick freeAt() const { return _freeAt[_head]; }

    /** Occupy the earliest slot until @p until. */
    void
    reserve(Tick until)
    {
        // The head's storage becomes the tail: shift later free times
        // up one place until @p until fits.
        const std::size_t n = _freeAt.size();
        std::size_t pos = _head;
        _head = _head + 1 == n ? 0 : _head + 1;
        while (pos != _head) {
            std::size_t prev = pos == 0 ? n - 1 : pos - 1;
            if (_freeAt[prev] <= until)
                break;
            _freeAt[pos] = _freeAt[prev];
            pos = prev;
        }
        _freeAt[pos] = until;
    }

    void
    resetTiming()
    {
        std::fill(_freeAt.begin(), _freeAt.end(), Tick(0));
        _head = 0;
    }

    /** Number of slots in the pool. */
    std::size_t size() const { return _freeAt.size(); }

    /** Slots still occupied at tick @p t. Inspection-only. */
    std::size_t
    busyAt(Tick t) const
    {
        std::size_t n = 0;
        for (Tick f : _freeAt)
            if (f > t)
                ++n;
        return n;
    }

    /** Serialize slot occupancy (checkpoints). */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState; validates slot count. */
    void loadState(Deserializer &des);

  private:
    std::vector<Tick> _freeAt; //!< per-slot free times, sorted from _head
    std::size_t _head = 0;     //!< index of the earliest free time
};

/** Ring buffer of in-flight/recent stores for load ordering. */
class StoreTracker
{
  public:
    explicit StoreTracker(std::uint32_t depth);

    /** Record a store of [addr, addr+bytes) completing at @p when. */
    void recordStore(Addr addr, std::uint32_t bytes, Tick when);

    /**
     * Earliest tick a load of [addr, addr+bytes) may observe memory:
     * the max completion among overlapping tracked stores.
     *
     * A counting table of the 64-byte blocks the tracked stores
     * cover screens the ring scan: a load none of whose blocks is
     * counted overlaps no store, so the scan would find nothing and
     * count no conflict. Any counted block runs the full scan, since
     * conflicts() counts max-updates in ring order.
     *
     * Loads leave the ring as it is, so a load of the range the last
     * scan covered, with no store in between, repeats that scan's
     * result: the memo replays its ready tick, conflict count and
     * stall event. A gather's lanes often load one word.
     */
    Tick
    loadReady(Addr addr, std::uint32_t bytes) const
    {
        if (addr == _memo.lo && addr + bytes == _memo.hi) {
            _conflicts += _memo.conflicts;
            noteStall(addr, _memo.ready);
            return _memo.ready;
        }
        if (!mayOverlap(addr, addr + bytes))
            return 0;
        return loadReadyScan(addr, bytes);
    }

    void resetTiming();

    std::uint64_t conflicts() const { return _conflicts; }

    /** Attach a trace sink for store-forwarding stall events. */
    void setTrace(TraceManager *trace) { _trace = trace; }

    /** Serialize the store ring (checkpoints). */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState; validates the depth. */
    void loadState(Deserializer &des);

  private:
    struct StoreRec
    {
        Addr lo = 0;
        Addr hi = 0;
        Tick complete = 0;
    };

    /**
     * The last scan's range and outcome. The default range matches no
     * load: that would need addr == 1 and addr + bytes == 0.
     */
    struct ScanMemo
    {
        Addr lo = 1;
        Addr hi = 0;
        Tick ready = 0;
        std::uint64_t conflicts = 0; //!< max-updates the scan made
    };

    /** Block-table slots (a power of two; 64 KiB of address). */
    static constexpr std::size_t filterSize = 1024;
    static constexpr unsigned blockShift = 6;

    /**
     * Table slots [first, first+n) (mod filterSize) of [lo, hi). An
     * empty range takes lo's block, which holds every byte it can
     * overlap. Ranges of filterSize blocks or more take every slot.
     */
    static std::size_t
    blockSpan(Addr lo, Addr hi, Addr &first)
    {
        first = lo >> blockShift;
        Addr last = (std::max(hi, lo + 1) - 1) >> blockShift;
        return std::size_t(std::min<Addr>(last - first + 1, filterSize));
    }

    bool
    mayOverlap(Addr lo, Addr hi) const
    {
        Addr first;
        std::size_t n = blockSpan(lo, hi, first);
        for (std::size_t i = 0; i < n; ++i)
            if (_blocks[(first + i) & (filterSize - 1)] != 0)
                return true;
        return false;
    }

    /** Add (+1) or remove (-1) a ring entry's blocks in the table. */
    void countBlocks(const StoreRec &st, int delta);
    Tick loadReadyScan(Addr addr, std::uint32_t bytes) const;

    /** Trace a load at @p addr that waits for a store until @p ready. */
    void
    noteStall(Addr addr, Tick ready) const
    {
        if (ready > 0 && _trace != nullptr)
            emitStall(addr, ready);
    }
    void emitStall(Addr addr, Tick ready) const;

    std::vector<StoreRec> _ring;
    std::size_t _next = 0;
    /** Ring entries covering each block slot; derived, not saved. */
    std::array<std::uint32_t, filterSize> _blocks{};
    /** Valid until the ring changes; derived, not saved. */
    mutable ScanMemo _memo;
    mutable std::uint64_t _conflicts = 0;
    TraceManager *_trace = nullptr;
};

} // namespace via

#endif // VIA_CPU_LSQ_HH
