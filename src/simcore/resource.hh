/**
 * @file
 * A bandwidth resource booked per cycle on a sliding window.
 */

#ifndef VIA_SIMCORE_RESOURCE_HH
#define VIA_SIMCORE_RESOURCE_HH

#include <cstdint>
#include <vector>

#include "simcore/types.hh"

namespace via
{

class Serializer;
class Deserializer;

/**
 * k operations per cycle, booked on a sliding window of cycles.
 *
 * Unlike a "k units with next-free times" model, per-cycle booking
 * has no head-of-line blocking: an instruction whose operands are
 * ready far in the future books a future cycle without starving
 * younger, already-ready instructions — exactly how issue ports and
 * cache ports behave in an out-of-order core.
 *
 * Bookings before the window base (older than any live instruction's
 * dispatch tick) can no longer occur because dispatch is monotone;
 * the window slides forward accordingly.
 *
 * A full slot doubles as a skip hint: it holds `units + d - 1`,
 * meaning every cycle in [t, t+d) is known to be full, so a booking
 * behind a saturated stretch hops over it instead of probing each
 * cycle. Hints are compressed along the path a search walked, never
 * written below the window base and never reach past the window.
 */
class Resource
{
  public:
    explicit Resource(std::uint32_t units = 1);

    /**
     * Book @p occupancy consecutive cycles with spare capacity at or
     * after @p when.
     *
     * The single-cycle booking (nearly every call on the
     * per-instruction path) is inlined: one bounds check, one
     * window-slide check and one probe; only a full first slot
     * takes the out-of-line hint walk.
     *
     * @return the first booked cycle
     */
    Tick
    acquire(Tick when, Tick occupancy = 1)
    {
        if (occupancy == 1) [[likely]] {
            if (when < _base)
                when = _base;
            maybeSlide(when + 1);
            if (slot(when) >= _units) [[unlikely]]
                when = nextFree(when, 1);
            ++slot(when);
            ++_busy;
            if (when + 1 > _horizon)
                _horizon = when + 1;
            return when;
        }
        return acquireSlow(when, occupancy);
    }

    /** Release all bookings (new kernel run). */
    void resetTiming();

    std::uint32_t units() const { return _units; }

    /** Total busy slot-cycles accumulated (utilization statistic). */
    std::uint64_t busy() const { return _busy; }

    /**
     * One past the latest cycle ever booked (0 if none). Reset by
     * resetTiming, unlike busy(); busy-vs-horizon reconciliation must
     * therefore be skipped across timing resets.
     */
    Tick horizon() const { return _horizon; }

    /** Serialize booking state (checkpoints). */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState; validates unit count. */
    void loadState(Deserializer &des);

  private:
    /** Cycles tracked by the sliding window (a power of two). */
    static constexpr std::size_t windowSize = 1 << 16;

    std::uint16_t &
    slot(Tick t)
    {
        return _counts[std::size_t(t) & (windowSize - 1)];
    }

    std::uint16_t
    slot(Tick t) const
    {
        return _counts[std::size_t(t) & (windowSize - 1)];
    }

    /** Slide check, inline; the slide itself is rare and cold. */
    void
    maybeSlide(Tick t)
    {
        if (t >= _base + windowSize) [[unlikely]]
            slide(t);
    }

    void slide(Tick when);
    /** Zero the slots of the @p n cycles from @p from (n <= window). */
    void clearSpan(Tick from, Tick n);
    /** Cycles from _base that may hold bookings or hints. */
    Tick liveSpan() const;
    Tick nextFree(Tick when, Tick lead);
    Tick acquireSlow(Tick when, Tick occupancy);

    std::uint32_t _units = 1;
    std::vector<std::uint16_t> _counts;
    Tick _base = 0; //!< first cycle represented by the window
    std::uint64_t _busy = 0;
    Tick _horizon = 0; //!< one past the latest booked cycle
};


} // namespace via

#endif // VIA_SIMCORE_RESOURCE_HH
