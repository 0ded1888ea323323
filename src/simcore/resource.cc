#include "simcore/resource.hh"

#include <algorithm>

#include "simcore/log.hh"
#include "simcore/serialize.hh"

namespace via
{

Resource::Resource(std::uint32_t units)
    : _units(std::max<std::uint32_t>(units, 1)),
      _counts(windowSize, 0)
{
    via_assert(_units < 0x10000, "resource unit count exceeds a slot");
}

void
Resource::clearSpan(Tick from, Tick n)
{
    // At most one window: at most two spans of the ring.
    std::size_t i = std::size_t(from) & (windowSize - 1);
    std::size_t head = std::min<std::size_t>(n, windowSize - i);
    std::fill_n(_counts.begin() + i, head, std::uint16_t(0));
    std::fill_n(_counts.begin(), std::size_t(n) - head, std::uint16_t(0));
}

Tick
Resource::liveSpan() const
{
    // Nonzero slots live only in [_base, _horizon): cycles below
    // _base were cleared when the window slid, cycles at or beyond
    // _horizon were never booked (hints sit only on booked cycles).
    return _horizon > _base ? std::min<Tick>(_horizon - _base, windowSize)
                            : 0;
}

void
Resource::slide(Tick when)
{
    // Clear the cycles that fall out of the window. Bookings there
    // are in the past relative to every future request (dispatch is
    // monotone), so dropping them is safe.
    Tick new_base = when - windowSize / 2;
    via_assert(new_base > _base, "window slide went backwards");
    clearSpan(_base, std::min<Tick>(new_base - _base, windowSize));
    _base = new_base;
}

Tick
Resource::nextFree(Tick when, Tick lead)
{
    // The caller has called maybeSlide(when + lead). Slide exactly
    // where a one-cycle-at-a-time scan calling maybeSlide(t + lead)
    // at every visited cycle t would: such a scan slides the moment
    // t + lead reaches the window end, advancing the base by exactly
    // half a window, so a hop replays those slides one by one.
    const Tick base = _base;
    Tick t = when;
    while (slot(t) >= _units) {
        t += slot(t) - _units + 1;
        while (t + lead >= _base + windowSize)
            slide(_base + windowSize);
    }
    // Point every hint on the path at the free cycle. A walk that
    // slid may have crossed cleared slots: leave it uncompressed.
    if (_base == base) {
        const Tick cap = 0x10000 - _units; // largest d a slot holds
        for (Tick v = when; v < t;) {
            Tick next = v + slot(v) - _units + 1;
            slot(v) = std::uint16_t(_units - 1 + std::min(t - v, cap));
            v = next;
        }
    }
    return t;
}

Tick
Resource::acquireSlow(Tick when, Tick occupancy)
{
    via_assert(occupancy >= 1 && occupancy <= windowSize / 2,
               "booking occupancy outside (0, half a window]");
    when = std::max(when, _base);
    maybeSlide(when + occupancy);

    // Find `occupancy` consecutive cycles with spare capacity.
    for (Tick o = 0; o < occupancy;) {
        if (slot(when + o) >= _units) {
            when = when + o + 1;
            maybeSlide(when + occupancy);
            when = nextFree(when, occupancy);
            o = 0;
        } else {
            ++o;
        }
    }
    for (Tick o = 0; o < occupancy; ++o)
        ++slot(when + o);
    _busy += occupancy;
    _horizon = std::max(_horizon, when + occupancy);
    return when;
}

void
Resource::resetTiming()
{
    clearSpan(_base, liveSpan());
    _base = 0;
    _horizon = 0;
}

void
Resource::saveState(Serializer &ser) const
{
    ser.tag("RSRC");
    ser.put(_units);
    ser.put(_base);
    ser.put(_busy);
    ser.put(_horizon);
    // Storing just the live slice keeps checkpoints compact without
    // losing a single booking. A hint is a full slot: store `units`.
    Tick live = liveSpan();
    ser.put(live);
    for (Tick t = 0; t < live; ++t)
        ser.put(std::min<std::uint16_t>(slot(_base + t), _units));
}

void
Resource::loadState(Deserializer &des)
{
    des.expectTag("RSRC");
    auto units = des.get<std::uint32_t>();
    if (units != _units)
        throw SerializeError("resource unit count mismatch");
    resetTiming();
    _base = des.get<Tick>();
    _busy = des.get<std::uint64_t>();
    _horizon = des.get<Tick>();
    if (des.get<Tick>() != liveSpan())
        throw SerializeError("resource live slice mismatch");
    Tick live = liveSpan();
    for (Tick t = 0; t < live; ++t) {
        auto count = des.get<std::uint16_t>();
        // A count above capacity would read as a skip hint.
        if (count > _units)
            throw SerializeError("resource slot over capacity");
        slot(_base + t) = count;
    }
}


} // namespace via
