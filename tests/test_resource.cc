/**
 * @file
 * Properties of the per-cycle bandwidth Resource: capacity limits,
 * no head-of-line blocking, and multi-cycle occupancy; plus a
 * differential test of the skip-hint walk against the linear scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "simcore/resource.hh"
#include "simcore/serialize.hh"

namespace via
{
namespace
{

TEST(Resource, SingleUnitSerializesSameCycleRequests)
{
    Resource r(1);
    EXPECT_EQ(r.acquire(5), 5u);
    EXPECT_EQ(r.acquire(5), 6u);
    EXPECT_EQ(r.acquire(5), 7u);
}

TEST(Resource, CapacityPerCycle)
{
    Resource r(3);
    EXPECT_EQ(r.acquire(0), 0u);
    EXPECT_EQ(r.acquire(0), 0u);
    EXPECT_EQ(r.acquire(0), 0u);
    EXPECT_EQ(r.acquire(0), 1u); // fourth spills to the next cycle
}

TEST(Resource, NoHeadOfLineBlocking)
{
    // A far-future booking must not delay a present-time one.
    Resource r(1);
    EXPECT_EQ(r.acquire(1000), 1000u);
    EXPECT_EQ(r.acquire(3), 3u);
    EXPECT_EQ(r.acquire(1000), 1001u);
}

TEST(Resource, MultiCycleOccupancyIsContiguous)
{
    Resource r(1);
    EXPECT_EQ(r.acquire(0, 5), 0u); // occupies cycles 0..4
    EXPECT_EQ(r.acquire(0), 5u);
}

TEST(Resource, OccupancyFindsGapOfRightSize)
{
    Resource r(1);
    r.acquire(2);      // cycle 2 busy
    // A 3-cycle booking from 0 would overlap cycle 2: must start
    // after it.
    EXPECT_EQ(r.acquire(0, 3), 3u);
    // A 2-cycle booking fits in cycles 0-1.
    EXPECT_EQ(r.acquire(0, 2), 0u);
}

TEST(Resource, BusyAccounting)
{
    Resource r(2);
    r.acquire(0);
    r.acquire(0, 4);
    EXPECT_EQ(r.busy(), 5u);
}

TEST(Resource, ResetClearsBookings)
{
    Resource r(1);
    r.acquire(0);
    r.resetTiming();
    EXPECT_EQ(r.acquire(0), 0u);
}

TEST(Resource, ThroughputMatchesCapacityOverLongRuns)
{
    // Property: N requests at the same tick through a k-wide
    // resource span ceil(N/k) cycles.
    for (std::uint32_t k : {1u, 2u, 4u}) {
        Resource r(k);
        Tick last = 0;
        const std::uint32_t n = 1000;
        for (std::uint32_t i = 0; i < n; ++i)
            last = std::max(last, r.acquire(0));
        EXPECT_EQ(last, (n - 1) / k) << "units=" << k;
    }
}

TEST(Resource, SlidingWindowSurvivesLargeJumps)
{
    Resource r(2);
    EXPECT_EQ(r.acquire(10), 10u);
    // Jump far beyond the window; old bookings are dropped but the
    // new booking must be honoured exactly.
    Tick far = 1'000'000;
    EXPECT_EQ(r.acquire(far), far);
    EXPECT_EQ(r.acquire(far), far);
    EXPECT_EQ(r.acquire(far), far + 1);
}

TEST(Resource, InterleavedTimesRespectTotalCapacity)
{
    // Property: no cycle ever gets more than `units` bookings,
    // checked with a shadow model.
    Resource r(2);
    std::map<Tick, int> shadow;
    Tick times[] = {5, 3, 5, 5, 3, 9, 3, 3, 9, 5};
    for (Tick t : times) {
        Tick got = r.acquire(t);
        EXPECT_GE(got, t);
        ++shadow[got];
    }
    for (const auto &kv : shadow)
        EXPECT_LE(kv.second, 2) << "cycle " << kv.first;
}

/**
 * The one-cycle-at-a-time scan the skip-hint walk replaced, kept as
 * the reference: same window, same slide points, same checkpoint
 * layout.
 */
class LinearResource
{
  public:
    explicit LinearResource(std::uint32_t units)
        : _units(units), _counts(windowSize, 0)
    {}

    Tick
    acquire(Tick when, Tick occupancy)
    {
        when = std::max(when, _base);
        maybeSlide(when + occupancy);
        for (;;) {
            bool ok = true;
            for (Tick o = 0; o < occupancy; ++o) {
                if (slot(when + o) >= _units) {
                    when = when + o + 1;
                    maybeSlide(when + occupancy);
                    ok = false;
                    break;
                }
            }
            if (ok)
                break;
        }
        for (Tick o = 0; o < occupancy; ++o)
            ++slot(when + o);
        _busy += occupancy;
        _horizon = std::max(_horizon, when + occupancy);
        return when;
    }

    void
    resetTiming()
    {
        std::fill(_counts.begin(), _counts.end(), std::uint16_t(0));
        _base = 0;
        _horizon = 0;
    }

    std::uint64_t busy() const { return _busy; }
    Tick horizon() const { return _horizon; }

    void
    saveState(Serializer &ser)
    {
        ser.tag("RSRC");
        ser.put(_units);
        ser.put(_base);
        ser.put(_busy);
        ser.put(_horizon);
        Tick live = _horizon > _base
                        ? std::min<Tick>(_horizon - _base, windowSize)
                        : 0;
        ser.put(live);
        for (Tick t = 0; t < live; ++t)
            ser.put(slot(_base + t));
    }

  private:
    static constexpr std::size_t windowSize = 1 << 16;

    std::uint16_t &slot(Tick t) { return _counts[t % windowSize]; }

    void
    maybeSlide(Tick t)
    {
        if (t < _base + windowSize)
            return;
        Tick new_base = t - windowSize / 2;
        for (Tick c = _base; c < std::min(new_base, _base + windowSize);
             ++c)
            slot(c) = 0;
        _base = new_base;
    }

    std::uint32_t _units;
    std::vector<std::uint16_t> _counts;
    Tick _base = 0;
    std::uint64_t _busy = 0;
    Tick _horizon = 0;
};

template <typename R>
std::vector<std::uint8_t>
saved(R &r)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(64); // GCC 12 misreads an insert into an empty vector
    Serializer ser(bytes);
    r.saveState(ser);
    return bytes;
}

/**
 * Random bookings in phases that pile requests onto a slowly moving
 * front (long saturated stretches the walk hops over, crossing the
 * window end so it slides mid-walk) and drain them again, plus
 * requests from far behind the window base (a lagging core), jumps
 * past half a window, timing resets and checkpoint round trips.
 */
void
runDifferential(std::uint32_t units, std::uint64_t seed, int steps)
{
    constexpr Tick window = 1 << 16;
    std::mt19937_64 rng(seed);
    Resource fast(units);
    LinearResource ref(units);
    Tick front = 0;
    Tick advance = 0; // front moves `advance` ticks per 4 requests
    auto where = [&](int step) {
        return ::testing::Message() << "units=" << units
                                    << " seed=" << seed
                                    << " step=" << step;
    };
    for (int step = 0; step < steps; ++step) {
        if (step % 512 == 0)
            advance = rng() % 2 == 0 ? 0 : 16; // pile up, or drain
        if (step % 4 == 0)
            front += advance;
        std::uint64_t r = rng() % 10000;
        if (r < 20) {
            front += window / 2 + rng() % window;
            continue;
        }
        if (r < 25) {
            fast.resetTiming();
            ref.resetTiming();
            front = rng() % 64;
            continue;
        }
        if (r < 30) {
            auto bytes = saved(fast);
            ASSERT_EQ(bytes, saved(ref)) << where(step);
            Resource restored(units);
            Deserializer des(bytes);
            restored.loadState(des);
            fast = restored;
            continue;
        }
        Tick when = front + rng() % 8;
        if (r < 85)
            when = front - std::min<Tick>(front, rng() % (2 * window));
        Tick occupancy = rng() % 4 == 0 ? 1 + rng() % 8 : 1;
        ASSERT_EQ(fast.acquire(when, occupancy),
                  ref.acquire(when, occupancy))
            << where(step);
        ASSERT_EQ(fast.busy(), ref.busy()) << where(step);
        ASSERT_EQ(fast.horizon(), ref.horizon()) << where(step);
        if (step % 4096 == 0) {
            ASSERT_EQ(saved(fast), saved(ref)) << where(step);
        }
    }
    ASSERT_EQ(saved(fast), saved(ref)) << where(steps);
}

TEST(Resource, SkipHintWalkMatchesLinearScan)
{
    for (std::uint32_t units = 1; units <= 4; ++units)
        for (std::uint64_t seed = 1; seed <= 2; ++seed)
            runDifferential(units, seed, 100000);
}

TEST(Resource, WalksAcrossTheWindowEndMatchLinearScan)
{
    // Saturate a stretch that starts below the half-window mark and
    // nearly reaches the window end, then walk into it from random
    // points with random occupancies. The walks follow multi-hop
    // hint paths and finally land past the window end, sliding it
    // mid-walk. Scattered bookings afterwards, before and after a
    // timing reset, expose any hint left in a slot the slide reused.
    constexpr Tick window = 1 << 16;
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 24; ++trial) {
        std::uint32_t units = 1 + trial % 4;
        Resource fast(units);
        LinearResource ref(units);
        auto book = [&](Tick when, Tick occupancy) {
            ASSERT_EQ(fast.acquire(when, occupancy),
                      ref.acquire(when, occupancy))
                << "trial=" << trial << " when=" << when;
            ASSERT_EQ(fast.horizon(), ref.horizon());
        };
        // The first trials saturate from cycle 0 to two short of the
        // window end: walking that whole stretch writes hints longer
        // than a slot holds above the unit count.
        Tick from = trial < 4 ? 0 : rng() % (window / 2);
        Tick end = window - 2 - (trial < 4 ? 0 : rng() % 64);
        for (Tick t = from; t < end; ++t)
            for (std::uint32_t u = 0; u < units; ++u)
                book(t, 1);
        // Scattered full cycles between the stretch and the window
        // end: a multi-cycle search steps over them, so its slide
        // check can jump past the window end instead of meeting it.
        for (Tick i = 0; i < units * (window - 2 - end) / 2; ++i)
            book(end + rng() % (window - 1 - end), 1);
        book(from, 1);
        ASSERT_EQ(saved(fast), saved(ref)) << "trial=" << trial;
        for (int walk = 0; walk < 96; ++walk)
            book(from + rng() % (end - from), 1 + rng() % 8);
        ASSERT_GE(fast.horizon(), window) << "no walk slid the window";
        ASSERT_EQ(saved(fast), saved(ref)) << "trial=" << trial;
        for (int i = 0; i < 400; ++i)
            book(from + rng() % (2 * window), 1 + rng() % 8);
        ASSERT_EQ(saved(fast), saved(ref)) << "trial=" << trial;
        fast.resetTiming();
        ref.resetTiming();
        for (int i = 0; i < 400; ++i)
            book(rng() % (2 * window), 1 + rng() % 8);
        ASSERT_EQ(saved(fast), saved(ref)) << "trial=" << trial;
    }
}

TEST(Resource, LoadRejectsCountsAboveCapacity)
{
    // A stored count above the unit count would read as a skip hint.
    Resource r(2);
    r.acquire(0);
    auto bytes = saved(r);
    bytes[bytes.size() - 8] = 3;
    Resource restored(2);
    Deserializer des(bytes);
    EXPECT_THROW(restored.loadState(des), SerializeError);
}

} // namespace
} // namespace via
