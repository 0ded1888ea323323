/**
 * @file
 * Memory subsystem tests: backing store, cache tag behaviour, DRAM
 * pipe, and the assembled hierarchy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mem_system.hh"
#include "simcore/rng.hh"

namespace via
{
namespace
{

// ---------------- BackingStore ---------------------------------

TEST(BackingStore, ReadsOfUntouchedMemoryAreZero)
{
    BackingStore mem;
    EXPECT_EQ(mem.load<std::uint64_t>(0x1234), 0u);
}

TEST(BackingStore, RoundTripsScalars)
{
    BackingStore mem;
    mem.store<double>(0x100, 3.25);
    EXPECT_DOUBLE_EQ(mem.load<double>(0x100), 3.25);
    mem.store<std::int32_t>(0x200, -7);
    EXPECT_EQ(mem.load<std::int32_t>(0x200), -7);
}

TEST(BackingStore, CrossPageAccessesWork)
{
    BackingStore mem;
    Addr edge = BackingStore::pageBytes - 4;
    mem.store<std::uint64_t>(edge, 0x1122334455667788ull);
    EXPECT_EQ(mem.load<std::uint64_t>(edge), 0x1122334455667788ull);
}

TEST(BackingStore, AllocatorAlignsAndSeparates)
{
    BackingStore mem;
    Addr a = mem.alloc(10, 64);
    Addr b = mem.alloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
}

TEST(BackingStore, ArrayRoundTrip)
{
    BackingStore mem;
    std::vector<float> v{1.5f, -2.5f, 3.5f};
    Addr base = mem.allocArray(v);
    auto back = mem.readArray<float>(base, 3);
    EXPECT_EQ(back, v);
}

TEST(BackingStoreDeathTest, BadAlignmentPanics)
{
    BackingStore mem;
    EXPECT_DEATH(mem.alloc(8, 3), "power of two");
}

// ---------------- Cache -----------------------------------------

CacheParams
smallCache()
{
    CacheParams p;
    p.sizeBytes = 1024; // 16 lines
    p.assoc = 2;
    p.lineBytes = 64;
    p.hitLatency = 2;
    p.mshrs = 4;
    return p;
}

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    auto r1 = c.access(0x0, false);
    EXPECT_FALSE(r1.hit);
    auto r2 = c.access(0x0, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.stats().readMisses, 1u);
    EXPECT_EQ(c.stats().reads, 2u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(smallCache()); // 8 sets x 2 ways
    // Three lines in the same set (stride = sets * lineBytes).
    Addr stride = 8 * 64;
    c.access(0 * stride, false);
    c.access(1 * stride, false);
    c.access(0 * stride, false); // refresh line 0
    c.access(2 * stride, false); // evicts line 1 (LRU)
    EXPECT_TRUE(c.contains(0 * stride));
    EXPECT_FALSE(c.contains(1 * stride));
    EXPECT_TRUE(c.contains(2 * stride));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(smallCache());
    Addr stride = 8 * 64;
    c.access(0, true); // dirty
    c.access(stride, false);
    auto r = c.access(2 * stride, false); // evicts the dirty line
    EXPECT_TRUE(r.victimDirty);
    EXPECT_EQ(r.victimLine, 0u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c(smallCache());
    c.access(0, false);
    c.flush();
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, MshrTracksInflightLines)
{
    Cache c(smallCache());
    c.mshrReserve(0x40, 100);
    Tick complete = 0;
    EXPECT_TRUE(c.mshrLookup(0x40, 50, complete));
    EXPECT_EQ(complete, 100u);
    // After the fill time the entry is stale.
    EXPECT_FALSE(c.mshrLookup(0x40, 150, complete));
}

TEST(Cache, MshrFreeAtReflectsOccupancy)
{
    Cache c(smallCache()); // 4 MSHRs
    EXPECT_EQ(c.mshrFreeAt(), 0u);
    for (int i = 0; i < 4; ++i)
        c.mshrReserve(Addr(i) * 64, 200);
    EXPECT_EQ(c.mshrFreeAt(), 200u);
}

/**
 * Reference model of the time-aware MSHR gate: the recorded-fill
 * ring and the full scan Cache::mshrFreeAt(Tick) ran on every call
 * before it gained its constant-time early out.
 */
struct FillRingModel
{
    struct Span
    {
        Tick issue;
        Tick complete;
    };

    std::size_t cap;
    std::vector<Span> ring;
    std::size_t next = 0;

    void
    reserve(Tick complete, Tick issue)
    {
        Span span{std::min(issue, complete), complete};
        if (ring.size() < 4 * cap) {
            ring.push_back(span);
        } else {
            ring[next] = span;
            next = (next + 1) % ring.size();
        }
    }

    void
    clear()
    {
        ring.clear();
        next = 0;
    }

    Tick
    freeAt(Tick when) const
    {
        std::vector<Tick> live;
        for (const auto &f : ring)
            if (f.issue <= when && when < f.complete)
                live.push_back(f.complete);
        if (live.size() < cap)
            return when;
        std::size_t k = live.size() - cap;
        std::nth_element(live.begin(),
                         live.begin() + std::ptrdiff_t(k), live.end());
        return live[k];
    }
};

/**
 * Random reserve/query streams against the reference scan: the ring
 * wraps many times, some reservations complete before they issue
 * (clamped), queries land exactly on span edges, dense stretches
 * keep at least `mshrs` spans live so the full scan decides, and
 * flush/resetTiming clear the ring mid-stream.
 */
TEST(Cache, MshrFreeAtTickMatchesReferenceScan)
{
    for (std::uint32_t mshrs : {1u, 4u, 7u}) {
        CacheParams p = smallCache();
        p.mshrs = mshrs;
        Cache c(p);
        c.trackFillSpans(true);
        FillRingModel model{mshrs, {}, 0};
        Rng rng(0x5eed + mshrs);
        Tick base = 1000;
        std::uint64_t reserves = 0, gated = 0, clears = 0;

        auto check = [&](Tick when) {
            Tick want = model.freeAt(when);
            ASSERT_EQ(c.mshrFreeAt(when), want)
                << "mshrs " << mshrs << " when " << when
                << " after " << reserves << " reserves";
            gated += want > when;
        };

        for (int step = 0; step < 40000; ++step) {
            // Alternate sparse stretches (short spans, most queries
            // take the early out) with dense ones (long overlapping
            // spans, at least `mshrs` live).
            bool dense = (step / 2000) % 2 == 1;
            Tick span_len = dense ? 400 + rng.below(400)
                                  : 1 + rng.below(40);
            std::uint64_t op = rng.below(100);
            if (op < 45) {
                Tick issue = base + rng.below(200);
                Tick complete = issue + span_len;
                if (rng.chance(0.05)) // issue after completion
                    complete = issue - std::min<Tick>(issue,
                                                      rng.below(50));
                c.mshrReserve(Addr(rng.below(64)) * 64, complete, 0,
                              issue);
                model.reserve(complete, issue);
                ++reserves;
                base += rng.below(dense ? 3 : 30);
            } else if (op < 70 && !model.ring.empty()) {
                // Exactly on, and one tick either side of, an edge.
                const auto &f = model.ring[rng.below(model.ring.size())];
                Tick edge = rng.chance(0.5) ? f.issue : f.complete;
                for (Tick when : {edge - 1, edge, edge + 1})
                    check(when);
            } else if (op < 99) {
                check(base - std::min<Tick>(base, 300) +
                      rng.below(900));
            } else {
                if (rng.chance(0.5))
                    c.flush();
                else
                    c.resetTiming();
                model.clear();
                ++clears;
                check(base);
            }
            if (testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_GT(reserves, 16 * mshrs) << "the ring never wrapped";
        EXPECT_GT(gated, 100u) << "the full scan never gated";
        EXPECT_GT(clears, 10u);
    }
}

TEST(CacheDeathTest, GeometryMustDivide)
{
    CacheParams p = smallCache();
    p.lineBytes = 48; // not a power of two
    EXPECT_DEATH(Cache c(p), "power of two");
}

// ---------------- Dram ------------------------------------------

TEST(Dram, IdleLatency)
{
    DramParams p;
    p.latency = 100;
    p.bytesPerCycle = 64.0;
    Dram d(p);
    EXPECT_EQ(d.serve(64, 10, false), 10u + 100u + 1u);
}

TEST(Dram, BandwidthSerializesBursts)
{
    DramParams p;
    p.latency = 0;
    p.bytesPerCycle = 6.4;
    Dram d(p);
    Tick t0 = d.serve(64, 0, false); // 10 cycles
    Tick t1 = d.serve(64, 0, false);
    EXPECT_EQ(t0, 10u);
    EXPECT_EQ(t1, 20u);
    EXPECT_EQ(d.stats().busyCycles, 20u);
    EXPECT_GT(d.stats().queueCycles, 0u);
}

TEST(Dram, ReadWriteTrafficAccounted)
{
    Dram d(DramParams{});
    d.serve(64, 0, false);
    d.serve(128, 0, true);
    EXPECT_EQ(d.stats().bytesRead, 64u);
    EXPECT_EQ(d.stats().bytesWritten, 128u);
    EXPECT_EQ(d.stats().requests, 2u);
}

// ---------------- MemSystem --------------------------------------

TEST(MemSystem, L1HitIsFast)
{
    MemSystem ms(MemSystemParams::defaults());
    ms.access(0x1000, 4, false, 0); // cold miss
    auto r = ms.access(0x1000, 4, false, 500);
    EXPECT_EQ(r.levelServed, 0);
    EXPECT_EQ(r.complete, 500u + 4u);
}

TEST(MemSystem, ColdMissGoesToDram)
{
    MemSystem ms(MemSystemParams::defaults());
    auto r = ms.access(0x1000, 4, false, 0);
    EXPECT_EQ(r.levelServed, -1);
    EXPECT_GT(r.complete, 150u);
}

TEST(MemSystem, L2ServesAfterL1Eviction)
{
    MemSystemParams p = MemSystemParams::defaults();
    MemSystem ms(p);
    ms.access(0x0, 4, false, 0);
    // Push enough distinct lines through one L1 set to evict 0x0
    // but keep it in the (bigger) L2.
    Addr l1_sets = p.levels[0].sizeBytes / p.levels[0].lineBytes /
                   p.levels[0].assoc;
    Addr stride = l1_sets * 64;
    for (Addr i = 1; i <= 16; ++i)
        ms.access(i * stride, 4, false, 1000 * i);
    auto r = ms.access(0x0, 4, false, 1'000'000);
    EXPECT_EQ(r.levelServed, 1);
}

TEST(MemSystem, ConcurrentMissesToOneLineMerge)
{
    MemSystem ms(MemSystemParams::defaults());
    auto r1 = ms.access(0x2000, 4, false, 0);
    auto r2 = ms.access(0x2004, 4, false, 1);
    // Second access merges with the in-flight fill: no second DRAM
    // request, completion no later than the first fill.
    EXPECT_EQ(ms.dram().stats().requests, 1u);
    EXPECT_LE(r2.complete, r1.complete);
}

TEST(MemSystem, CrossLineAccessTouchesBothLines)
{
    MemSystem ms(MemSystemParams::defaults());
    ms.access(0x1000 - 2, 4, false, 0); // straddles 0xfc0/0x1000
    EXPECT_EQ(ms.dram().stats().requests, 2u);
}

TEST(MemSystem, StatsRegisterAndDump)
{
    MemSystem ms(MemSystemParams::defaults());
    StatSet stats;
    ms.registerStats(stats);
    ms.access(0x0, 4, false, 0);
    EXPECT_EQ(stats.get("mem.l1d.reads"), 1.0);
    EXPECT_EQ(stats.get("mem.l1d.read_misses"), 1.0);
    EXPECT_GT(stats.get("mem.dram.bytes_read"), 0.0);
}

TEST(MemSystemDeathTest, ZeroByteAccessPanics)
{
    MemSystem ms(MemSystemParams::defaults());
    EXPECT_DEATH(ms.access(0, 0, false, 0), "zero-byte");
}

// Regression: a miss that merges with an in-flight fill used to be
// counted as a hit (the primary miss pre-installs the tag), silently
// inflating the hit rate. Merges now land in their own counter and
// every access is classified exactly once.
TEST(MemSystem, MshrMergeCountedAsMergeNotHit)
{
    MemSystem ms(MemSystemParams::defaults());
    StatSet stats;
    ms.registerStats(stats);
    ms.access(0x2000, 4, false, 0); // primary miss
    ms.access(0x2004, 4, false, 1); // merges with the fill

    const CacheStats &cs = ms.level(0).stats();
    EXPECT_EQ(cs.reads, 2u);
    EXPECT_EQ(cs.hits, 0u);
    EXPECT_EQ(cs.readMisses, 1u);
    EXPECT_EQ(cs.mshrMerges, 1u);
    EXPECT_EQ(cs.accesses(), cs.hits + cs.misses() + cs.mshrMerges);
    EXPECT_EQ(stats.get("mem.l1d.mshr_merges"), 1.0);
    EXPECT_EQ(stats.get("mem.l1d.hits"), 0.0);
    // Both the primary and the secondary miss count against the
    // miss rate.
    EXPECT_DOUBLE_EQ(stats.get("mem.l1d.miss_rate"), 1.0);
}

// Regression: a prefetch's dirty victim used to be written back at
// demand time, occupying the DRAM pipe before the prefetched line
// that evicts it had even arrived. The writeback is now charged
// after the prefetch fill.
TEST(MemSystem, PrefetchVictimWritebackChargedAfterFill)
{
    MemSystemParams p;
    CacheParams l1;
    l1.name = "l1d";
    l1.sizeBytes = 128; // 2 sets x 1 way
    l1.assoc = 1;
    l1.lineBytes = 64;
    l1.hitLatency = 1;
    l1.mshrs = 4;
    p.levels = {l1};
    p.dram.latency = 100;
    p.dram.bytesPerCycle = 64.0;
    p.prefetch.degree = 1;
    MemSystem ms(p);
    TraceManager trace(256);
    ms.setTrace(&trace);

    // Dirty 0x40 (set 1); its miss prefetches 0x80 into set 0.
    ms.access(0x40, 4, true, 0);
    // Miss on 0x180 (set 0) prefetches 0x1c0 (set 1), evicting the
    // dirty 0x40 — the only write burst in the run.
    ms.access(0x180, 4, false, 1000);

    const TraceEvent *write_burst = nullptr;
    for (const TraceEvent &ev : trace.events()) {
        if (ev.kind == TraceEventKind::DramBurst && ev.a1 == 1) {
            EXPECT_EQ(write_burst, nullptr);
            write_burst = &ev;
        }
    }
    ASSERT_NE(write_burst, nullptr);
    EXPECT_EQ(ms.level(0).stats().writebacks, 1u);
    // The victim cannot leave before the prefetched line arrives:
    // its burst starts no earlier than the fill (issue + DRAM
    // latency), not right after the demand burst.
    EXPECT_GE(write_burst->start, Tick(1000 + p.dram.latency));
}

} // namespace
} // namespace via
