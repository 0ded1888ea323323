/**
 * @file
 * The multi-core machine (docs/multicore.md): shared-LLC bank
 * contention and directory coherence at the unit level, the
 * MultiMachine parameter derivation, the partitioning helpers, and
 * every parallel kernel against the host goldens — including
 * determinism of the timed makespan.
 */

#include <gtest/gtest.h>

#include "cpu/multi_machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/parallel.hh"
#include "kernels/reference.hh"
#include "mem/mem_system.hh"
#include "mem/shared_llc.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/csc.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

using kernels::Partition;

// ------------------------------------------------- partitioning

TEST(StaticRanges, BalancedContiguousCover)
{
    auto r = kernels::staticRanges(10, 3);
    ASSERT_EQ(r.size(), 3u);
    // First n % cores ranges take the extra element.
    EXPECT_EQ(r[0], (std::pair<Index, Index>{0, 4}));
    EXPECT_EQ(r[1], (std::pair<Index, Index>{4, 7}));
    EXPECT_EQ(r[2], (std::pair<Index, Index>{7, 10}));
}

TEST(StaticRanges, MoreCoresThanWork)
{
    auto r = kernels::staticRanges(2, 4);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[0], (std::pair<Index, Index>{0, 1}));
    EXPECT_EQ(r[1], (std::pair<Index, Index>{1, 2}));
    // The surplus cores get empty (lo, lo) ranges.
    EXPECT_EQ(r[2].first, r[2].second);
    EXPECT_EQ(r[3].first, r[3].second);
}

TEST(PartitionNames, RoundTrip)
{
    EXPECT_EQ(kernels::parsePartition("static"), Partition::Static);
    EXPECT_EQ(kernels::parsePartition("steal"), Partition::Steal);
    EXPECT_STREQ(kernels::partitionName(Partition::Static),
                 "static");
    EXPECT_STREQ(kernels::partitionName(Partition::Steal), "steal");
}

// --------------------------------------------- parameter derivation

TEST(MultiMachineParams, PrivateHierarchyIsL1Only)
{
    MachineParams base;
    ASSERT_GE(base.mem.levels.size(), 2u);
    MachineParams priv = MultiMachine::privateParams(base);
    // One private level (the L1); the shared LLC replaces the rest,
    // and the private prefetcher is off (the LLC prefetches).
    EXPECT_EQ(priv.mem.levels.size(), 1u);
    EXPECT_EQ(priv.mem.levels[0].sizeBytes,
              base.mem.levels[0].sizeBytes);
    EXPECT_EQ(priv.mem.prefetch.degree, 0u);
}

TEST(MultiMachineParams, LlcScalesWithCores)
{
    MemSystemParams mem = MemSystemParams::defaults();
    SharedLlcParams llc = SharedLlcParams::from(mem, 4);
    EXPECT_EQ(llc.cache.sizeBytes, mem.levels.back().sizeBytes * 4);
    EXPECT_EQ(llc.cache.mshrs, mem.levels.back().mshrs * 4);
    EXPECT_EQ(llc.cache.name, "llc");
}

// ------------------------------------------------ bank contention

/** Two private hierarchies attached to one LLC under test. */
struct LlcRig
{
    SharedLlcParams params;
    std::unique_ptr<SharedLlc> llc;
    std::vector<std::unique_ptr<MemSystem>> mems;

    explicit LlcRig(std::uint32_t banks, unsigned cores = 2)
    {
        params = SharedLlcParams::from(MemSystemParams::defaults(),
                                       cores);
        params.banks = banks;
        params.prefetch.degree = 0;
        llc = std::make_unique<SharedLlc>(params);
        for (unsigned c = 0; c < cores; ++c) {
            mems.push_back(std::make_unique<MemSystem>(
                MemSystemParams::defaults()));
            llc->attachCore(c, mems.back().get());
        }
    }

    Addr lineAddr(std::uint64_t line) const
    {
        return Addr(line) * params.cache.lineBytes;
    }
};

TEST(SharedLlcBanks, AddressInterleavesAcrossBanks)
{
    LlcRig rig(8);
    for (std::uint64_t line = 0; line < 32; ++line)
        EXPECT_EQ(rig.llc->bankOf(rig.lineAddr(line)), line % 8);
}

TEST(SharedLlcBanks, SingleBankSerializesConcurrentAccesses)
{
    // Warm distinct lines so the timed accesses are pure tag hits:
    // any spread in completion comes from the bank pipe alone.
    constexpr unsigned kAccesses = 8;
    LlcRig rig(1);
    for (std::uint64_t i = 0; i < kAccesses; ++i)
        rig.llc->warmAccess(0, rig.lineAddr(i), false);
    rig.llc->resetTiming();

    Tick last = 0;
    for (std::uint64_t i = 0; i < kAccesses; ++i) {
        Tick done = rig.llc->access(i % 2, rig.lineAddr(i), false,
                                    /*when=*/0);
        // Strictly increasing completion: one line per cycle through
        // the single pipe.
        EXPECT_GT(done, last) << "access " << i;
        last = done;
    }
    // Everyone but the first queued: 1 + 2 + ... + (n-1).
    EXPECT_EQ(rig.llc->stats().bankQueueCycles,
              kAccesses * (kAccesses - 1) / 2);
}

TEST(SharedLlcBanks, EnoughBanksRestoreParallelism)
{
    constexpr unsigned kAccesses = 8;
    LlcRig rig(kAccesses);
    for (std::uint64_t i = 0; i < kAccesses; ++i)
        rig.llc->warmAccess(0, rig.lineAddr(i), false);
    rig.llc->resetTiming();

    // Distinct lines now map to distinct banks: no queueing, and
    // every hit completes at the same tick.
    Tick first = rig.llc->access(0, rig.lineAddr(0), false, 0);
    for (std::uint64_t i = 1; i < kAccesses; ++i)
        EXPECT_EQ(rig.llc->access(i % 2, rig.lineAddr(i), false, 0),
                  first);
    EXPECT_EQ(rig.llc->stats().bankQueueCycles, 0u);
}

// ----------------------------------------------------- coherence

/**
 * The directory transition table, driven from two cores on one
 * line. Each step runs at a widely spaced tick (the bank pipe is
 * long free), so the returned latency isolates hit latency plus any
 * coherence penalty.
 */
TEST(SharedLlcCoherence, TransitionTable)
{
    LlcRig rig(8);
    SharedLlc &llc = *rig.llc;
    const Addr line = rig.lineAddr(5);
    const Tick hit = rig.params.cache.hitLatency;
    const Tick fwd = rig.params.dirtyForwardLatency;
    Tick t = 0;
    auto step = [&] { return t += 1000; };
    Tick w = 0;

    // I -> S: first read misses to DRAM, no coherence traffic.
    llc.access(0, line, false, step());
    EXPECT_EQ(llc.stats().invalidations, 0u);
    EXPECT_EQ(llc.stats().dirtyForwards, 0u);

    // S -> S: a second reader joins; still silent.
    w = step();
    EXPECT_EQ(llc.access(1, line, false, w), w + hit);
    EXPECT_EQ(llc.stats().invalidations, 0u);

    // S -> M (remote write): the other sharer's private copy drops.
    rig.mems[0]->warmAccess(line, 8, false); // core 0 caches it
    ASSERT_TRUE(rig.mems[0]->level(0).contains(line));
    w = step();
    EXPECT_EQ(llc.access(1, line, true, w), w + hit);
    EXPECT_EQ(llc.stats().invalidations, 1u);
    EXPECT_EQ(llc.stats().dirtyForwards, 0u);
    EXPECT_FALSE(rig.mems[0]->level(0).contains(line));

    // M -> S (remote read): dirty forward — the owner is flushed
    // and the reader pays the core-to-core latency.
    rig.mems[1]->warmAccess(line, 8, false);
    w = step();
    EXPECT_EQ(llc.access(0, line, false, w), w + hit + fwd);
    EXPECT_EQ(llc.stats().invalidations, 2u);
    EXPECT_EQ(llc.stats().dirtyForwards, 1u);
    EXPECT_FALSE(rig.mems[1]->level(0).contains(line));

    // S -> M again, then M -> M by the same core: silent upgrade.
    w = step();
    EXPECT_EQ(llc.access(0, line, true, w), w + hit);
    w = step();
    EXPECT_EQ(llc.access(0, line, true, w), w + hit);
    EXPECT_EQ(llc.stats().invalidations, 2u);
    EXPECT_EQ(llc.stats().dirtyForwards, 1u);

    // M -> S self-downgrade: the owner reads its own line; clean
    // sharing, no forward.
    w = step();
    EXPECT_EQ(llc.access(0, line, false, w), w + hit);
    w = step();
    EXPECT_EQ(llc.access(1, line, false, w), w + hit);
    EXPECT_EQ(llc.stats().dirtyForwards, 1u);

    // Writeback drops ownership: a later write by the other core
    // invalidates only the remaining sharer.
    llc.access(0, line, true, step()); // back to M(0), invals core 1
    EXPECT_EQ(llc.stats().invalidations, 3u);
    llc.writeback(0, line, step());
    w = step();
    EXPECT_EQ(llc.access(1, line, false, w), w + hit);
    EXPECT_EQ(llc.stats().dirtyForwards, 1u); // no owner, no forward
}

// ------------------------------------------- parallel kernels

MachineParams
smallParams()
{
    return MachineParams{};
}

TEST(ParallelKernels, SpmvMatchesGolden)
{
    Rng rng(11);
    Csr a = genUniform(96, 96, 0.06, rng);
    DenseVector x = randomVector(a.cols(), rng);
    DenseVector golden = a.multiply(x);
    for (unsigned cores : {2u, 3u}) {
        for (Partition part : {Partition::Static, Partition::Steal}) {
            for (const char *fmt : {"csr", "csb"}) {
                for (bool via : {false, true}) {
                    MultiMachine mm(smallParams(), cores);
                    auto res = kernels::spmvParallel(mm, a, x, fmt,
                                                     part, via);
                    EXPECT_TRUE(allClose(res.y, golden))
                        << fmt << " cores=" << cores
                        << " via=" << via;
                    EXPECT_GT(res.cycles, 0u);
                }
            }
        }
    }
}

TEST(ParallelKernels, SpmaMatchesGolden)
{
    Rng rng(12);
    Csr a = genUniform(64, 48, 0.08, rng);
    Csr b = genUniform(64, 48, 0.10, rng);
    Csr golden = addCsr(a, b);
    for (bool via : {false, true}) {
        MultiMachine mm(smallParams(), 2);
        auto res =
            kernels::spmaParallel(mm, a, b, Partition::Static, via);
        EXPECT_TRUE(closeElements(res.c, golden, 1e-3))
            << "via=" << via;
    }
}

TEST(ParallelKernels, SpmmMatchesGolden)
{
    Rng rng(13);
    Csr a = genUniform(40, 32, 0.12, rng);
    Csr b_csr = genUniform(32, 24, 0.15, rng);
    Csc b = Csc::fromCsr(b_csr);
    Csr golden = mulCsr(a, b_csr);
    for (bool via : {false, true}) {
        MultiMachine mm(smallParams(), 3);
        auto res =
            kernels::spmmParallel(mm, a, b, Partition::Steal, via);
        EXPECT_TRUE(closeElements(res.c, golden, 1e-2))
            << "via=" << via;
    }
}

TEST(ParallelKernels, HistogramMatchesGolden)
{
    Rng rng(14);
    Index buckets = 300;
    std::vector<Index> keys(2000);
    for (auto &k : keys)
        k = Index(rng.below(std::uint64_t(buckets)));
    std::vector<Value> golden = kernels::refHistogram(keys, buckets);
    for (bool via : {false, true}) {
        MultiMachine mm(smallParams(), 2);
        auto res = kernels::histParallel(mm, keys, buckets,
                                         Partition::Static, via);
        EXPECT_EQ(res.hist, golden) << "via=" << via;
    }
}

TEST(ParallelKernels, StencilMatchesGolden)
{
    Rng rng(15);
    DenseMatrix img(37, 37);
    for (auto &p : img.data())
        p = Value(rng.uniform() * 255.0);
    DenseMatrix golden = kernels::refConvolve4x4(img);
    for (bool via : {false, true}) {
        MultiMachine mm(smallParams(), 4);
        auto res = kernels::stencilParallel(mm, img,
                                            Partition::Steal, via);
        EXPECT_TRUE(allClose(res.out.data(), golden.data()))
            << "via=" << via;
    }
}

// At one core a parallel kernel is its serial kernel: prologue plus
// body over the whole range, on the same machine shape. Each pair
// must agree on cycles and on every result bit.
TEST(ParallelKernels, OneCoreMatchesSerialKernel)
{
    Rng rng(18);
    Csr a = genUniform(512, 512, 0.02, rng);
    DenseVector x = randomVector(a.cols(), rng);
    for (const char *fmt : {"csr", "csb"}) {
        for (bool via : {false, true}) {
            MultiMachine par(smallParams(), 1);
            auto p = kernels::spmvParallel(par, a, x, fmt,
                                           Partition::Static, via);
            MultiMachine ser(smallParams(), 1);
            auto s = via ? kernels::spmvVia(ser.core(0), a, x, fmt)
                         : kernels::spmvBaseline(ser.core(0), a, x,
                                                 fmt);
            EXPECT_EQ(p.cycles, s.cycles) << fmt << " via=" << via;
            EXPECT_EQ(p.y, s.y) << fmt << " via=" << via;
        }
    }

    DenseMatrix img(40, 40);
    for (auto &px : img.data())
        px = Value(rng.uniform() * 255.0);
    for (bool via : {false, true}) {
        MultiMachine par(smallParams(), 1);
        auto p = kernels::stencilParallel(par, img, Partition::Static,
                                          via);
        MultiMachine ser(smallParams(), 1);
        auto s = via ? kernels::stencilVia(ser.core(0), img)
                     : kernels::stencilVector(ser.core(0), img);
        EXPECT_EQ(p.cycles, s.cycles) << "stencil via=" << via;
        EXPECT_EQ(p.out.data(), s.out.data()) << "stencil via=" << via;
    }
}

TEST(ParallelKernels, MakespanIsDeterministic)
{
    Rng rng(16);
    Csr a = genUniform(80, 80, 0.07, rng);
    DenseVector x = randomVector(a.cols(), rng);
    for (Partition part : {Partition::Static, Partition::Steal}) {
        auto run = [&] {
            MultiMachine mm(smallParams(), 3);
            return kernels::spmvParallel(mm, a, x, "csr", part, true)
                .cycles;
        };
        Tick first = run();
        EXPECT_EQ(run(), first);
        EXPECT_GT(first, 0u);
    }
}

TEST(ParallelKernels, SkewStealBeatsStatic)
{
    // One pathologically dense row among near-empty ones: a static
    // row split strands the dense range on one core, while greedy
    // chunk assignment spreads the remaining chunks over the idle
    // cores. Steal's makespan must not be worse.
    Rng rng(17);
    Coo coo(256, 256);
    for (Index c = 0; c < 256; ++c)
        coo.add(0, c, Value(rng.uniform()));
    for (Index r = 1; r < 256; r += 4)
        coo.add(r, r, Value(rng.uniform()));
    Csr a = Csr::fromCoo(std::move(coo));
    DenseVector x = randomVector(a.cols(), rng);

    auto run = [&](Partition part) {
        MultiMachine mm(smallParams(), 4);
        return kernels::spmvParallel(mm, a, x, "csr", part, true)
            .cycles;
    };
    EXPECT_LE(run(Partition::Steal), run(Partition::Static));
}

} // namespace
} // namespace via
