/**
 * @file
 * Simulated-time observers: a TimingObserver sees every commit in
 * program order, and the core's commit front (the latest commit tick
 * since construction or restore) never falls back, not even across a
 * timing reset. via_sim's timeline= is built on both.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/machine.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

/** Records the commit tick of the first instruction reaching @p at. */
struct FirstCommitAt final : TimingObserver
{
    explicit FirstCommitAt(Tick at) : at(at) {}

    void
    onInstTiming(const Inst &, const InstTiming &timing) override
    {
        if (firedAt != 0)
            return;
        if (timing.commit >= at)
            firedAt = timing.commit;
        else
            before = timing.commit;
    }

    void onTimingReset() override {}

    Tick at;
    Tick before = 0;  //!< last commit short of @p at
    Tick firedAt = 0; //!< first commit at or past @p at
};

/** Samples retired instructions every @p window ticks of commit. */
struct WindowSampler final : TimingObserver
{
    WindowSampler(OoOCore &core, Tick window)
        : core(core), window(window), next(core.commitFront() + window)
    {
    }

    void
    onInstTiming(const Inst &, const InstTiming &timing) override
    {
        for (; next <= timing.commit; next += window) {
            ticks.push_back(next);
            instSamples.push_back(core.stats().insts);
        }
    }

    void onTimingReset() override {}

    OoOCore &core;
    Tick window;
    Tick next;
    std::vector<Tick> ticks;
    std::vector<std::uint64_t> instSamples;
};

TEST(EventsIntegration, CallbackFiresAtScheduledTick)
{
    Machine m{MachineParams{}};
    FirstCommitAt probe(50);
    m.core().addTimingObserver(&probe);
    // A dependent ALU chain advances the commit front one tick per
    // instruction, past tick 50.
    m.simm(SReg{0}, 0);
    for (int i = 0; i < 100; ++i)
        m.salu(SReg{0}, i, SReg{0});
    m.core().removeTimingObserver(&probe);
    EXPECT_LT(probe.before, 50u);
    EXPECT_EQ(probe.firedAt, 50u);
    EXPECT_GT(m.core().commitFront(), 50u);
}

TEST(EventsIntegration, PeriodicSamplerSeesMonotoneProgress)
{
    Machine m{MachineParams{}};
    WindowSampler sampler(m.core(), 200);
    m.core().addTimingObserver(&sampler);

    Rng rng(1);
    Csr a = genUniform(128, 128, 0.05, rng);
    DenseVector x = randomVector(a.cols(), rng);
    kernels::spmvVectorCsr(m, a, x);
    m.core().removeTimingObserver(&sampler);

    const auto &inst_samples = sampler.instSamples;
    ASSERT_GE(inst_samples.size(), 3u);
    for (std::size_t i = 1; i < inst_samples.size(); ++i) {
        EXPECT_GE(inst_samples[i], inst_samples[i - 1]);
        EXPECT_EQ(sampler.ticks[i], sampler.ticks[i - 1] + 200);
    }
    EXPECT_EQ(sampler.ticks.front(), 200u);
    EXPECT_LE(sampler.ticks.back(), m.core().commitFront());
    EXPECT_GT(sampler.next, m.core().commitFront());
    EXPECT_LE(inst_samples.back(), m.core().stats().insts);
}

TEST(EventsIntegration, CommitFrontSurvivesTimingReset)
{
    Machine m{MachineParams{}};
    EXPECT_EQ(m.core().commitFront(), 0u);
    m.simm(SReg{0}, 0);
    for (int i = 0; i < 100; ++i)
        m.salu(SReg{0}, i, SReg{0});
    const Tick front = m.core().commitFront();
    EXPECT_EQ(front, m.cycles());
    EXPECT_EQ(front, m.core().stats().commitTick);

    // A new timing epoch restarts commit near tick 0; the front
    // keeps the earlier maximum, and a sampler installed now starts
    // its windows from it.
    m.core().resetTiming();
    WindowSampler sampler(m.core(), 10);
    m.core().addTimingObserver(&sampler);
    for (int i = 0; i < 20; ++i)
        m.salu(SReg{0}, i, SReg{0});
    m.core().removeTimingObserver(&sampler);
    EXPECT_LT(m.core().stats().commitTick, front);
    EXPECT_EQ(m.core().commitFront(), front);
    EXPECT_TRUE(sampler.ticks.empty());
    EXPECT_EQ(sampler.next, front + 10);
}

} // namespace
} // namespace via
