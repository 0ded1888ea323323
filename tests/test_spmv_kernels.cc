/**
 * @file
 * Functional correctness of every SpMV kernel variant against the
 * host golden implementation, plus first-order timing sanity.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

MachineParams
defaultParams()
{
    return MachineParams{};
}

struct SpmvCase
{
    const char *name;
    Csr matrix;
};

std::vector<SpmvCase>
smallCases()
{
    Rng rng(42);
    std::vector<SpmvCase> cases;
    cases.push_back({"banded", genBanded(64, 3, 0.6, rng)});
    cases.push_back({"uniform", genUniform(96, 96, 0.05, rng)});
    cases.push_back({"rmat", genRmat(128, 600, rng)});
    cases.push_back({"blocked", genBlocked(80, 8, 0.3, 0.5, rng)});
    cases.push_back({"diag", genDiagHeavy(72, 2.0, rng)});
    // Degenerate shapes.
    cases.push_back({"empty_rows", [] {
                         Coo coo(16, 16);
                         coo.add(3, 5, 1.5f);
                         coo.add(9, 0, -2.0f);
                         return Csr::fromCoo(std::move(coo));
                     }()});
    return cases;
}

using SpmvFn = kernels::SpmvResult (*)(Machine &, const Csr &,
                                       const DenseVector &);

void
checkCsrVariant(SpmvFn fn, const char *label)
{
    Rng rng(7);
    for (const auto &c : smallCases()) {
        Machine m(defaultParams());
        DenseVector x = randomVector(c.matrix.cols(), rng);
        auto res = fn(m, c.matrix, x);
        DenseVector golden = c.matrix.multiply(x);
        EXPECT_TRUE(allClose(res.y, golden))
            << label << " wrong on " << c.name;
        EXPECT_GT(res.cycles, 0u) << label << " ran in zero cycles";
    }
}

TEST(SpmvKernels, ScalarCsrMatchesGolden)
{
    checkCsrVariant(&kernels::spmvScalarCsr, "scalar-csr");
}

TEST(SpmvKernels, VectorCsrMatchesGolden)
{
    checkCsrVariant(&kernels::spmvVectorCsr, "vector-csr");
}

TEST(SpmvKernels, ViaCsrMatchesGolden)
{
    checkCsrVariant(&kernels::spmvViaCsr, "via-csr");
}

TEST(SpmvKernels, VectorSpc5MatchesGolden)
{
    Rng rng(8);
    for (const auto &c : smallCases()) {
        Machine m(defaultParams());
        Spc5 a = Spc5::fromCsr(c.matrix, Index(m.vl()));
        DenseVector x = randomVector(c.matrix.cols(), rng);
        auto res = kernels::spmvVectorSpc5(m, a, x);
        EXPECT_TRUE(allClose(res.y, c.matrix.multiply(x)))
            << "spc5 wrong on " << c.name;
    }
}

TEST(SpmvKernels, ViaSpc5MatchesGolden)
{
    Rng rng(9);
    for (const auto &c : smallCases()) {
        Machine m(defaultParams());
        Spc5 a = Spc5::fromCsr(c.matrix, Index(m.vl()));
        DenseVector x = randomVector(c.matrix.cols(), rng);
        auto res = kernels::spmvViaSpc5(m, a, x);
        EXPECT_TRUE(allClose(res.y, c.matrix.multiply(x)))
            << "via-spc5 wrong on " << c.name;
    }
}

TEST(SpmvKernels, VectorSellMatchesGolden)
{
    Rng rng(10);
    for (const auto &c : smallCases()) {
        Machine m(defaultParams());
        auto vl = Index(m.vl());
        SellCSigma a = SellCSigma::fromCsr(c.matrix, vl, 4 * vl);
        DenseVector x = randomVector(c.matrix.cols(), rng);
        auto res = kernels::spmvVectorSell(m, a, x);
        EXPECT_TRUE(allClose(res.y, c.matrix.multiply(x)))
            << "sell wrong on " << c.name;
    }
}

TEST(SpmvKernels, ViaSellMatchesGolden)
{
    Rng rng(11);
    for (const auto &c : smallCases()) {
        Machine m(defaultParams());
        auto vl = Index(m.vl());
        SellCSigma a = SellCSigma::fromCsr(c.matrix, vl, 4 * vl);
        DenseVector x = randomVector(c.matrix.cols(), rng);
        auto res = kernels::spmvViaSell(m, a, x);
        EXPECT_TRUE(allClose(res.y, c.matrix.multiply(x)))
            << "via-sell wrong on " << c.name;
    }
}

TEST(SpmvKernels, ScalarCsbMatchesGolden)
{
    Rng rng(14);
    for (const auto &c : smallCases()) {
        Machine m(defaultParams());
        Csb a = Csb::fromCsr(c.matrix, 32);
        DenseVector x = randomVector(c.matrix.cols(), rng);
        auto res = kernels::spmvScalarCsb(m, a, x);
        EXPECT_TRUE(allClose(res.y, c.matrix.multiply(x)))
            << "scalar-csb wrong on " << c.name;
    }
}

TEST(SpmvKernels, VectorCsbMatchesGolden)
{
    Rng rng(12);
    for (const auto &c : smallCases()) {
        Machine m(defaultParams());
        Csb a = Csb::fromCsr(c.matrix, 32);
        DenseVector x = randomVector(c.matrix.cols(), rng);
        auto res = kernels::spmvVectorCsb(m, a, x);
        EXPECT_TRUE(allClose(res.y, c.matrix.multiply(x)))
            << "csb wrong on " << c.name;
    }
}

TEST(SpmvKernels, ViaCsbMatchesGolden)
{
    Rng rng(13);
    for (const auto &c : smallCases()) {
        Machine m(defaultParams());
        Csb a = Csb::fromCsr(c.matrix,
                             std::min<Index>(kernels::viaCsbBeta(m),
                                             1024));
        DenseVector x = randomVector(c.matrix.cols(), rng);
        auto res = kernels::spmvViaCsb(m, a, x);
        EXPECT_TRUE(allClose(res.y, c.matrix.multiply(x)))
            << "via-csb wrong on " << c.name;
    }
}

TEST(SpmvKernels, ViaCsbBetaFillsHalfTheScratchpad)
{
    Machine m(defaultParams());
    EXPECT_EQ(kernels::viaCsbBeta(m),
              Index(m.sspm().config().sramEntries() / 2));
}

// Timing shape: on a mid-size matrix the VIA CSB kernel must beat
// the vectorized CSR baseline clearly (the paper reports ~4x).
TEST(SpmvKernels, ViaCsbFasterThanVectorCsr)
{
    Rng rng(99);
    Csr a = genUniform(512, 512, 0.02, rng);
    DenseVector x = randomVector(a.cols(), rng);

    Machine base(defaultParams());
    auto r_base = kernels::spmvVectorCsr(base, a, x);

    Machine viam(defaultParams());
    Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(viam));
    auto r_via = kernels::spmvViaCsb(viam, csb, x);

    EXPECT_LT(r_via.cycles, r_base.cycles)
        << "VIA CSB should outperform the gather-based baseline";
}

// ------------------------------------------------------------------
// Resident-matrix path (upload once, run per request)
// ------------------------------------------------------------------

// The one-shot dispatcher is exactly "upload + At", so a resident
// matrix's first run must emit the identical instruction stream:
// same result bits, same cycle count.
TEST(SpmvResident, FirstRunIsBitIdenticalToOneShot)
{
    Rng rng(21);
    Csr a = genUniform(96, 96, 0.05, rng);
    DenseVector x = randomVector(a.cols(), rng);

    for (const std::string &fmt : kernels::spmvFormats()) {
        for (bool via : {false, true}) {
            Machine one_shot(defaultParams());
            auto r1 = via
                ? kernels::spmvVia(one_shot, a, x, fmt)
                : kernels::spmvBaseline(one_shot, a, x, fmt);

            Machine warm(defaultParams());
            kernels::SpmvResident res(warm, a, fmt,
                                      via ? BackendKind::Via
                                          : BackendKind::Base);
            auto r2 = res.run(warm, x);

            EXPECT_EQ(r1.cycles, r2.cycles)
                << fmt << (via ? "/via" : "/base");
            ASSERT_EQ(r1.y.size(), r2.y.size());
            for (std::size_t i = 0; i < r1.y.size(); ++i)
                ASSERT_EQ(r1.y[i], r2.y[i])
                    << fmt << (via ? "/via" : "/base")
                    << " y[" << i << "]";
        }
    }
}

// Repeated runs against the resident matrix stay correct for fresh
// operands and get cheaper: the second run re-walks the matrix lines
// the first run already pulled into the caches. The VIA variants
// stage operands through the SSPM, so cache warmth matters less
// there (VIA CSB barely touches the caches at all); they only need
// to not regress.
TEST(SpmvResident, RepeatRunsAreCorrectAndWarm)
{
    Rng rng(22);
    Csr a = genUniform(256, 256, 0.03, rng);

    for (const std::string &fmt : kernels::spmvFormats()) {
        for (bool via : {false, true}) {
            Machine m(defaultParams());
            kernels::SpmvResident res(m, a, fmt,
                                      via ? BackendKind::Via
                                          : BackendKind::Base);

            DenseVector x1 = randomVector(a.cols(), rng);
            auto r1 = res.run(m, x1);
            EXPECT_TRUE(allClose(r1.y, a.multiply(x1))) << fmt;

            DenseVector x2 = randomVector(a.cols(), rng);
            auto r2 = res.run(m, x2);
            EXPECT_TRUE(allClose(r2.y, a.multiply(x2))) << fmt;

            Tick cold = r1.cycles;
            Tick hot = r2.cycles - r1.cycles;
            if (via) {
                EXPECT_LE(hot, cold + cold / 50)
                    << fmt << "/via: warm run regressed";
            } else {
                EXPECT_LT(hot, cold)
                    << fmt << "/base: warm run not cheaper";
            }
        }
    }
}

} // namespace
} // namespace via
