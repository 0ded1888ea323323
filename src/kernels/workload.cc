#include "kernels/workload.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>

#include "kernels/dispatch.hh"
#include "kernels/reference.hh"
#include "sparse/convert.hh"
#include "sparse/generators.hh"
#include "sparse/mm_io.hh"

namespace via::kernels
{

namespace
{

std::string
strf(const char *fmt, ...)
{
    char buf[256];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

/** A flag only some tools register (stream=, inject_error=). */
bool
flag(const Options &opts, const char *key)
{
    return opts.knows(key) && opts.getBool(key);
}

bool
synthetic(const Options &opts)
{
    return !opts.given("mtx") && !opts.given("matrix");
}

/** A synthetic matrix family: an n-row matrix at a density. */
struct Family
{
    const char *name;
    bool streams; //!< has a draw-order-identical CSR-direct generator
    Csr (*gen)(Index n, double density, bool stream, Rng &rng);
};

const Family kFamilies[] = {
    {"banded", true,
     [](Index n, double d, bool stream, Rng &rng) {
         const auto bw = std::max<Index>(1, n / 32);
         const double fill = std::min(1.0, d * n / 16.0);
         return stream ? genBandedCsr(n, bw, fill, rng)
                       : genBanded(n, bw, fill, rng);
     }},
    {"uniform", false,
     [](Index n, double d, bool, Rng &rng) {
         return genUniform(n, n, d, rng);
     }},
    {"rmat", true,
     [](Index n, double d, bool stream, Rng &rng) {
         // RMAT works on the largest power-of-two side <= n.
         Index n2 = 1;
         while (2 * n2 <= n)
             n2 *= 2;
         const auto target = std::size_t(d * double(n2) * double(n2));
         return stream ? genRmatCsr(n2, target, rng)
                       : genRmat(n2, target, rng);
     }},
    {"blocked", false,
     [](Index n, double d, bool, Rng &rng) {
         return genBlocked(n, 16, std::sqrt(d),
                           std::min(0.8, 8 * std::sqrt(d)), rng);
     }},
    {"diag", false,
     [](Index n, double d, bool, Rng &rng) {
         return genDiagHeavy(n, std::max(1.0, d * n), rng);
     }},
};

const Family *
findFamily(const std::string &name)
{
    for (const Family &f : kFamilies)
        if (name == f.name)
            return &f;
    return nullptr;
}

/** The Matrix Market file, or the synthetic family at @p rows. */
Csr
loadMatrix(const Options &opts, Index rows, Rng &rng)
{
    const bool stream = flag(opts, "stream");
    if (!synthetic(opts)) {
        const std::string path =
            opts.getString(opts.given("matrix") ? "matrix" : "mtx");
        return stream ? readMatrixMarketStreaming(path)
                      : readMatrixMarket(path);
    }
    return findFamily(opts.getString("family"))
        ->gen(rows, opts.getDouble("density"), stream, rng);
}

Index
matrixRows(const Options &opts)
{
    return Index(opts.getUInt("rows"));
}

template <typename Result, typename Golden>
RunOutcome
outcome(const Result &res, const Golden &golden)
{
    return RunOutcome{res.cycles, matchesGolden(res, golden)};
}

std::string
checkSpmvKeys(const Options &opts, unsigned cores)
{
    const std::string fmt = opts.getString("format");
    if (!isSpmvFormat(fmt))
        return "unknown SpMV format '" + fmt + "'";
    // spc5 and sell are sequential over their block/chunk streams.
    if (cores > 1 && fmt != "csr" && fmt != "csb")
        return "format=" + fmt + " is single-core; cores>1 runs csr "
               "or csb";
    return "";
}

WorkloadInput
buildSpmv(const Options &opts, Rng &rng)
{
    auto a = std::make_shared<const Csr>(
        loadMatrix(opts, matrixRows(opts), rng));
    auto x = std::make_shared<const DenseVector>(
        randomVector(a->cols(), rng));
    auto golden = std::make_shared<const DenseVector>(a->multiply(*x));
    const std::string fmt = opts.getString("format");

    WorkloadInput in;
    in.shape = strf("%dx%d, %zu nnz", a->rows(), a->cols(), a->nnz());
    in.format = fmt;
    // The single-core baseline is vector CSR whatever format= says.
    in.baselines = {{"vector CSR", [a, x](Machine &m) {
                         return spmvVectorCsr(m, *a, *x).cycles;
                     }}};
    in.accel = [a, x, golden, fmt](Machine &m) {
        return outcome(spmvAccel(m, *a, *x, fmt), *golden);
    };
    in.parallel = [a, x, golden, fmt](MultiMachine &mm, Partition p,
                                      bool via) {
        return outcome(spmvParallel(mm, *a, *x, fmt, p, via), *golden);
    };
    return in;
}

WorkloadInput
buildSpma(const Options &opts, Rng &rng)
{
    auto a = std::make_shared<const Csr>(
        loadMatrix(opts, matrixRows(opts), rng));
    auto b = std::make_shared<const Csr>(
        loadMatrix(opts, matrixRows(opts), rng));
    auto golden = std::make_shared<const Csr>(addCsr(*a, *b));

    WorkloadInput in;
    in.shape = strf("%dx%d, %zu + %zu nnz", a->rows(), a->cols(),
                    a->nnz(), b->nnz());
    in.baselines = {{"scalar merge", [a, b](Machine &m) {
                         return spmaScalarCsr(m, *a, *b).cycles;
                     }}};
    in.accel = [a, b, golden](Machine &m) {
        return outcome(spmaAccel(m, *a, *b), *golden);
    };
    in.parallel = [a, b, golden](MultiMachine &mm, Partition p,
                                 bool via) {
        return outcome(spmaParallel(mm, *a, *b, p, via), *golden);
    };
    return in;
}

WorkloadInput
buildSpmm(const Options &opts, Rng &rng)
{
    // C = A * B is quadratic in the side: synthetic inputs default
    // to 160 rows rather than the tools' 512.
    const Index rows = opts.given("rows") ? matrixRows(opts) : 160;
    auto a = std::make_shared<const Csr>(loadMatrix(opts, rows, rng));
    Csr b_csr = loadMatrix(opts, rows, rng);
    auto golden = std::make_shared<const Csr>(mulCsr(*a, b_csr));
    auto b = std::make_shared<const Csc>(Csc::fromCsr(b_csr));

    WorkloadInput in;
    in.shape = strf("%dx%d (%zu nnz) * %dx%d (%zu nnz)", a->rows(),
                    a->cols(), a->nnz(), b->rows(), b->cols(),
                    b->nnz());
    in.baselines = {{"scalar inner", [a, b](Machine &m) {
                         return spmmScalarInner(m, *a, *b).cycles;
                     }}};
    in.accel = [a, b, golden](Machine &m) {
        return outcome(spmmAccel(m, *a, *b), *golden);
    };
    in.parallel = [a, b, golden](MultiMachine &mm, Partition p,
                                 bool via) {
        return outcome(spmmParallel(mm, *a, *b, p, via), *golden);
    };
    in.fit = [a](const MachineParams &params) -> std::optional<Misfit> {
        if (spmmFitsCam(*a, params))
            return std::nullopt;
        return Misfit{
            strf("spmm: a row of A holds %d nonzeros but the "
                 "sspm_kb=%llu CAM holds %llu: the VIA kernel loads "
                 "whole rows into the CAM",
                 a->maxRowNnz(),
                 static_cast<unsigned long long>(
                     params.via.sspmBytes / 1024),
                 static_cast<unsigned long long>(
                     params.via.camEntries())),
            "exceeds CAM"};
    };
    return in;
}

WorkloadInput
buildHistogram(const Options &opts, Rng &rng)
{
    const auto count = std::size_t(opts.getUInt("keys"));
    const auto buckets = Index(opts.getUInt("buckets"));
    std::vector<Index> drawn(count);
    for (auto &k : drawn)
        k = Index(rng.below(std::uint64_t(buckets)));
    auto keys =
        std::make_shared<const std::vector<Index>>(std::move(drawn));
    auto golden = std::make_shared<const std::vector<Value>>(
        refHistogram(*keys, buckets));

    WorkloadInput in;
    in.shape = strf("%zu keys, %d buckets", count, buckets);
    in.baselines = {{"scalar",
                     [keys, buckets](Machine &m) {
                         return histScalar(m, *keys, buckets).cycles;
                     }},
                    {"vector CD", [keys, buckets](Machine &m) {
                         return histVector(m, *keys, buckets).cycles;
                     }}};
    in.accel = [keys, buckets, golden](Machine &m) {
        return outcome(histAccel(m, *keys, buckets), *golden);
    };
    in.parallel = [keys, buckets, golden](MultiMachine &mm,
                                          Partition p, bool via) {
        return outcome(histParallel(mm, *keys, buckets, p, via),
                       *golden);
    };
    return in;
}

WorkloadInput
buildStencil(const Options &opts, Rng &rng)
{
    const auto side = Index(opts.getUInt("px"));
    DenseMatrix drawn(side, side);
    for (auto &p : drawn.data())
        p = Value(rng.uniform() * 255.0);
    auto img = std::make_shared<const DenseMatrix>(std::move(drawn));
    auto golden =
        std::make_shared<const DenseMatrix>(refConvolve4x4(*img));
    // inject_error=1 perturbs the accelerated result before the
    // check, exercising the mismatch exit path.
    const bool inject = flag(opts, "inject_error");
    auto checked = [golden, inject](StencilResult res) {
        if (inject)
            res.out.at(0, 0) += Value(1.0);
        return outcome(res, *golden);
    };

    WorkloadInput in;
    in.shape = strf("4x4 Gaussian on %dx%d px", side, side);
    in.baselines = {{"vector", [img](Machine &m) {
                         return stencilVector(m, *img).cycles;
                     }}};
    in.accel = [img, checked](Machine &m) {
        return checked(stencilAccel(m, *img));
    };
    in.parallel = [img, checked](MultiMachine &mm, Partition p,
                                 bool via) {
        return checked(stencilParallel(mm, *img, p, via));
    };
    // The VIA stencil stages four image rows in the SSPM at the least.
    in.fit = [side](const MachineParams &params)
        -> std::optional<Misfit> {
        if (params.backend.kind != BackendKind::Via)
            return std::nullopt;
        const Index widest = stencilViaMaxWidth(params.via);
        if (side <= widest)
            return std::nullopt;
        return Misfit{
            strf("stencil px=%d is too wide for sspm_kb=%llu: VIA "
                 "stages four image rows in the SSPM, so px must be "
                 "at most %d",
                 side,
                 static_cast<unsigned long long>(
                     params.via.sspmBytes / 1024),
                 widest),
            ""};
    };
    return in;
}

} // namespace

std::string
WorkloadInput::label(const char *base, char sep) const
{
    return format.empty() ? base : base + std::string(1, sep) + format;
}

std::string
WorkloadInput::tag() const
{
    return format.empty() ? "" : " (" + format + ")";
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"spmv", "SpMV", {"vector", "VIA", "SSR", "IndexMAC"},
         {"vector", "VIA"}, true, buildSpmv, checkSpmvKeys},
        {"spma", "SpMA",
         {"scalar merge", "VIA CAM", "SSR merge", "IndexMAC merge"},
         {"scalar merge", "VIA CAM"}, false, buildSpma, nullptr},
        {"spmm", "SpMM",
         {"scalar inner", "VIA CAM", "SSR inner", "IndexMAC rows"},
         {"scalar inner", "VIA CAM"}, false, buildSpmm, nullptr},
        {"histogram", "histogram", {"vector", "VIA", "SSR", "IndexMAC"},
         {"vector CD", "VIA"}, false, buildHistogram, nullptr},
        {"stencil", "stencil", {"vector", "VIA", "SSR", "IndexMAC"},
         {"vector", "VIA"}, false, buildStencil, nullptr},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

std::string
checkWorkloadKeys(const Workload &w, const Options &opts,
                  const MachineParams &params, unsigned cores)
{
    if (synthetic(opts)) {
        const std::string family = opts.getString("family");
        const Family *f = findFamily(family);
        if (!f)
            return "unknown family '" + family + "'";
        if (flag(opts, "stream") && !f->streams)
            return "stream=1 needs family=banded|rmat or mtx= (got "
                   "family=" + family + ")";
    }
    const std::string part = opts.getString("partition");
    if (part != partitionName(Partition::Static) &&
        part != partitionName(Partition::Steal))
        return "unknown partition '" + part + "' (static|steal)";
    if (cores > 1 && params.backend.kind != BackendKind::Via)
        return "cores>1 runs the VIA parallel kernels; backend=" +
               std::string(backendName(params.backend.kind)) +
               " is single-core only";
    return w.checkKeys ? w.checkKeys(opts, cores) : "";
}

bool
matchesGolden(const SpmvResult &res, const DenseVector &golden)
{
    return allClose(res.y, golden);
}

bool
matchesGolden(const SpmaResult &res, const Csr &golden)
{
    return closeElements(res.c, golden, 1e-3);
}

bool
matchesGolden(const SpmmResult &res, const Csr &golden)
{
    return closeElements(res.c, golden, 1e-2);
}

bool
matchesGolden(const HistResult &res, const std::vector<Value> &golden)
{
    return res.hist == golden;
}

bool
matchesGolden(const StencilResult &res, const DenseMatrix &golden)
{
    return allClose(res.out.data(), golden.data());
}

bool
spmmFitsCam(const Csr &a, const MachineParams &params)
{
    return params.backend.kind != BackendKind::Via ||
           a.maxRowNnz() <= Index(params.via.camEntries());
}

} // namespace via::kernels
