/**
 * @file
 * Figure 10 — SpMV speedup of the VIA kernels over the software
 * implementations of the same format, bucketed by CSB block density.
 *
 * Paper result: CSB 4.22x average; CSR 1.25x; SPC5 1.24x;
 * Sell-C-sigma 1.31x. Matrices are sorted by non-zeros per CSB block
 * and split evenly into four categories; the x-axis label is the
 * median nnz/block of each category.
 *
 * Matrices are independent simulation points: each runs on its own
 * worker thread (threads=N, default hardware concurrency) with a
 * per-matrix RNG seed, and rows print in submission order, so the
 * output is bit-identical at any thread count.
 *
 * Usage: fig10_spmv [count=N] [seed=S] [max_rows=R] [sspm_kb=K]
 *                   [ports=P] [corpus_dir=PATH] [threads=T]
 *                   [mode=detailed|sampled] [sample_interval=N]
 *                   [sample_warmup=N] [sample_measure=N]
 *                   [trace=PATH] [trace_format=perfetto|konata]
 *                   [trace_limit=N] [trace_summary=1]
 *                   [cores=N] [partition=static|steal] [llc_banks=B]
 *
 * With cores>1 the CSR and CSB columns compare the parallel kernel
 * variants on the multi-core machine (docs/multicore.md); SPC5 and
 * Sell-C-sigma are inherently sequential over their block/chunk
 * streams and keep their single-core numbers. cores>1 requires
 * mode=detailed. cores=1 (the default) is the unchanged,
 * bit-identical single-core path.
 *
 * mode=sampled replaces every kernel's detailed cycle count with
 * the interval-sampling extrapolation (docs/sampling.md), making
 * corpora with far larger matrices (max_rows in the hundreds of
 * thousands) tractable at a bounded cycle error.
 *
 * With trace=PATH, the VIA CSB run of every matrix writes its own
 * event trace, suffixed with the matrix name before the extension
 * (e.g. trace=fig10.json -> fig10_uniform_03.json).
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "cpu/multi_machine.hh"
#include "kernels/backend_kernels.hh"
#include "kernels/parallel.hh"
#include "kernels/runner.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"
#include "sparse/structure_stats.hh"

using namespace via;

namespace
{

struct PerMatrix
{
    double nnzPerBlock = 0.0;
    double spCsr = 0.0;  //!< VIA speedup over software, per format
    double spSpc5 = 0.0;
    double spSell = 0.0;
    double spCsb = 0.0;       //!< vs the vectorized CSB kernel
    double spCsbScalar = 0.0; //!< vs the scalar CSB reference
    std::string line;         //!< per-matrix report, printed in order
};

MachineParams
makeParams(const Config &cfg)
{
    return machineParamsFrom(cfg);
}

/**
 * The accelerated column's kernel per format, selected by backend=.
 * backend=via (the default) runs the historical VIA kernels, so the
 * default output is unchanged; backend=base degenerates to software
 * vs software (every speedup 1.0 by construction).
 */
struct AccelKernels
{
    kernels::SpmvResult (*csr)(Machine &, const Csr &,
                               const DenseVector &);
    kernels::SpmvResult (*spc5)(Machine &, const Spc5 &,
                                const DenseVector &);
    kernels::SpmvResult (*sell)(Machine &, const SellCSigma &,
                                const DenseVector &);
    kernels::SpmvResult (*csb)(Machine &, const Csb &,
                               const DenseVector &);
};

AccelKernels
accelKernels(BackendKind kind)
{
    using namespace kernels;
    switch (kind) {
      case BackendKind::Base:
        return {spmvVectorCsr, spmvVectorSpc5, spmvVectorSell,
                spmvVectorCsb};
      case BackendKind::Via:
        return {spmvViaCsr, spmvViaSpc5, spmvViaSell, spmvViaCsb};
      case BackendKind::Ssr:
        return {spmvSsrCsr, spmvSsrSpc5, spmvSsrSell, spmvSsrCsb};
      case BackendKind::IndexMac:
        return {spmvImacCsr, spmvImacSpc5, spmvImacSell,
                spmvImacCsb};
    }
    via_fatal("unhandled backend kind");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "fig10_spmv",
        "Figure 10: SpMV speedup of VIA over software formats");
    addMachineOptions(opts);
    addMultiCoreOptions(opts);
    sample::addSampleOptions(opts);
    addTraceOptions(opts);
    opts.addString("corpus_dir", "",
                   "load MatrixMarket corpus from this directory "
                   "instead of generating one")
        .addUInt("count", 24, "generated corpus matrices", 1)
        .addUInt("max_rows", 4096, "largest corpus dimension",
                 CorpusSpec{}.minRows)
        .addUInt("seed", 1, "corpus generator seed")
        .addUInt("vec_seed", 1234, "dense-vector seed");
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    MachineParams params = makeParams(opts.config());

    std::vector<CorpusEntry> corpus;
    if (opts.given("corpus_dir")) {
        corpus = loadCorpusDir(opts.getString("corpus_dir"));
    } else {
        CorpusSpec spec;
        spec.count = opts.getUInt("count");
        spec.maxRows = Index(opts.getUInt("max_rows"));
        spec.seed = opts.getUInt("seed");
        corpus = buildCorpus(spec);
    }

    SweepExecutor exec = bench::makeExecutor(opts);
    std::uint64_t vec_seed = opts.getUInt("vec_seed");
    TraceOptions topts = bench::traceOptions(opts);
    sample::SampleOptions sopts = bench::sampleOptions(opts);

    auto cores = unsigned(opts.getUInt("cores"));
    auto part =
        kernels::parsePartition(opts.getString("partition"));
    if (cores > 1 && sopts.mode != sample::SimMode::Detailed)
        via_fatal("cores>1 supports mode=detailed only");
    if (cores > 1 && params.backend.kind != BackendKind::Via)
        via_fatal("cores>1 runs the VIA parallel kernels; backend=",
                  backendName(params.backend.kind),
                  " is single-core only");
    AccelKernels accel = accelKernels(params.backend.kind);
    SharedLlcParams llcp =
        sharedLlcParamsFrom(opts.config(), params, cores);

    auto results = exec.run(corpus.size(), [&](std::size_t i) {
        const auto &entry = corpus[i];
        const Csr &a = entry.matrix;
        Rng rng(SweepExecutor::pointSeed(vec_seed, i));
        DenseVector x = randomVector(a.cols(), rng);
        PerMatrix pm;

        // Under mode=sampled the estimate replaces the detailed
        // makespan; in detailed mode runWith returns it exactly.
        auto run = [&](auto &&kernel, auto &&fmt) {
            Machine m(params);
            auto est = sample::runWith(m, sopts,
                                       [&] { kernel(m, fmt, x); });
            return est.cycles;
        };

        Index beta = [&] {
            Machine probe(params);
            return kernels::viaCsbBeta(probe);
        }();
        Csb csb = Csb::fromCsr(a, beta);
        auto vl = Index(lanesFor(params.valueType));
        Spc5 spc5 = Spc5::fromCsr(a, vl);
        SellCSigma sell = SellCSigma::fromCsr(a, vl, 4 * vl);

        // cores>1: the csr/csb columns compare the parallel kernel
        // variants on the multi-core machine; each run gets a fresh
        // machine set, and the makespan is the slowest core.
        auto run_par = [&](const std::string &fmt, bool via) {
            MultiMachine mm(params, cores, llcp);
            return double(kernels::spmvParallel(mm, a, x, fmt, part,
                                                via)
                              .cycles);
        };

        pm.nnzPerBlock = csb.meanNnzPerNonEmptyBlock();
        pm.spCsr = cores == 1
                       ? run(kernels::spmvVectorCsr, a) /
                             run(accel.csr, a)
                       : run_par("csr", false) / run_par("csr", true);
        pm.spSpc5 = run(kernels::spmvVectorSpc5, spc5) /
                    run(accel.spc5, spc5);
        pm.spSell = run(kernels::spmvVectorSell, sell) /
                    run(accel.sell, sell);
        // The headline kernel (the backend's CSB) is the traced one.
        double via_csb = [&] {
            Machine m(params);
            enableTracing(m, topts);
            m.tracePhase("spmv_csb");
            auto est = sample::runWith(
                m, sopts, [&] { accel.csb(m, csb, x); });
            finishTracing(m, topts, "_" + entry.name);
            return est.cycles;
        }();
        pm.spCsb = cores == 1
                       ? run(kernels::spmvVectorCsb, csb) / via_csb
                       : run_par("csb", false) / run_par("csb", true);
        // The vs-scalar reference column stays single-core: there is
        // no parallel scalar-CSB kernel to compare against.
        pm.spCsbScalar =
            run(kernels::spmvScalarCsb, csb) / via_csb;

        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "  %-28s nnz/blk %8.1f  csr %5.2fx  spc5 "
                      "%5.2fx  sell %5.2fx  csb %5.2fx (%5.2fx vs "
                      "scalar)",
                      entry.name.c_str(), pm.nnzPerBlock, pm.spCsr,
                      pm.spSpc5, pm.spSell, pm.spCsb,
                      pm.spCsbScalar);
        pm.line = buf;
        return pm;
    });
    for (const PerMatrix &pm : results)
        std::printf("%s\n", pm.line.c_str());

    // Bucket by block density as the paper does.
    std::vector<double> keys;
    for (const auto &r : results)
        keys.push_back(r.nnzPerBlock);
    auto bucket = evenBuckets(keys, 4);

    std::printf("\n== Figure 10: VIA-SpMV speedup over software, by "
                "CSB block density ==\n");
    std::vector<std::vector<std::string>> rows;
    std::vector<double> all_csr, all_spc5, all_sell, all_csb,
        all_csb_s;
    for (std::size_t cat = 0; cat < 4; ++cat) {
        std::vector<double> med_key, csr, spc5, sell, csb, csb_s;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (bucket[i] != cat)
                continue;
            med_key.push_back(results[i].nnzPerBlock);
            csr.push_back(results[i].spCsr);
            spc5.push_back(results[i].spSpc5);
            sell.push_back(results[i].spSell);
            csb.push_back(results[i].spCsb);
            csb_s.push_back(results[i].spCsbScalar);
        }
        if (csr.empty())
            continue;
        all_csr.insert(all_csr.end(), csr.begin(), csr.end());
        all_spc5.insert(all_spc5.end(), spc5.begin(), spc5.end());
        all_sell.insert(all_sell.end(), sell.begin(), sell.end());
        all_csb.insert(all_csb.end(), csb.begin(), csb.end());
        all_csb_s.insert(all_csb_s.end(), csb_s.begin(),
                         csb_s.end());
        std::sort(med_key.begin(), med_key.end());
        rows.push_back({"cat" + std::to_string(cat + 1) +
                            " (nnz/blk~" +
                            bench::fmt(med_key[med_key.size() / 2],
                                       0) + ")",
                        bench::fmt(bench::geomean(csr)),
                        bench::fmt(bench::geomean(spc5)),
                        bench::fmt(bench::geomean(sell)),
                        bench::fmt(bench::geomean(csb)),
                        bench::fmt(bench::geomean(csb_s))});
    }
    rows.push_back({"average", bench::fmt(bench::geomean(all_csr)),
                    bench::fmt(bench::geomean(all_spc5)),
                    bench::fmt(bench::geomean(all_sell)),
                    bench::fmt(bench::geomean(all_csb)),
                    bench::fmt(bench::geomean(all_csb_s))});
    rows.push_back({"paper avg", "1.25", "1.24", "1.31", "4.22",
                    "-"});
    bench::printTable({"category", "CSR", "SPC5", "Sell-C-s",
                       "CSB/vec", "CSB/scalar"},
                      rows);
    return 0;
}
