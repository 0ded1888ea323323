/**
 * @file
 * Figure 11 — SpMA speedup of VIA over the scalar sorted-merge
 * baseline, with matrices sorted by nnz and split into four
 * categories. Paper average: 6.14x.
 *
 * C = A + B where B is a structural sibling of A (60% shared
 * positions, 40% fresh ones), matching how matrices of the same
 * discretization are combined in applications.
 *
 * Matrices run as independent points on a SweepExecutor
 * (threads=N); the sibling of each matrix is drawn from a
 * per-point seed, so output is bit-identical at any thread count.
 *
 * The accelerated column runs the kernel of the machine's backend=
 * (VIA by default; docs/backends.md).
 *
 * Usage: fig11_spma [count=N] [seed=S] [max_rows=R] [backend=B]
 *                   [threads=T]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "kernels/dispatch.hh"
#include "kernels/spma.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"
#include "sparse/csr.hh"
#include "sparse/structure_stats.hh"

using namespace via;


int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "fig11_spma",
        "Figure 11: SpMA speedup of VIA over the scalar merge");
    addMachineOptions(opts);
    opts.addUInt("count", 16, "corpus matrices", 1)
        .addUInt("max_rows", 4096, "largest corpus dimension",
                 CorpusSpec{}.minRows)
        .addUInt("seed", 1, "corpus generator seed")
        .addUInt("sibling_seed", 77, "sibling-matrix seed");
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    CorpusSpec spec;
    spec.count = opts.getUInt("count");
    spec.maxRows = Index(opts.getUInt("max_rows"));
    spec.seed = opts.getUInt("seed");
    auto corpus = buildCorpus(spec);

    MachineParams params = machineParamsFrom(opts.config());
    SweepExecutor exec = bench::makeExecutor(opts);
    std::uint64_t sib_seed = opts.getUInt("sibling_seed");

    struct PerMatrix
    {
        double nnz = 0.0;
        double speedup = 0.0;
    };
    auto results = exec.run(corpus.size(), [&](std::size_t i) {
        const Csr &a = corpus[i].matrix;
        Rng rng(SweepExecutor::pointSeed(sib_seed, i));
        Csr b = bench::makeSibling(a, rng);

        Machine m1(params), m2(params);
        auto scalar = kernels::spmaScalarCsr(m1, a, b);
        auto viak = kernels::spmaAccel(m2, a, b);
        return PerMatrix{double(a.nnz() + b.nnz()),
                         double(scalar.cycles) /
                             double(viak.cycles)};
    });

    std::vector<double> nnzs, speedups;
    for (std::size_t i = 0; i < results.size(); ++i) {
        nnzs.push_back(results[i].nnz);
        speedups.push_back(results[i].speedup);
        std::printf("  %-28s nnz %8.0f  speedup %5.2fx\n",
                    corpus[i].name.c_str(), results[i].nnz,
                    results[i].speedup);
    }

    auto bucket = evenBuckets(nnzs, 4);
    std::printf("\n== Figure 11: VIA-SpMA speedup over scalar merge,"
                " by nnz ==\n");
    std::vector<std::vector<std::string>> rows;
    for (std::size_t cat = 0; cat < 4; ++cat) {
        std::vector<double> key, sp;
        for (std::size_t i = 0; i < speedups.size(); ++i) {
            if (bucket[i] == cat) {
                key.push_back(nnzs[i]);
                sp.push_back(speedups[i]);
            }
        }
        if (sp.empty())
            continue;
        std::sort(key.begin(), key.end());
        rows.push_back({"cat" + std::to_string(cat + 1) + " (nnz~" +
                            bench::fmt(key[key.size() / 2], 0) + ")",
                        bench::fmt(bench::geomean(sp))});
    }
    rows.push_back({"average", bench::fmt(bench::geomean(speedups))});
    rows.push_back({"paper avg", "6.14"});
    bench::printTable({"category", "speedup"}, rows);
    return 0;
}
