/**
 * @file
 * Section VII-C — SpMM speedup of VIA over the scalar inner-product
 * baseline (Algorithm 3). Paper average: 6.00x.
 *
 * C = A * A^T: both operands share structure, which is the common
 * use in graph analytics (triangle counting, similarity).
 * The quadratic pair enumeration of the inner-product formulation
 * makes large matrices expensive to simulate (as the paper also
 * found, limiting its corpus to 20k rows); the default sizes here
 * are small and can be raised with max_rows=.
 *
 * Matrices run as independent points on a SweepExecutor
 * (threads=N); output is bit-identical at any thread count.
 *
 * The accelerated column runs the kernel of the machine's backend=
 * (VIA by default; docs/backends.md).
 *
 * Usage: fig11b_spmm [count=N] [seed=S] [max_rows=R] [backend=B]
 *                    [threads=T]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "kernels/dispatch.hh"
#include "kernels/spmm.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"
#include "sparse/csc.hh"
#include "sparse/structure_stats.hh"

using namespace via;

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "fig11b_spmm",
        "Figure 11.b: SpMM speedup of VIA over scalar CSR x CSC");
    addMachineOptions(opts);
    // The corpus's smallest dimension, and so max_rows's floor.
    constexpr Index MIN_ROWS = 96;
    opts.addUInt("count", 8, "corpus matrices", 1)
        .addUInt("max_rows", 320, "largest corpus dimension", MIN_ROWS)
        .addUInt("seed", 1, "corpus generator seed");
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    CorpusSpec spec;
    spec.count = opts.getUInt("count");
    spec.minRows = MIN_ROWS;
    spec.maxRows = Index(opts.getUInt("max_rows"));
    spec.seed = opts.getUInt("seed");
    auto corpus = buildCorpus(spec);

    MachineParams params = machineParamsFrom(opts.config());
    SweepExecutor exec = bench::makeExecutor(opts);

    // Decide fits-the-CAM up front so skips print in corpus order
    // and only fitting matrices become sweep points.
    std::vector<std::size_t> fits;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        if (corpus[i].matrix.maxRowNnz() >
            Index(params.via.camEntries()))
            std::printf("  %-28s skipped (row exceeds CAM)\n",
                        corpus[i].name.c_str());
        else
            fits.push_back(i);
    }

    auto speedup_of = exec.run(fits.size(), [&](std::size_t p) {
        const Csr &a = corpus[fits[p]].matrix;
        // B = A^T in CSC shares A's arrays structurally.
        Csc b = [&] {
            Coo coo = a.toCoo();
            Coo t(a.cols(), a.rows());
            for (const Triplet &e : coo.elems())
                t.add(e.col, e.row, e.value);
            return Csc::fromCoo(std::move(t));
        }();

        Machine m1(params), m2(params);
        auto scalar = kernels::spmmScalarInner(m1, a, b);
        auto viak = kernels::spmmAccel(m2, a, b);
        return double(scalar.cycles) / double(viak.cycles);
    });

    std::vector<double> nnzs, speedups;
    for (std::size_t p = 0; p < fits.size(); ++p) {
        const auto &entry = corpus[fits[p]];
        nnzs.push_back(double(entry.matrix.nnz()));
        speedups.push_back(speedup_of[p]);
        std::printf("  %-28s nnz %7.0f  speedup %5.2fx\n",
                    entry.name.c_str(), nnzs.back(),
                    speedup_of[p]);
    }

    if (speedups.empty()) {
        std::printf("no matrices fit the CAM; lower max_rows\n");
        return 1;
    }

    auto bucket = evenBuckets(nnzs, 4);
    std::printf("\n== SpMM: VIA speedup over scalar inner product, "
                "by nnz ==\n");
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
    rows.push_back({"paper avg", "6.00"});
    bench::printTable({"category", "speedup"}, rows);
    return 0;
}
