/**
 * @file
 * via_db — interactive cycle-level debugger for the VIA simulator.
 *
 * Wraps one kernel run (the same kernels and inputs via_sim drives)
 * in a debug::DebugSession: set breakpoints on opcodes, watch
 * addresses / cache lines / CAM and SSPM pressure, step or run to a
 * cycle or instruction count, inspect ROB/LSQ/SSPM/CAM/cache state,
 * and save/load in-session checkpoints (rewind by deterministic
 * replay, byte-verified). See docs/debugger.md.
 *
 * Usage:
 *   via_db [key=value ...]            interactive (stdin commands)
 *   via_db script=session.dbg ...     scripted, deterministic output
 *
 * Keys:
 *   kernel=K        spmv|spma|spmm|histogram|stencil (default spmv)
 *   format=FMT      spmv format: csr|spc5|sell|csb   (default csb)
 *   mtx=/matrix=    Matrix Market input (else synthetic)
 *   rows=N density=D family=F seed=S  synthetic input (as via_sim)
 *   keys=N buckets=B px=N             histogram / stencil inputs
 *   script=PATH     read commands from PATH instead of stdin
 *   echo=0          suppress command echo in script mode
 *   cores=N         debug the parallel kernels on a MultiMachine
 *                   (backend=via only; checkpoints unsupported)
 *
 * The machine group (backend=, sspm_kb=, rob=, ...) matches every
 * other harness. The observer-based stop engine cannot perturb the
 * schedule, so a stopped-and-continued session prints a `final:`
 * line bit-identical to an uninterrupted run — CTest pins this.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "cpu/multi_machine.hh"
#include "debug/session.hh"
#include "kernels/dispatch.hh"
#include "kernels/parallel.hh"
#include "kernels/reference.hh"
#include "simcore/config.hh"
#include "simcore/log.hh"
#include "simcore/options.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/csc.hh"
#include "sparse/generators.hh"
#include "sparse/mm_io.hh"

using namespace via;

namespace
{

Options
dbOptions()
{
    Options opts("via_db",
                 "Interactive / scripted cycle-level debugger: run "
                 "one kernel under breakpoints, watchpoints, state "
                 "inspection and checkpoint rewind");
    opts.addString("kernel", "spmv",
                   "kernel to debug: "
                   "spmv|spma|spmm|histogram|stencil")
        .addString("script", "",
                   "command script (default: interactive stdin)")
        .addBool("echo", true, "echo script commands as they run")
        .addString("mtx", "",
                   "Matrix Market input (default: synthetic)")
        .addString("matrix", "", "alias for mtx=")
        .addUInt("rows", 512, "synthetic matrix dimension", 1)
        .addDoubleAbove("density", 0.01, "synthetic matrix density",
                        0.0, 1.0)
        .addString("family", "uniform",
                   "synthetic family: "
                   "banded|uniform|rmat|blocked|diag")
        .addUInt("seed", 1, "input generator seed")
        .addString("format", "csb",
                   "spmv sparse format: csr|spc5|sell|csb")
        .addUInt("keys", 16384, "histogram input size", 1)
        .addUInt("buckets", 1024, "histogram buckets", 1)
        .addUInt("px", 64, "stencil image side (4x4 filter)", 4);
    addMachineOptions(opts);
    addMultiCoreOptions(opts);
    return opts;
}

/** Synthetic-or-file matrix, mirroring via_sim's families. */
Csr
loadMatrix(const Config &cfg, Rng &rng)
{
    if (cfg.has("matrix"))
        return readMatrixMarket(cfg.getString("matrix", ""));
    if (cfg.has("mtx"))
        return readMatrixMarket(cfg.getString("mtx", ""));
    auto n = Index(cfg.getUInt("rows", 512));
    double density = cfg.getDouble("density", 0.01);
    std::string family = cfg.getString("family", "uniform");
    if (family == "banded")
        return genBanded(n, std::max<Index>(1, n / 32),
                         std::min(1.0, density * n / 16.0), rng);
    if (family == "rmat") {
        Index n2 = 1;
        while (2 * n2 <= n)
            n2 *= 2;
        return genRmat(n2,
                       std::size_t(density * double(n2) *
                                   double(n2)),
                       rng);
    }
    if (family == "blocked")
        return genBlocked(n, 16, std::sqrt(density),
                          std::min(0.8, 8 * std::sqrt(density)),
                          rng);
    if (family == "diag")
        return genDiagHeavy(n, std::max(1.0, density * n), rng);
    if (family != "uniform")
        via_fatal("unknown family '", family, "'");
    return genUniform(n, n, density, rng);
}

/**
 * Build the kernel closure: inputs and host goldens are computed
 * once here, so every rewind replay re-runs the identical work.
 */
debug::KernelFn
makeKernel(const std::string &kernel, const Config &cfg,
           unsigned cores, Rng &rng)
{
    const auto part = kernels::parsePartition(
        cfg.getString("partition", "static"));

    if (kernel == "spmv") {
        auto a = std::make_shared<Csr>(loadMatrix(cfg, rng));
        auto x = std::make_shared<DenseVector>(
            randomVector(a->cols(), rng));
        auto golden =
            std::make_shared<DenseVector>(a->multiply(*x));
        std::string fmt = cfg.getString("format", "csb");
        std::printf("target: spmv (%s), %dx%d, %zu nnz\n",
                    fmt.c_str(), a->rows(), a->cols(), a->nnz());
        return [a, x, golden, fmt, part,
                cores](debug::DebugTarget &t) {
            auto res = cores > 1
                           ? kernels::spmvParallel(*t.multi, *a, *x,
                                                   fmt, part, true)
                           : kernels::spmvAccel(*t.machine, *a, *x,
                                                fmt);
            return allClose(res.y, *golden);
        };
    }
    if (kernel == "spma") {
        auto a = std::make_shared<Csr>(loadMatrix(cfg, rng));
        auto b = std::make_shared<Csr>(loadMatrix(cfg, rng));
        auto golden = std::make_shared<Csr>(addCsr(*a, *b));
        std::printf("target: spma, %dx%d, %zu + %zu nnz\n",
                    a->rows(), a->cols(), a->nnz(), b->nnz());
        return [a, b, golden, part, cores](debug::DebugTarget &t) {
            auto res = cores > 1
                           ? kernels::spmaParallel(*t.multi, *a, *b,
                                                   part, true)
                           : kernels::spmaAccel(*t.machine, *a, *b);
            return closeElements(res.c, *golden, 1e-3);
        };
    }
    if (kernel == "spmm") {
        Config small = cfg;
        if (!cfg.has("rows") && !cfg.has("mtx") &&
            !cfg.has("matrix"))
            small.set("rows", "160");
        auto a = std::make_shared<Csr>(loadMatrix(small, rng));
        auto b_csr = std::make_shared<Csr>(loadMatrix(small, rng));
        auto b = std::make_shared<Csc>(Csc::fromCsr(*b_csr));
        auto golden = std::make_shared<Csr>(mulCsr(*a, *b_csr));
        std::printf("target: spmm, %dx%d (%zu nnz) * %dx%d "
                    "(%zu nnz)\n",
                    a->rows(), a->cols(), a->nnz(), b->rows(),
                    b->cols(), b->nnz());
        return [a, b, golden, part, cores](debug::DebugTarget &t) {
            auto res = cores > 1
                           ? kernels::spmmParallel(*t.multi, *a, *b,
                                                   part, true)
                           : kernels::spmmAccel(*t.machine, *a, *b);
            return closeElements(res.c, *golden, 1e-2);
        };
    }
    if (kernel == "histogram") {
        auto count = std::size_t(cfg.getUInt("keys", 16384));
        auto buckets = Index(cfg.getUInt("buckets", 1024));
        auto keys = std::make_shared<std::vector<Index>>(count);
        for (auto &k : *keys)
            k = Index(rng.below(std::uint64_t(buckets)));
        auto golden = std::make_shared<std::vector<Value>>(
            kernels::refHistogram(*keys, buckets));
        std::printf("target: histogram, %zu keys, %d buckets\n",
                    count, buckets);
        return [keys, buckets, golden, part,
                cores](debug::DebugTarget &t) {
            auto res =
                cores > 1
                    ? kernels::histParallel(*t.multi, *keys,
                                            buckets, part, true)
                    : kernels::histAccel(*t.machine, *keys,
                                         buckets);
            return res.hist == *golden;
        };
    }
    if (kernel == "stencil") {
        auto side = Index(cfg.getUInt("px", 64));
        auto img = std::make_shared<DenseMatrix>(side, side);
        for (auto &p : img->data())
            p = Value(rng.uniform() * 255.0);
        auto golden = std::make_shared<DenseMatrix>(
            kernels::refConvolve4x4(*img));
        std::printf("target: stencil, 4x4 Gaussian on %dx%d px\n",
                    side, side);
        return [img, golden, part, cores](debug::DebugTarget &t) {
            auto res =
                cores > 1
                    ? kernels::stencilParallel(*t.multi, *img, part,
                                               true)
                    : kernels::stencilAccel(*t.machine, *img);
            return allClose(res.out.data(), golden->data());
        };
    }
    via_fatal("unknown kernel '", kernel, "'");
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = dbOptions();
    opts.parse(argc, argv);
    const Config &cfg = opts.config();

    const std::string kernel = opts.getString("kernel");
    const auto cores = unsigned(cfg.getUInt("cores", 1));
    MachineParams params = machineParamsFrom(cfg);
    if (cores > 1 && params.backend.kind != BackendKind::Via)
        via_fatal("cores>1 runs the VIA parallel kernels; "
                  "backend=", backendName(params.backend.kind),
                  " is single-core only");

    // The VIA stencil stages four image rows in the SSPM at the least.
    if (kernel == "stencil" && params.backend.kind == BackendKind::Via) {
        auto side = Index(cfg.getUInt("px", 64));
        Index widest = kernels::stencilViaMaxWidth(params.via);
        if (side > widest) {
            std::fprintf(stderr,
                         "via_db: stencil px=%d is too wide for "
                         "sspm_kb=%llu: VIA stages four image rows "
                         "in the SSPM, so px must be at most %d\n",
                         side,
                         static_cast<unsigned long long>(
                             cfg.getUInt("sspm_kb", 16)),
                         widest);
            return 2;
        }
    }

    Rng rng(cfg.getUInt("seed", 1));
    debug::KernelFn kfn = makeKernel(kernel, cfg, cores, rng);

    debug::TargetFactory factory;
    if (cores > 1) {
        SharedLlcParams llcp =
            sharedLlcParamsFrom(cfg, params, cores);
        factory = [params, cores, llcp] {
            debug::DebugTarget t;
            t.multi = std::make_unique<MultiMachine>(params, cores,
                                                     llcp);
            return t;
        };
    } else {
        factory = [params] {
            debug::DebugTarget t;
            t.machine = std::make_unique<Machine>(params);
            return t;
        };
    }

    const std::string script = opts.getString("script");
    std::ifstream script_in;
    debug::SessionConfig scfg;
    if (!script.empty()) {
        script_in.open(script);
        if (!script_in)
            via_fatal("cannot open script '", script, "'");
        scfg.commands = &script_in;
        scfg.echo = cfg.getBool("echo", true);
        scfg.prompt = false;
    } else {
        scfg.commands = &std::cin;
        scfg.echo = false;
        scfg.prompt = true;
    }
    scfg.out = &std::cout;

    debug::DebugSession session(std::move(factory), std::move(kfn),
                                scfg);
    return session.run();
}
