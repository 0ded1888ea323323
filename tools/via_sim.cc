/**
 * @file
 * via_sim — command-line driver for the VIA simulator.
 *
 * Runs one kernel on one matrix (synthetic or a Matrix Market file)
 * on a configured machine, with and without VIA, and dumps the
 * statistics. This is the "try it on your own matrix" entry point.
 * With sweep=1 the same kernel and input instead run across a grid
 * of SSPM configurations in parallel (see below).
 *
 * Usage:
 *   via_sim <kernel> [key=value ...]
 *   via_sim kernel=<kernel> [key=value ...]
 *
 * Kernels: spmv | spma | spmm | histogram | stencil
 *
 * Keys are registered with the shared Options registry
 * (simcore/options.hh): help=1 / --help prints the generated key
 * table, and an unknown key is an error (exit 2) printing the valid
 * set, so a typo like treads=4 cannot silently run a default
 * configuration.
 *
 * Common keys:
 *   mtx=PATH        load a Matrix Market file (else synthetic)
 *   matrix=PATH     alias for mtx= (real-world workload entry)
 *   rows=N          synthetic matrix size         (default 512)
 *   density=D       synthetic matrix density      (default 0.01)
 *   family=F        banded|uniform|rmat|blocked|diag (default uniform)
 *   seed=S          generator seed                (default 1)
 *   sspm_kb=K       SSPM size in KB               (default 16)
 *   ports=P         SSPM ports                    (default 2)
 *   format=FMT      spmv only: csr|spc5|sell|csb  (default csb)
 *   keys=N          histogram input size          (default 16384)
 *   buckets=B       histogram buckets             (default 1024)
 *   px=N            stencil image side            (default 256)
 *   stats=1         dump the full statistics tables
 *   json=1          dump statistics as JSON instead
 *   timeline=C      (spmv) sample IPC every C simulated cycles
 *   debug=1         per-instruction debug log to stderr
 *
 * Multi-core (docs/multicore.md):
 *   cores=N         cores sharing one LLC/DRAM (default 1; the
 *                   cores=1 path is the unchanged, bit-identical
 *                   single-core machine). cores>1 runs the parallel
 *                   kernel variants and supports mode=detailed only
 *                   (no sweep/checkpoint/restore).
 *   partition=P     static | steal row partitioning
 *   llc_banks=B     shared-LLC bank pipes (default 8)
 *
 * Sampled simulation (the VIA run; see docs/sampling.md):
 *   mode=M          detailed | functional | sampled (default
 *                   detailed). functional warms caches/predictor
 *                   and checks the result but models no timing;
 *                   sampled extrapolates cycles from measured
 *                   windows with a 95% confidence interval. With
 *                   VIA_CHECK=1, mode=sampled also audits the
 *                   estimate against a detailed run and fails on a
 *                   >5% cycle error.
 *   sample_interval=N  instructions per sampling unit (default 100k)
 *   sample_warmup=N    detailed warmup per unit       (default 2000)
 *   sample_measure=N   measured instructions per unit (default 3000)
 *   checkpoint=PATH write the post-run machine state (all modes)
 *   restore=PATH    restore machine state before the run; the file
 *                   must come from an identically configured machine
 *
 * Tracing (the VIA-run Machine; see docs/tracing.md):
 *   trace=PATH      write an event trace of the VIA run
 *   trace_format=F  perfetto (Chrome trace-event JSON) | konata
 *   trace_limit=N   ring capacity in events (default 1M)
 *   trace_summary=1 print a per-component busy/stall breakdown
 *
 * Sweep mode (design-space exploration over one input):
 *   sweep=1         run the VIA kernel across sweep_kb x sweep_ports
 *   sweep_kb=LIST   SSPM sizes in KB              (default 4,8,16)
 *   sweep_ports=LIST SSPM port counts             (default 2,4)
 *   threads=N       sweep worker threads (0 = hardware concurrency)
 *
 * Every sweep point runs on its own Machine; results are collected
 * in submission order, so sweep output is bit-identical at any
 * thread count. Each point self-checks against the host reference
 * and the exit code is nonzero on any mismatch.
 *
 * Testing hook: inject_error=1 (stencil) perturbs the VIA result
 * before the reference check to exercise the failure path.
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "check/invariants.hh"
#include "check/sampling_audit.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "cpu/multi_machine.hh"
#include "kernels/backend_kernels.hh"
#include "kernels/dispatch.hh"
#include "kernels/parallel.hh"
#include "kernels/histogram.hh"
#include "kernels/reference.hh"
#include "kernels/runner.hh"
#include "kernels/spma.hh"
#include "kernels/stencil.hh"
#include "kernels/spmm.hh"
#include "kernels/spmv.hh"
#include "sample/checkpoint.hh"
#include "sample/sampling.hh"
#include "simcore/config.hh"
#include "simcore/log.hh"
#include "simcore/options.hh"
#include "simcore/serialize.hh"
#include "simcore/parallel.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/generators.hh"
#include "sparse/mm_io.hh"
#include "trace/trace_io.hh"

using namespace via;

namespace
{

/**
 * The full key table: driver keys here, the machine / sampling /
 * tracing groups from their owning layers. A typo (treads=4) exits
 * 2 with the valid set instead of silently running defaults.
 */
Options
simOptions()
{
    Options opts("via_sim",
                 "Run one kernel on one matrix, with and without "
                 "VIA (spmv|spma|spmm|histogram|stencil); sweep=1 "
                 "runs a grid of SSPM configurations instead");
    opts.addString("kernel", "",
                   "kernel to run (or first positional argument)")
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
        .addFlag("stream",
                 "stream the input with no triplet intermediates "
                 "(family=banded|rmat or mtx=; million-row inputs)")
        .addString("format", "csb",
                   "spmv sparse format: csr|spc5|sell|csb")
        .addUInt("keys", 16384, "histogram input size", 1)
        .addUInt("buckets", 1024, "histogram buckets", 1)
        .addUInt("px", 256, "stencil image side (4x4 filter)", 4)
        .addFlag("stats", "dump the full statistics tables")
        .addFlag("json", "dump statistics as JSON instead")
        .addUInt("timeline", 0,
                 "(spmv) sample IPC every N simulated cycles")
        .addFlag("debug", "per-instruction debug log to stderr")
        .addFlag("inject_error",
                 "(stencil) perturb the VIA result to exercise "
                 "the failure path")
        .addString("checkpoint", "",
                   "write the post-run machine state here")
        .addString("restore", "",
                   "restore machine state before the run")
        .addFlag("sweep",
                 "run the VIA kernel across sweep_kb x sweep_ports")
        .addString("sweep_kb", "4,8,16",
                   "SSPM sizes in KB to sweep (comma list)")
        .addString("sweep_ports", "2,4",
                   "SSPM port counts to sweep (comma list)");
    addThreadsOption(opts);
    addSelfProfOption(opts);
    addMachineOptions(opts);
    addMultiCoreOptions(opts);
    sample::addSampleOptions(opts);
    addTraceOptions(opts);
    return opts;
}

/** True when no Matrix Market file was given (mtx= or matrix=). */
bool
syntheticInput(const Config &cfg)
{
    return !cfg.has("mtx") && !cfg.has("matrix");
}

Csr
loadMatrix(const Config &cfg, Rng &rng)
{
    const bool stream = cfg.getBool("stream", false);
    if (cfg.has("matrix") || cfg.has("mtx")) {
        const std::string path = cfg.has("matrix")
                                     ? cfg.getString("matrix", "")
                                     : cfg.getString("mtx", "");
        return stream ? readMatrixMarketStreaming(path)
                      : readMatrixMarket(path);
    }
    auto n = Index(cfg.getUInt("rows", 512));
    double density = cfg.getDouble("density", 0.01);
    std::string family = cfg.getString("family", "uniform");
    if (stream && family != "banded" && family != "rmat")
        via_fatal("stream=1 needs family=banded|rmat or mtx= "
                  "(got family=", family, ")");
    if (family == "banded") {
        const auto bw = std::max<Index>(1, n / 32);
        const double fill = std::min(1.0, density * n / 16.0);
        return stream ? genBandedCsr(n, bw, fill, rng)
                      : genBanded(n, bw, fill, rng);
    }
    if (family == "rmat") {
        Index n2 = 1;
        while (2 * n2 <= n)
            n2 *= 2;
        const auto target =
            std::size_t(density * double(n2) * double(n2));
        return stream ? genRmatCsr(n2, target, rng)
                      : genRmat(n2, target, rng);
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

void
report(const char *name, const Machine &m, Tick baseline_cycles)
{
    auto metrics = kernels::collectMetrics(m);
    std::printf("%-18s %12llu cycles", name,
                static_cast<unsigned long long>(metrics.cycles));
    if (baseline_cycles)
        std::printf("  (%5.2fx)", double(baseline_cycles) /
                                      double(metrics.cycles));
    std::printf("  ipc %.2f  dram %.1f MB  energy %.1f uJ\n",
                metrics.ipc, double(metrics.dramBytes()) / 1e6,
                metrics.energy.totalPj() / 1e6);
}

// ==================================================================
// backend=: the accelerated column of every comparison follows the
// machine's vector backend. backend=via (the default) runs the
// historical VIA kernels and keeps the historical labels, so default
// output is byte-identical to the pre-backend driver.
// ==================================================================

/** Display prefix for the accelerated column. */
const char *
accelPrefix(BackendKind k)
{
    switch (k) {
      case BackendKind::Base: return "vector";
      case BackendKind::Via: return "VIA";
      case BackendKind::Ssr: return "SSR";
      case BackendKind::IndexMac: return "IndexMAC";
    }
    return "?";
}

const char *
spmaAccelName(BackendKind k)
{
    switch (k) {
      case BackendKind::Base: return "scalar merge";
      case BackendKind::Via: return "VIA CAM";
      case BackendKind::Ssr: return "SSR merge";
      case BackendKind::IndexMac: return "IndexMAC merge";
    }
    return "?";
}

const char *
spmmAccelName(BackendKind k)
{
    switch (k) {
      case BackendKind::Base: return "scalar inner";
      case BackendKind::Via: return "VIA CAM";
      case BackendKind::Ssr: return "SSR inner";
      case BackendKind::IndexMac: return "IndexMAC rows";
    }
    return "?";
}

/** json=1/stats=1 statistics dump, uniform across all kernels. */
void
dumpStats(const Config &cfg, Machine &m)
{
    if (cfg.getBool("json", false))
        m.stats().dumpJson(std::cout);
    else if (cfg.getBool("stats", false))
        m.stats().dump(std::cout);
}

/** restore=PATH: load a machine image before the kernel runs. */
void
maybeRestore(const Config &cfg, Machine &m)
{
    if (!cfg.has("restore"))
        return;
    std::string path = cfg.getString("restore", "");
    try {
        sample::Checkpoint::readFile(path).restore(m);
    } catch (const SerializeError &e) {
        via_fatal("restore=", path, ": ", e.what());
    }
    std::printf("restored machine state from %s\n", path.c_str());
}

/** checkpoint=PATH: write the post-run machine image. */
void
maybeCheckpoint(const Config &cfg, const Machine &m)
{
    if (!cfg.has("checkpoint"))
        return;
    std::string path = cfg.getString("checkpoint", "");
    try {
        sample::Checkpoint::capture(m).writeFile(path);
    } catch (const SerializeError &e) {
        via_fatal("checkpoint=", path, ": ", e.what());
    }
    std::printf("checkpoint written to %s\n", path.c_str());
}

/** The mode=functional / mode=sampled counterpart of report(). */
void
reportEstimate(const std::string &name,
               const sample::SampleOptions &sopts,
               const sample::SampleEstimate &est)
{
    if (sopts.mode == sample::SimMode::Functional) {
        std::printf("%-18s %12llu insts  (functional: no timing "
                    "modelled)\n",
                    name.c_str(),
                    static_cast<unsigned long long>(est.totalInsts));
        return;
    }
    if (est.exact) {
        std::printf("%-18s %12.0f cycles  (exact: run shorter than "
                    "one sampling unit)\n",
                    name.c_str(), est.cycles);
        return;
    }
    std::printf("%-18s %12.0f cycles  (sampled, 95%% CI "
                "[%.0f, %.0f], %llu windows, cpi %.2f)\n",
                name.c_str(), est.cycles, est.ciLow, est.ciHigh,
                static_cast<unsigned long long>(est.intervals),
                est.cpi);
}

/**
 * Run one kernel body under mode=functional or mode=sampled: a
 * single VIA-configured machine (no software baseline — comparative
 * timing is detailed mode's job), optional restore before and
 * checkpoint after, and, for sampled runs under VIA_CHECK=1, the
 * sampled-vs-detailed error audit folded into the exit code.
 */
int
runModal(const Config &cfg, const MachineParams &params,
         const sample::SampleOptions &sopts, const std::string &name,
         const std::function<bool(Machine &)> &body)
{
    Machine m(params);
    maybeRestore(cfg, m);
    bool ok = false;
    sample::SampleEstimate est =
        sample::runWith(m, sopts, [&] { ok = body(m); });
    reportEstimate(name, sopts, est);
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");

    if (sopts.mode == sample::SimMode::Sampled &&
        check::envEnabled()) {
        check::SamplingAudit audit = check::auditEstimate(
            params, est, [&](Machine &dm) { body(dm); });
        std::printf("%s\n", audit.summary().c_str());
        ok = ok && audit.ok;
    }

    maybeCheckpoint(cfg, m);
    dumpStats(cfg, m);
    return ok ? 0 : 1;
}

/**
 * Periodic IPC sampling through the machine's simulated-time event
 * queue (timeline=CYCLES): prints instructions retired per window.
 */
struct Timeline
{
    struct Sample
    {
        Tick tick;
        std::uint64_t insts;
    };

    void
    install(Machine &m, Tick window)
    {
        if (window == 0)
            return;
        _machine = &m;
        _window = window;
        m.events().scheduleIn<&Timeline::tick>(window, this,
                                               "timeline");
    }

    void
    tick()
    {
        samples.push_back(Sample{_machine->events().curTick(),
                                 _machine->core().stats().insts});
        _machine->events().scheduleIn<&Timeline::tick>(_window, this,
                                                       "timeline");
    }

    void
    print() const
    {
        if (samples.empty())
            return;
        std::printf("timeline (IPC per window):\n");
        std::uint64_t prev_i = 0;
        Tick prev_t = 0;
        for (const Sample &s : samples) {
            // A duplicate sample at the same tick would divide by
            // zero; fold it into the next nonzero-width window.
            if (s.tick == prev_t)
                continue;
            std::printf("  @%-10llu ipc %.2f\n",
                        static_cast<unsigned long long>(s.tick),
                        double(s.insts - prev_i) /
                            double(s.tick - prev_t));
            prev_i = s.insts;
            prev_t = s.tick;
        }
    }

    std::vector<Sample> samples;
    Machine *_machine = nullptr;
    Tick _window = 0;
};

int
runSpmv(const Config &cfg, const MachineParams &params, Rng &rng)
{
    Csr a = loadMatrix(cfg, rng);
    DenseVector x = randomVector(a.cols(), rng);
    std::printf("SpMV: %dx%d, %zu nnz\n", a.rows(), a.cols(),
                a.nnz());

    std::string fmt = cfg.getString("format", "csb");
    std::string label =
        std::string(accelPrefix(params.backend.kind)) + " " + fmt;
    auto sopts = sample::SampleOptions::fromConfig(cfg);
    if (sopts.mode != sample::SimMode::Detailed)
        return runModal(cfg, params, sopts, label,
                        [&](Machine &m) {
                            auto res =
                                kernels::spmvAccel(m, a, x, fmt);
                            return allClose(res.y, a.multiply(x));
                        });

    Machine base(params);
    auto bres = kernels::spmvVectorCsr(base, a, x);
    report("vector CSR", base, 0);

    Machine viam(params);
    maybeRestore(cfg, viam);
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    enableTracing(viam, topts);
    viam.tracePhase("spmv_" + fmt);
    Timeline timeline;
    timeline.install(viam, Tick(cfg.getUInt("timeline", 0)));
    kernels::SpmvResult vres = kernels::spmvAccel(viam, a, x, fmt);
    report(label.c_str(), viam, bres.cycles);
    timeline.print();

    bool ok = allClose(vres.y, a.multiply(x));
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
    ok = finishTracing(viam, topts) && ok;
    maybeCheckpoint(cfg, viam);
    dumpStats(cfg, viam);
    return ok ? 0 : 1;
}

int
runSpma(const Config &cfg, const MachineParams &params, Rng &rng)
{
    Csr a = loadMatrix(cfg, rng);
    Csr b = loadMatrix(cfg, rng);
    std::printf("SpMA: %dx%d, %zu + %zu nnz\n", a.rows(), a.cols(),
                a.nnz(), b.nnz());

    const char *label = spmaAccelName(params.backend.kind);
    auto sopts = sample::SampleOptions::fromConfig(cfg);
    if (sopts.mode != sample::SimMode::Detailed)
        return runModal(cfg, params, sopts, label,
                        [&](Machine &m) {
                            auto res = kernels::spmaAccel(m, a, b);
                            return closeElements(res.c,
                                                 addCsr(a, b), 1e-3);
                        });

    Machine base(params);
    auto bres = kernels::spmaScalarCsr(base, a, b);
    report("scalar merge", base, 0);

    Machine viam(params);
    maybeRestore(cfg, viam);
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    enableTracing(viam, topts);
    viam.tracePhase("spma");
    auto vres = kernels::spmaAccel(viam, a, b);
    report(label, viam, bres.cycles);

    bool ok = closeElements(vres.c, addCsr(a, b), 1e-3);
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
    ok = finishTracing(viam, topts) && ok;
    maybeCheckpoint(cfg, viam);
    dumpStats(cfg, viam);
    return ok ? 0 : 1;
}

int
runSpmm(const Config &cfg, const MachineParams &params, Rng &rng)
{
    Config small = cfg;
    if (!cfg.has("rows") && syntheticInput(cfg))
        small.set("rows", "160");
    Csr a = loadMatrix(small, rng);
    Csr b_csr = loadMatrix(small, rng);
    Csc b = Csc::fromCsr(b_csr);
    std::printf("SpMM: %dx%d (%zu nnz) * %dx%d (%zu nnz)\n",
                a.rows(), a.cols(), a.nnz(), b.rows(), b.cols(),
                b.nnz());

    const char *label = spmmAccelName(params.backend.kind);
    auto sopts = sample::SampleOptions::fromConfig(cfg);
    if (sopts.mode != sample::SimMode::Detailed)
        return runModal(cfg, params, sopts, label,
                        [&](Machine &m) {
                            auto res = kernels::spmmAccel(m, a, b);
                            return closeElements(
                                res.c, mulCsr(a, b_csr), 1e-2);
                        });

    Machine base(params);
    auto bres = kernels::spmmScalarInner(base, a, b);
    report("scalar inner", base, 0);

    Machine viam(params);
    maybeRestore(cfg, viam);
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    enableTracing(viam, topts);
    viam.tracePhase("spmm");
    auto vres = kernels::spmmAccel(viam, a, b);
    report(label, viam, bres.cycles);

    bool ok = closeElements(vres.c, mulCsr(a, b_csr), 1e-2);
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
    ok = finishTracing(viam, topts) && ok;
    maybeCheckpoint(cfg, viam);
    dumpStats(cfg, viam);
    return ok ? 0 : 1;
}

int
runHistogram(const Config &cfg, const MachineParams &params,
             Rng &rng)
{
    auto count = std::size_t(cfg.getUInt("keys", 16384));
    auto buckets = Index(cfg.getUInt("buckets", 1024));
    std::vector<Index> keys(count);
    for (auto &k : keys)
        k = Index(rng.below(std::uint64_t(buckets)));
    std::printf("histogram: %zu keys, %d buckets\n", count, buckets);

    const char *label = accelPrefix(params.backend.kind);
    auto sopts = sample::SampleOptions::fromConfig(cfg);
    if (sopts.mode != sample::SimMode::Detailed)
        return runModal(cfg, params, sopts, label,
                        [&](Machine &m) {
                            auto res = kernels::histAccel(m, keys, buckets);
                            return res.hist ==
                                   kernels::refHistogram(keys,
                                                         buckets);
                        });

    Machine m1(params), m2(params), m3(params);
    maybeRestore(cfg, m3);
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    enableTracing(m3, topts);
    m3.tracePhase("histogram");
    auto sres = kernels::histScalar(m1, keys, buckets);
    report("scalar", m1, 0);
    kernels::histVector(m2, keys, buckets);
    report("vector CD", m2, sres.cycles);
    auto vres = kernels::histAccel(m3, keys, buckets);
    report(label, m3, sres.cycles);

    bool ok = vres.hist == kernels::refHistogram(keys, buckets);
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
    ok = finishTracing(m3, topts) && ok;
    maybeCheckpoint(cfg, m3);
    dumpStats(cfg, m3);
    return ok ? 0 : 1;
}

int
runStencil(const Config &cfg, const MachineParams &params, Rng &rng)
{
    auto side = Index(cfg.getUInt("px", 256));
    DenseMatrix img(side, side);
    for (auto &p : img.data())
        p = Value(rng.uniform() * 255.0);
    std::printf("stencil: 4x4 Gaussian on %dx%d px\n", side, side);

    const char *label = accelPrefix(params.backend.kind);
    auto sopts = sample::SampleOptions::fromConfig(cfg);
    if (sopts.mode != sample::SimMode::Detailed) {
        DenseMatrix ref = kernels::refConvolve4x4(img);
        return runModal(cfg, params, sopts, label,
                        [&](Machine &m) {
                            auto res = kernels::stencilAccel(m, img);
                            if (cfg.getBool("inject_error", false))
                                res.out.at(0, 0) += Value(1.0);
                            return allClose(res.out.data(),
                                            ref.data());
                        });
    }

    Machine base(params);
    auto bres = kernels::stencilVector(base, img);
    report("vector", base, 0);

    Machine viam(params);
    maybeRestore(cfg, viam);
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    enableTracing(viam, topts);
    viam.tracePhase("stencil");
    auto vres = kernels::stencilAccel(viam, img);
    report(label, viam, bres.cycles);

    if (cfg.getBool("inject_error", false))
        vres.out.at(0, 0) += Value(1.0);

    DenseMatrix ref = kernels::refConvolve4x4(img);
    bool ok = allClose(vres.out.data(), ref.data());
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
    ok = finishTracing(viam, topts) && ok;
    maybeCheckpoint(cfg, viam);
    dumpStats(cfg, viam);
    return ok ? 0 : 1;
}

// ==================================================================
// cores>1: the multi-core machine and the parallel kernel variants.
// ==================================================================

/** Per-run report line for a MultiMachine. */
void
reportMulti(const char *name, const MultiMachine &mm, Tick cycles,
            Tick baseline_cycles)
{
    std::printf("%-18s %12llu cycles", name,
                static_cast<unsigned long long>(cycles));
    if (baseline_cycles)
        std::printf("  (%5.2fx)",
                    double(baseline_cycles) / double(cycles));
    const SharedLlcStats &ls = mm.llc().stats();
    std::printf("  llc inval %llu  fwd %llu  bankq %llu\n",
                static_cast<unsigned long long>(ls.invalidations),
                static_cast<unsigned long long>(ls.dirtyForwards),
                static_cast<unsigned long long>(ls.bankQueueCycles));
}

/** stats=1 / json=1 for a multi-core run: shared level + per core. */
void
dumpStatsMulti(const Config &cfg, MultiMachine &mm)
{
    if (cfg.getBool("json", false)) {
        std::cout << "{\"shared\": ";
        mm.stats().dumpJson(std::cout);
        for (unsigned c = 0; c < mm.cores(); ++c) {
            std::cout << ", \"core" << c << "\": ";
            mm.core(c).stats().dumpJson(std::cout);
        }
        std::cout << "}\n";
    } else if (cfg.getBool("stats", false)) {
        std::cout << "== shared (llc/dram) ==\n";
        mm.stats().dump(std::cout);
        for (unsigned c = 0; c < mm.cores(); ++c) {
            std::cout << "== core " << c << " ==\n";
            mm.core(c).stats().dump(std::cout);
        }
    }
}

/** Per-core trace export (suffix _coreN before the extension). */
bool
finishTracingMulti(MultiMachine &mm, const TraceOptions &topts)
{
    bool ok = true;
    for (unsigned c = 0; c < mm.cores(); ++c)
        ok = finishTracing(mm.core(c), topts,
                           "_core" + std::to_string(c)) &&
             ok;
    return ok;
}

int
runParallel(const std::string &kernel, const Config &cfg,
            const MachineParams &params, Rng &rng, unsigned cores)
{
    auto sopts = sample::SampleOptions::fromConfig(cfg);
    if (sopts.mode != sample::SimMode::Detailed)
        via_fatal("cores>1 supports mode=detailed only (sampling "
                  "and checkpoints are single-core)");
    if (cfg.has("checkpoint") || cfg.has("restore"))
        via_fatal("cores>1 cannot checkpoint/restore: the cores "
                  "share one memory image");
    auto part =
        kernels::parsePartition(cfg.getString("partition", "static"));
    SharedLlcParams llcp = sharedLlcParamsFrom(cfg, params, cores);
    TraceOptions topts = TraceOptions::fromConfig(cfg);

    // Baseline and VIA each get a fresh machine set; the reported
    // makespan is the slowest core's commit front.
    auto runPair = [&](const char *base_name, const char *via_name,
                       auto &&body, auto &&check) {
        MultiMachine base(params, cores, llcp);
        Tick bcycles = body(base, false);
        reportMulti(base_name, base, bcycles, 0);

        MultiMachine viam(params, cores, llcp);
        if (topts.active())
            viam.enableTracing(topts.limit);
        Tick vcycles = body(viam, true);
        reportMulti(via_name, viam, vcycles, bcycles);

        bool ok = check();
        std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
        if (topts.active())
            ok = finishTracingMulti(viam, topts) && ok;
        dumpStatsMulti(cfg, viam);
        return ok ? 0 : 1;
    };

    const char *pname = kernels::partitionName(part);
    if (kernel == "spmv") {
        Csr a = loadMatrix(cfg, rng);
        DenseVector x = randomVector(a.cols(), rng);
        std::string fmt = cfg.getString("format", "csb");
        std::printf("SpMV: %dx%d, %zu nnz  (%u cores, %s)\n",
                    a.rows(), a.cols(), a.nnz(), cores, pname);
        kernels::SpmvResult vres;
        auto body = [&](MultiMachine &mm, bool via) {
            auto res = kernels::spmvParallel(mm, a, x, fmt, part,
                                             via);
            if (via)
                vres = res;
            return res.cycles;
        };
        std::string base_name = "vector " + fmt;
        std::string via_name = "VIA " + fmt;
        return runPair(base_name.c_str(), via_name.c_str(), body,
                       [&] { return allClose(vres.y, a.multiply(x)); });
    }
    if (kernel == "spma") {
        Csr a = loadMatrix(cfg, rng);
        Csr b = loadMatrix(cfg, rng);
        std::printf("SpMA: %dx%d, %zu + %zu nnz  (%u cores, %s)\n",
                    a.rows(), a.cols(), a.nnz(), b.nnz(), cores,
                    pname);
        kernels::SpmaResult vres;
        auto body = [&](MultiMachine &mm, bool via) {
            auto res = kernels::spmaParallel(mm, a, b, part, via);
            if (via)
                vres = res;
            return res.cycles;
        };
        return runPair("scalar merge", "VIA CAM", body, [&] {
            return closeElements(vres.c, addCsr(a, b), 1e-3);
        });
    }
    if (kernel == "spmm") {
        Config small = cfg;
        if (!cfg.has("rows") && syntheticInput(cfg))
            small.set("rows", "160");
        Csr a = loadMatrix(small, rng);
        Csr b_csr = loadMatrix(small, rng);
        Csc b = Csc::fromCsr(b_csr);
        std::printf("SpMM: %dx%d (%zu nnz) * %dx%d (%zu nnz)  "
                    "(%u cores, %s)\n",
                    a.rows(), a.cols(), a.nnz(), b.rows(), b.cols(),
                    b.nnz(), cores, pname);
        kernels::SpmmResult vres;
        auto body = [&](MultiMachine &mm, bool via) {
            auto res = kernels::spmmParallel(mm, a, b, part, via);
            if (via)
                vres = res;
            return res.cycles;
        };
        return runPair("scalar inner", "VIA CAM", body, [&] {
            return closeElements(vres.c, mulCsr(a, b_csr), 1e-2);
        });
    }
    if (kernel == "histogram") {
        auto count = std::size_t(cfg.getUInt("keys", 16384));
        auto buckets = Index(cfg.getUInt("buckets", 1024));
        std::vector<Index> keys(count);
        for (auto &k : keys)
            k = Index(rng.below(std::uint64_t(buckets)));
        std::printf("histogram: %zu keys, %d buckets  (%u cores, "
                    "%s)\n",
                    count, buckets, cores, pname);
        kernels::HistResult vres;
        auto body = [&](MultiMachine &mm, bool via) {
            auto res =
                kernels::histParallel(mm, keys, buckets, part, via);
            if (via)
                vres = res;
            return res.cycles;
        };
        return runPair("vector CD", "VIA", body, [&] {
            return vres.hist == kernels::refHistogram(keys, buckets);
        });
    }
    if (kernel == "stencil") {
        auto side = Index(cfg.getUInt("px", 256));
        DenseMatrix img(side, side);
        for (auto &p : img.data())
            p = Value(rng.uniform() * 255.0);
        std::printf("stencil: 4x4 Gaussian on %dx%d px  (%u cores, "
                    "%s)\n",
                    side, side, cores, pname);
        kernels::StencilResult vres;
        auto body = [&](MultiMachine &mm, bool via) {
            auto res = kernels::stencilParallel(mm, img, part, via);
            if (via)
                vres = res;
            return res.cycles;
        };
        DenseMatrix ref = kernels::refConvolve4x4(img);
        return runPair("vector", "VIA", body, [&] {
            if (cfg.getBool("inject_error", false))
                vres.out.at(0, 0) += Value(1.0);
            return allClose(vres.out.data(), ref.data());
        });
    }
    std::fprintf(stderr, "unknown kernel '%s'\n", kernel.c_str());
    return 2;
}

// ==================================================================
// sweep=1: one kernel, one input, a grid of SSPM configurations.
// ==================================================================

/** Outcome of one sweep point. */
struct SweepPoint
{
    Tick cycles = 0;
    bool ok = false;
    bool skipped = false; //!< input does not fit this configuration
};

std::vector<std::uint64_t>
parseU64List(const std::string &text, const char *what)
{
    std::vector<std::uint64_t> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        try {
            out.push_back(std::stoull(item));
        } catch (const std::exception &) {
            via_fatal("bad ", what, " entry '", item, "'");
        }
    }
    if (out.empty())
        via_fatal("empty list for ", what);
    return out;
}

/**
 * The VIA stencil stages four image rows in the SSPM at the least:
 * an image too wide for that is a usage error, reported before any
 * simulation runs (for a sweep, against every sweep_kb point).
 */
bool
stencilFitsSspm(const Config &cfg, const MachineParams &params)
{
    if (params.backend.kind != BackendKind::Via)
        return true;
    auto side = Index(cfg.getUInt("px", 256));
    std::vector<std::uint64_t> kbs{cfg.getUInt("sspm_kb", 16)};
    if (cfg.getBool("sweep", false))
        kbs = parseU64List(cfg.getString("sweep_kb", "4,8,16"),
                           "sweep_kb");
    for (std::uint64_t kb : kbs) {
        Config pc = cfg;
        pc.set("sspm_kb", std::to_string(kb));
        Index widest =
            kernels::stencilViaMaxWidth(machineParamsFrom(pc).via);
        if (side > widest) {
            std::fprintf(stderr,
                         "via_sim: stencil px=%d is too wide for "
                         "sspm_kb=%llu: VIA stages four image rows "
                         "in the SSPM, so px must be at most %d\n",
                         side, static_cast<unsigned long long>(kb),
                         widest);
            return false;
        }
    }
    return true;
}

int
runSweep(const std::string &kernel, const Config &cfg, Rng &rng)
{
    using PointFn = std::function<SweepPoint(const MachineParams &)>;
    PointFn point;

    // Each sweep point has its own Machine, so tracing stays
    // race-free: every point writes its own file, distinguished by
    // a _<kb>_<ports>p suffix before the extension. The stdout
    // roll-up would interleave across worker threads, so it is
    // disabled here.
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    if (topts.summary) {
        std::fprintf(stderr,
                     "trace_summary=1 is ignored in sweep mode\n");
        topts.summary = false;
    }

    // Build the kernel input once; points share it read-only.
    if (kernel == "spmv") {
        auto a = std::make_shared<Csr>(loadMatrix(cfg, rng));
        auto x = std::make_shared<DenseVector>(
            randomVector(a->cols(), rng));
        auto y = std::make_shared<DenseVector>(a->multiply(*x));
        std::string fmt = cfg.getString("format", "csb");
        std::printf("sweep SpMV (%s): %dx%d, %zu nnz\n",
                    fmt.c_str(), a->rows(), a->cols(), a->nnz());
        point = [a, x, y, fmt, topts](const MachineParams &params) {
            Machine m(params);
            enableTracing(m, topts);
            m.tracePhase("spmv_" + fmt);
            auto res = kernels::spmvVia(m, *a, *x, fmt);
            bool ok = finishTracing(m, topts,
                                    "_" + params.via.name());
            return SweepPoint{res.cycles,
                              ok && allClose(res.y, *y), false};
        };
    } else if (kernel == "spma") {
        auto a = std::make_shared<Csr>(loadMatrix(cfg, rng));
        auto b = std::make_shared<Csr>(loadMatrix(cfg, rng));
        auto golden = std::make_shared<Csr>(addCsr(*a, *b));
        std::printf("sweep SpMA: %dx%d, %zu + %zu nnz\n", a->rows(),
                    a->cols(), a->nnz(), b->nnz());
        point = [a, b, golden, topts](const MachineParams &params) {
            Machine m(params);
            enableTracing(m, topts);
            m.tracePhase("spma");
            auto res = kernels::spmaViaCsr(m, *a, *b);
            bool ok = finishTracing(m, topts,
                                    "_" + params.via.name());
            return SweepPoint{res.cycles,
                              ok && closeElements(res.c, *golden,
                                                  1e-3),
                              false};
        };
    } else if (kernel == "spmm") {
        Config small = cfg;
        if (!cfg.has("rows") && syntheticInput(cfg))
            small.set("rows", "160");
        auto a = std::make_shared<Csr>(loadMatrix(small, rng));
        auto b_csr = std::make_shared<Csr>(loadMatrix(small, rng));
        auto b = std::make_shared<Csc>(Csc::fromCsr(*b_csr));
        auto golden = std::make_shared<Csr>(mulCsr(*a, *b_csr));
        std::printf("sweep SpMM: %dx%d (%zu nnz) * %dx%d (%zu "
                    "nnz)\n",
                    a->rows(), a->cols(), a->nnz(), b->rows(),
                    b->cols(), b->nnz());
        point = [a, b, golden, topts](const MachineParams &params) {
            if (a->maxRowNnz() > Index(params.via.camEntries()))
                return SweepPoint{0, true, true};
            Machine m(params);
            enableTracing(m, topts);
            m.tracePhase("spmm");
            auto res = kernels::spmmViaInner(m, *a, *b);
            bool ok = finishTracing(m, topts,
                                    "_" + params.via.name());
            return SweepPoint{res.cycles,
                              ok && closeElements(res.c, *golden,
                                                  1e-2),
                              false};
        };
    } else if (kernel == "histogram") {
        auto count = std::size_t(cfg.getUInt("keys", 16384));
        auto buckets = Index(cfg.getUInt("buckets", 1024));
        auto keys =
            std::make_shared<std::vector<Index>>(count);
        for (auto &k : *keys)
            k = Index(rng.below(std::uint64_t(buckets)));
        auto golden = std::make_shared<std::vector<Value>>(
            kernels::refHistogram(*keys, buckets));
        std::printf("sweep histogram: %zu keys, %d buckets\n",
                    count, buckets);
        point = [keys, buckets, golden, topts](
                    const MachineParams &params) {
            Machine m(params);
            enableTracing(m, topts);
            m.tracePhase("histogram");
            auto res = kernels::histVia(m, *keys, buckets);
            bool ok = finishTracing(m, topts,
                                    "_" + params.via.name());
            return SweepPoint{res.cycles,
                              ok && res.hist == *golden, false};
        };
    } else if (kernel == "stencil") {
        auto side = Index(cfg.getUInt("px", 256));
        auto img = std::make_shared<DenseMatrix>(side, side);
        for (auto &p : img->data())
            p = Value(rng.uniform() * 255.0);
        auto golden = std::make_shared<DenseMatrix>(
            kernels::refConvolve4x4(*img));
        std::printf("sweep stencil: 4x4 Gaussian on %dx%d px\n",
                    side, side);
        point = [img, golden, topts](const MachineParams &params) {
            Machine m(params);
            enableTracing(m, topts);
            m.tracePhase("stencil");
            auto res = kernels::stencilVia(m, *img);
            bool ok = finishTracing(m, topts,
                                    "_" + params.via.name());
            return SweepPoint{res.cycles,
                              ok && allClose(res.out.data(),
                                             golden->data()),
                              false};
        };
    } else {
        via_fatal("unknown kernel '", kernel, "'");
    }

    auto kbs = parseU64List(cfg.getString("sweep_kb", "4,8,16"),
                            "sweep_kb");
    auto port_list = parseU64List(
        cfg.getString("sweep_ports", "2,4"), "sweep_ports");

    struct GridCfg
    {
        std::uint64_t kb;
        std::uint32_t ports;
    };
    std::vector<GridCfg> grid;
    for (std::uint64_t kb : kbs)
        for (std::uint64_t p : port_list)
            grid.push_back({kb, std::uint32_t(p)});

    SweepExecutor exec(unsigned(cfg.getUInt("threads", 0)));
    std::fprintf(stderr, "sweeping %zu configs on %u threads\n",
                 grid.size(), exec.threads());
    auto results = exec.run(grid.size(), [&](std::size_t i) {
        Config pc = cfg;
        pc.set("sspm_kb", std::to_string(grid[i].kb));
        pc.set("ports", std::to_string(grid[i].ports));
        return point(machineParamsFrom(pc));
    });

    // First non-skipped config is the normalization baseline.
    double base_cycles = 0.0;
    for (const SweepPoint &r : results)
        if (!r.skipped) {
            base_cycles = double(r.cycles);
            break;
        }

    std::printf("%-10s %14s %9s  %s\n", "config", "cycles",
                "speedup", "check");
    bool all_ok = true;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        std::string name = std::to_string(grid[i].kb) + "_" +
                           std::to_string(grid[i].ports) + "p";
        if (results[i].skipped) {
            std::printf("%-10s %14s %9s  %s\n", name.c_str(), "-",
                        "-", "skipped (exceeds CAM)");
            continue;
        }
        all_ok = all_ok && results[i].ok;
        std::printf("%-10s %14llu %8.2fx  %s\n", name.c_str(),
                    static_cast<unsigned long long>(
                        results[i].cycles),
                    base_cycles / double(results[i].cycles),
                    results[i].ok ? "ok" : "MISMATCH");
    }
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = simOptions();

    // The kernel is either the first positional argument or a
    // kernel= key; everything else is key=value (or --help).
    std::string kernel;
    int first = 1;
    if (argc >= 2) {
        std::string head = argv[1];
        if (head.find('=') == std::string::npos && head[0] != '-') {
            kernel = head;
            first = 2;
        }
    }
    std::vector<std::string> args;
    for (int i = first; i < argc; ++i)
        args.emplace_back(argv[i]);
    opts.parse(args);
    applySelfProfOption(opts);
    const Config &cfg = opts.config();
    if (kernel.empty())
        kernel = opts.getString("kernel");
    if (kernel.empty()) {
        std::fprintf(stderr,
                     "usage: via_sim <spmv|spma|spmm|histogram|"
                     "stencil> [key=value ...]\n"
                     "       (via_sim help=1 for the key table)\n");
        return 2;
    }

    if (cfg.getBool("debug", false))
        setLogLevel(LogLevel::Debug);
    Rng rng(cfg.getUInt("seed", 1));

    auto cores = unsigned(cfg.getUInt("cores", 1));
    MachineParams params = machineParamsFrom(cfg);
    if (kernel == "stencil" && !stencilFitsSspm(cfg, params))
        return 2;
    if (cfg.getBool("sweep", false)) {
        if (cores > 1)
            via_fatal("sweep=1 is single-core; drop cores=");
        if (params.backend.kind != BackendKind::Via)
            via_fatal("sweep=1 sweeps VIA SSPM configurations; "
                      "it requires backend=via");
        return runSweep(kernel, cfg, rng);
    }

    if (cores > 1) {
        if (params.backend.kind != BackendKind::Via)
            via_fatal("cores>1 runs the VIA parallel kernels; "
                      "backend=",
                      backendName(params.backend.kind),
                      " is single-core only");
        return runParallel(kernel, cfg, params, rng, cores);
    }
    if (kernel == "spmv")
        return runSpmv(cfg, params, rng);
    if (kernel == "spma")
        return runSpma(cfg, params, rng);
    if (kernel == "spmm")
        return runSpmm(cfg, params, rng);
    if (kernel == "histogram")
        return runHistogram(cfg, params, rng);
    if (kernel == "stencil")
        return runStencil(cfg, params, rng);
    std::fprintf(stderr, "unknown kernel '%s'\n", kernel.c_str());
    return 2;
}
