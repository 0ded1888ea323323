/**
 * @file
 * via_sim — command-line driver for the VIA simulator.
 *
 * Runs one kernel on one matrix (synthetic or a Matrix Market file)
 * on a configured machine, with and without VIA, and dumps the
 * statistics. This is the "try it on your own matrix" entry point.
 * Each kernel's input, golden, labels and result check come from the
 * workload table (kernels/workload.hh); this file wires the paths.
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

#include <charconv>
#include <cstdio>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>

#include "check/invariants.hh"
#include "check/sampling_audit.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "cpu/multi_machine.hh"
#include "kernels/runner.hh"
#include "kernels/workload.hh"
#include "sample/checkpoint.hh"
#include "sample/sampling.hh"
#include "simcore/config.hh"
#include "simcore/log.hh"
#include "simcore/options.hh"
#include "simcore/serialize.hh"
#include "simcore/parallel.hh"
#include "simcore/rng.hh"
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
         const std::function<kernels::RunOutcome(Machine &)> &body)
{
    Machine m(params);
    maybeRestore(cfg, m);
    bool ok = false;
    sample::SampleEstimate est =
        sample::runWith(m, sopts, [&] { ok = body(m).ok; });
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
 * Periodic IPC sampling (timeline=CYCLES), a commit observer: the
 * first boundary is the core's commit front plus the window, and each
 * boundary an instruction's commit reaches records the instructions
 * retired so far, this one included. A commit that jumps several
 * windows records a sample at each boundary. Prints IPC per window.
 */
struct Timeline final : TimingObserver
{
    struct Sample
    {
        Tick tick;
        std::uint64_t insts;
    };

    Timeline() = default;
    Timeline(const Timeline &) = delete;
    Timeline &operator=(const Timeline &) = delete;

    ~Timeline() override
    {
        if (_core != nullptr)
            _core->removeTimingObserver(this);
    }

    void
    install(Machine &m, Tick window)
    {
        if (window == 0)
            return;
        _core = &m.core();
        _window = window;
        _next = _core->commitFront() + window;
        _core->addTimingObserver(this);
    }

    void
    onInstTiming(const Inst &, const InstTiming &timing) override
    {
        for (; _next <= timing.commit; _next += _window)
            samples.push_back(Sample{_next, _core->stats().insts});
    }

    void onTimingReset() override {}

    void
    print() const
    {
        if (samples.empty())
            return;
        std::printf("timeline (IPC per window):\n");
        std::uint64_t prev_i = 0;
        Tick prev_t = 0;
        // Boundaries rise by the window (> 0): no window has zero width.
        for (const Sample &s : samples) {
            std::printf("  @%-10llu ipc %.2f\n",
                        static_cast<unsigned long long>(s.tick),
                        double(s.insts - prev_i) /
                            double(s.tick - prev_t));
            prev_i = s.insts;
            prev_t = s.tick;
        }
    }

    std::vector<Sample> samples;
    OoOCore *_core = nullptr;
    Tick _window = 0;
    Tick _next = 0;
};

/**
 * The single-core comparison: every software baseline column on a
 * fresh machine, then the accelerated kernel of the machine's backend
 * on the machine that restore=, tracing, timeline= and checkpoint=
 * apply to. mode=functional/sampled runs the accelerated kernel alone.
 */
int
runDetailed(const Config &cfg, const kernels::Workload &w,
            const kernels::WorkloadInput &in,
            const MachineParams &params)
{
    std::printf("%s: %s\n", w.title, in.shape.c_str());
    const std::string label =
        in.label(w.accelLabels[std::size_t(params.backend.kind)]);
    auto sopts = sample::SampleOptions::fromConfig(cfg);
    if (sopts.mode != sample::SimMode::Detailed)
        return runModal(cfg, params, sopts, label, in.accel);

    Tick base_cycles = 0;
    for (std::size_t i = 0; i < in.baselines.size(); ++i) {
        Machine base(params);
        Tick cycles = in.baselines[i].run(base);
        report(in.baselines[i].label.c_str(), base, base_cycles);
        if (i == 0)
            base_cycles = cycles;
    }

    Machine viam(params);
    maybeRestore(cfg, viam);
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    enableTracing(viam, topts);
    viam.tracePhase(in.label(w.name, '_'));
    Timeline timeline;
    if (w.timeline)
        timeline.install(viam, Tick(cfg.getUInt("timeline", 0)));
    kernels::RunOutcome res = in.accel(viam);
    report(label.c_str(), viam, base_cycles);
    timeline.print();

    bool ok = res.ok;
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

/**
 * cores>1: the baseline and the VIA parallel kernel, each on a fresh
 * machine set; the reported makespan is the slowest core's commit
 * front.
 */
int
runParallel(const Config &cfg, const kernels::Workload &w,
            const kernels::WorkloadInput &in,
            const MachineParams &params, unsigned cores)
{
    auto part =
        kernels::parsePartition(cfg.getString("partition", "static"));
    SharedLlcParams llcp = sharedLlcParamsFrom(cfg, params, cores);
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    std::printf("%s: %s  (%u cores, %s)\n", w.title, in.shape.c_str(),
                cores, kernels::partitionName(part));

    MultiMachine base(params, cores, llcp);
    Tick bcycles = in.parallel(base, part, false).cycles;
    reportMulti(in.label(w.parallelLabels[0]).c_str(), base, bcycles,
                0);

    MultiMachine viam(params, cores, llcp);
    if (topts.active())
        viam.enableTracing(topts.limit);
    kernels::RunOutcome res = in.parallel(viam, part, true);
    reportMulti(in.label(w.parallelLabels[1]).c_str(), viam,
                res.cycles, bcycles);

    bool ok = res.ok;
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
    if (topts.active())
        ok = finishTracingMulti(viam, topts) && ok;
    dumpStatsMulti(cfg, viam);
    return ok ? 0 : 1;
}

// ==================================================================
// sweep=1: one kernel, one input, a grid of SSPM configurations.
// ==================================================================

/** One sweep configuration. */
struct SweepPoint
{
    std::string name; //!< "16_2p"
    MachineParams params;
    std::string skip; //!< non-empty: skipped, with this note
};

/**
 * A comma list of integers in [1, max] (sweep_kb=, sweep_ports=):
 * each entry must pass the same bounds as sspm_kb= and ports=.
 */
bool
parseU64List(const std::string &text, std::uint64_t max,
             std::vector<std::uint64_t> &out)
{
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        std::uint64_t v = 0;
        const char *end = item.data() + item.size();
        auto [ptr, ec] = std::from_chars(item.data(), end, v);
        if (ec != std::errc() || ptr != end || v == 0 || v > max)
            return false;
        out.push_back(v);
    }
    return !out.empty();
}

int
runSweep(const Config &cfg, const kernels::Workload &w,
         const kernels::WorkloadInput &in,
         const std::vector<SweepPoint> &grid)
{
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
    std::printf("sweep %s%s: %s\n", w.title, in.tag().c_str(),
                in.shape.c_str());

    SweepExecutor exec(unsigned(cfg.getUInt("threads", 0)));
    std::fprintf(stderr, "sweeping %zu configs on %u threads\n",
                 grid.size(), exec.threads());
    auto results = exec.run(grid.size(), [&](std::size_t i) {
        const SweepPoint &pt = grid[i];
        if (!pt.skip.empty())
            return kernels::RunOutcome{};
        Machine m(pt.params);
        enableTracing(m, topts);
        m.tracePhase(in.label(w.name, '_'));
        kernels::RunOutcome res = in.accel(m);
        res.ok = finishTracing(m, topts, "_" + pt.params.via.name()) &&
                 res.ok;
        return res;
    });

    // First non-skipped config is the normalization baseline.
    double base_cycles = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (grid[i].skip.empty()) {
            base_cycles = double(results[i].cycles);
            break;
        }

    std::printf("%-10s %14s %9s  %s\n", "config", "cycles",
                "speedup", "check");
    bool all_ok = true;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const char *name = grid[i].name.c_str();
        if (!grid[i].skip.empty()) {
            std::printf("%-10s %14s %9s  skipped (%s)\n", name, "-",
                        "-", grid[i].skip.c_str());
            continue;
        }
        all_ok = all_ok && results[i].ok;
        std::printf("%-10s %14llu %8.2fx  %s\n", name,
                    static_cast<unsigned long long>(
                        results[i].cycles),
                    base_cycles / double(results[i].cycles),
                    results[i].ok ? "ok" : "MISMATCH");
    }
    return all_ok ? 0 : 1;
}

/** A usage error: reported before any header line or simulation. */
int
usage(const std::string &why)
{
    std::fprintf(stderr, "via_sim: %s\n", why.c_str());
    return 2;
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
    // Resolve the sampling keys before any output: a bad mode= is a
    // usage error like every other bad key.
    const sample::SimMode mode =
        sample::SampleOptions::fromConfig(cfg).mode;
    const kernels::Workload *w = kernels::findWorkload(kernel);
    if (!w)
        return usage("unknown kernel '" + kernel + "'");
    std::string bad = kernels::checkWorkloadKeys(*w, opts, params, cores);
    if (!bad.empty())
        return usage(bad);

    const bool sweep = cfg.getBool("sweep", false);
    std::vector<SweepPoint> grid;
    if (sweep) {
        if (cores > 1)
            return usage("sweep=1 is single-core; drop cores=");
        if (params.backend.kind != BackendKind::Via)
            return usage("sweep=1 sweeps VIA SSPM configurations; it "
                         "requires backend=via");
        std::vector<std::uint64_t> kbs, ports;
        const std::string kb_text = cfg.getString("sweep_kb", "4,8,16");
        const std::string port_text =
            cfg.getString("sweep_ports", "2,4");
        if (!parseU64List(kb_text, MAX_SSPM_KB, kbs))
            return usage("bad sweep_kb list '" + kb_text + "'");
        if (!parseU64List(port_text, MAX_SSPM_PORTS, ports))
            return usage("bad sweep_ports list '" + port_text + "'");
        for (std::uint64_t kb : kbs)
            for (std::uint64_t p : ports) {
                Config pc = cfg;
                pc.set("sspm_kb", std::to_string(kb));
                pc.set("ports", std::to_string(p));
                grid.push_back({std::to_string(kb) + "_" +
                                    std::to_string(p) + "p",
                                machineParamsFrom(pc), ""});
            }
    } else if (cores > 1) {
        if (mode != sample::SimMode::Detailed)
            return usage("cores>1 supports mode=detailed only "
                         "(sampling and checkpoints are single-core)");
        if (cfg.has("checkpoint") || cfg.has("restore"))
            return usage("cores>1 cannot checkpoint/restore: the cores "
                         "share one memory image");
    }

    // Build the input once; every run shares it read-only. A sweep
    // skips a point the input does not fit where the kernel allows
    // it; any other misfit is a usage error.
    const kernels::WorkloadInput in = w->build(opts, rng);
    if (!sweep) {
        if (auto misfit = in.fit(params))
            return usage(misfit->why);
    }
    for (SweepPoint &pt : grid) {
        if (auto misfit = in.fit(pt.params)) {
            if (misfit->skip.empty())
                return usage(misfit->why);
            pt.skip = misfit->skip;
        }
    }

    if (sweep)
        return runSweep(cfg, *w, in, grid);
    if (cores > 1)
        return runParallel(cfg, *w, in, params, cores);
    return runDetailed(cfg, *w, in, params);
}
