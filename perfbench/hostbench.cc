/**
 * @file
 * Host-speed benchmark of the simulator, one workload per process.
 *
 *   hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--perturb 0|1]
 *
 * A repetition generates the workload's inputs from the seed, builds
 * fresh machines, runs every kernel of the workload, and checks each
 * result against the host reference. Repetitions continue until
 * --seconds have passed; metrics are medians over repetitions.
 *
 * --trace 0 (timed): self-profiling stays off; prints the end-to-end
 * metrics, in CPU time scaled to a reference host speed that two
 * probes measure between kernel calls. --trace 1 (traced):
 * repetitions alternate untraced and traced (selfprof on); prints the
 * per-layer split of the traced repetitions (wall time) and the
 * tracing overhead. --perturb 1 corrupts the first kernel result of
 * every repetition, which must then count as a failed run (the
 * self-test's negative case).
 *
 * All timing spans live in this file, around calls to the library's
 * public functions; nothing inside src/ is instrumented for it.
 * Every repetition must reproduce the first one's simulated counts
 * and stats fingerprint exactly. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "check/invariants.hh"
#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/parallel.hh"
#include "kernels/spma.hh"
#include "kernels/spmv.hh"
#include "sample/sampling.hh"
#include "simcore/rng.hh"
#include "simcore/selfprof.hh"
#include "sparse/convert.hh"
#include "sparse/csb.hh"
#include "sparse/generators.hh"

#if defined(__clang__)
constexpr const char *kCompiler = __VERSION__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace via;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** CPU seconds used by this process so far. Unlike wall time, it
 *  leaves out the time the process waited for a CPU. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host speed calibration. The shared host's speed drifts between
// runs: within minutes the simulator's CPU time per simulated cycle
// moved by up to 2x, with the core's speed and with contention for
// the shared cache and memory. Two fixed probes, timed in CPU seconds
// at the start of every repetition and after every kernel call,
// measure the drift, and the timed metrics are scaled to a reference
// host on which one probe lookup takes refNs. The probes are this
// file's own code, so a change to the simulator moves the metrics and
// not the scale.
struct Probe
{
    std::size_t words; //!< table words the lookups range over
    std::uint64_t lookups;
    double refNs; //!< ns per lookup on the reference host
};
/** The shared cache and memory: a 32 MiB table. The kernel calls
 *  follow it. */
constexpr Probe kMemoryProbe{std::size_t(1) << 23, 1'000'000, 10.0};
/** The core alone: a 16 KiB table that stays in L1. */
constexpr Probe kCoreProbe{std::size_t(1) << 12, 5'000'000, 2.0};
volatile std::uint64_t probeSink;

/** CPU seconds of one probe: after a pass that brings its table back
 *  into the cache, hashed lookups at random positions with a
 *  data-dependent branch. */
double
probe(const Probe &p)
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(kMemoryProbe.words);
        std::uint32_t x = 2463534242u;
        for (std::uint32_t &v : t) {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            v = x;
        }
        return t;
    }();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < p.words; i += 16)
        acc += table[i];
    double start = cpuSeconds();
    std::uint64_t h = 88172645463325252ull;
    for (std::uint64_t i = 0; i < p.lookups; ++i) {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        std::uint32_t v = table[h & (p.words - 1)];
        if (v & 1)
            acc += v;
        else
            acc ^= h;
    }
    double s = cpuSeconds() - start;
    probeSink = acc;
    return s;
}

/** Reference-host seconds per CPU second, from probe samples. */
double
hostScale(const Probe &p, std::vector<double> samples)
{
    return p.refNs * 1e-9 * double(p.lookups) / median(std::move(samples));
}

/** Adds the lifetime of the scope to a wall seconds accumulator and,
 *  when given one, the CPU seconds it used to a second accumulator. */
class Span
{
  public:
    explicit Span(double &acc, double *cpu = nullptr)
        : _acc(acc), _cpu(cpu), _start(Clock::now()),
          _cpuStart(cpu ? cpuSeconds() : 0.0)
    {
    }
    ~Span()
    {
        _acc += secondsSince(_start);
        if (_cpu)
            *_cpu += cpuSeconds() - _cpuStart;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    double &_acc;
    double *_cpu;
    Clock::time_point _start;
    double _cpuStart;
};

constexpr std::size_t kDomains = std::size_t(selfprof::Domain::N);

std::uint64_t
fnv64(const std::string &text, std::uint64_t h = 1469598103934665603ull)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

double
stat(const StatSet &s, const char *name)
{
    return s.has(name) ? s.get(name) : 0.0;
}

/** Exact simulated counts of a repetition (identical on every rep). */
struct Counts
{
    std::uint64_t insts = 0, funcInsts = 0, funcMemAccesses = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t llcReads = 0, llcBankQueueCycles = 0;
    std::uint64_t dramBytes = 0, sspmElems = 0, camComparisons = 0;
    double cycles = 0; //!< sum of run makespans (sampled: estimate)
    double ciPct = 0;  //!< sampled CI half-width over its estimate
    std::uint64_t fingerprint = fnv64("");

    bool operator==(const Counts &) const = default;

    /** Fold one machine's StatSet (core or shared level) in; its
     *  JSON dump also extends the run's own @p run_fnv. */
    void
    add(const StatSet &s, std::uint64_t &run_fnv)
    {
        auto u = [&s](const char *n) {
            return std::uint64_t(stat(s, n));
        };
        insts += u("core.insts");
        funcInsts += u("sample.func_insts");
        funcMemAccesses += u("sample.func_mem_accesses");
        l1dAccesses += u("mem.l1d.reads") + u("mem.l1d.writes");
        l1dMisses += u("mem.l1d.read_misses") + u("mem.l1d.write_misses");
        llcReads += u("llc.reads");
        llcBankQueueCycles += u("llc.bank_queue_cycles");
        dramBytes += u("mem.dram.bytes_read") +
                     u("mem.dram.bytes_written") +
                     u("dram.bytes_read") + u("dram.bytes_written");
        sspmElems += u("sspm.direct_reads") + u("sspm.direct_writes") +
                     u("sspm.cam_reads") + u("sspm.cam_writes");
        camComparisons += u("cam.comparisons");
        std::ostringstream os;
        s.dumpJson(os);
        fingerprint = fnv64(os.str(), fingerprint);
        run_fnv = fnv64(os.str(), run_fnv);
    }
};

/** Everything one repetition measured. */
struct Rep
{
    bool traced = false;
    // Host seconds of the benchmark's own spans.
    double gen = 0, convert = 0, machine = 0, upload = 0;
    double runBase = 0, runVia = 0, check = 0, wall = 0;
    double probing = 0;         //!< host seconds spent probing
    // CPU seconds of the setup spans and the kernel calls.
    double setupCpu = 0, runCpu = 0;
    std::vector<double> memoryProbes, coreProbes; //!< probe samples
    // Selfprof exclusive seconds inside the kernel calls (traced),
    // split by the base and VIA variant of each kernel.
    std::array<double, kDomains> domainBase{}, domainVia{};
    Counts counts;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> lines; //!< per-run report lines

    double setup() const { return gen + convert + machine + upload; }
    double run() const { return runBase + runVia; }
    /** Take one sample of each host speed probe. */
    void
    probeNow()
    {
        Span s(probing);
        memoryProbes.push_back(probe(kMemoryProbe));
        coreProbes.push_back(probe(kCoreProbe));
    }
    /** Scale of the kernel calls: the memory probe alone. */
    double
    runScale() const
    {
        return hostScale(kMemoryProbe, memoryProbes);
    }
    /** Scale of the setup, which leans on the core more than the
     *  kernel calls do: the geometric mean of both probes' scales. */
    double
    setupScale() const
    {
        return std::sqrt(runScale() * hostScale(kCoreProbe, coreProbes));
    }
    double
    domain(std::size_t d) const
    {
        return domainBase[d] + domainVia[d];
    }
    double
    domainSum() const
    {
        double s = 0;
        for (std::size_t d = 0; d < kDomains; ++d)
            s += domain(d);
        return s;
    }
};

/** Per-repetition context shared by the workload bodies. */
struct Ctx
{
    Rep &rep;
    Rng rng;
    bool perturb;
    MachineParams params;

    /** Time one kernel call; collect selfprof domains when tracing. */
    template <typename Fn>
    auto
    kernel(bool via, Fn &&fn)
    {
        if (rep.traced)
            selfprof::reset();
        std::optional<decltype(fn())> res;
        {
            Span s(via ? rep.runVia : rep.runBase, &rep.runCpu);
            res.emplace(fn());
        }
        rep.probeNow();
        if (rep.traced) {
            auto &domain = via ? rep.domainVia : rep.domainBase;
            for (std::size_t d = 0; d < kDomains; ++d)
                domain[d] +=
                    double(selfprof::stats(selfprof::Domain(d)).ns) *
                    1e-9;
        }
        return std::move(*res);
    }

    /** A span of setup work, also counted in its CPU seconds. */
    Span
    setup(double &acc)
    {
        return Span(acc, &rep.setupCpu);
    }

    /** Count one checked kernel run and record its report line. */
    void
    finish(const std::string &name, double cycles, bool ok,
           std::uint64_t fnv, double base_cycles)
    {
        rep.attempted += 1;
        rep.failed += ok ? 0 : 1;
        rep.counts.cycles += cycles;
        char buf[256];
        int n = std::snprintf(buf, sizeof buf,
                              "run %-22s cycles %.0f  stats_fnv64 %016llx"
                              "  check %s",
                              name.c_str(), cycles,
                              static_cast<unsigned long long>(fnv),
                              ok ? "ok" : "MISMATCH");
        if (base_cycles > 0)
            std::snprintf(buf + n, sizeof buf - std::size_t(n),
                          "  via_speedup %.4f", base_cycles / cycles);
        rep.lines.emplace_back(buf);
    }

    /** Corrupt the first checked result when --perturb is on. */
    void
    maybePerturb(DenseVector &y)
    {
        if (perturb && rep.attempted == 0 && !y.empty())
            y[0] += 1.0f;
    }
};

/** Fold a run's stats into the rep's counts; returns the run's own
 *  stats fingerprint. */
std::uint64_t
record(Ctx &c, const Machine &m)
{
    std::uint64_t fnv = fnv64("");
    c.rep.counts.add(m.stats(), fnv);
    return fnv;
}

std::uint64_t
record(Ctx &c, MultiMachine &mm)
{
    std::uint64_t fnv = fnv64("");
    c.rep.counts.add(mm.stats(), fnv);
    for (unsigned i = 0; i < mm.cores(); ++i)
        c.rep.counts.add(mm.core(i).stats(), fnv);
    return fnv;
}

// ------------------------------------------------------------------
// Workloads. Input sizes and the reason for each are in README.md.
// ------------------------------------------------------------------

/** Detailed, cores=1: vector-CSB and VIA-CSB SpMV at both ends of
 *  CSB block density (uniform scatter vs a dense band). */
void
spmvCsb1core(Ctx &c)
{
    for (int input = 0; input < 2; ++input) {
        const char *tag = input == 0 ? "uniform" : "banded";
        Csr a;
        DenseVector x;
        {
            auto s = c.setup(c.rep.gen);
            a = input == 0 ? genUniform(16384, 16384, 0.005, c.rng)
                           : genBandedCsr(16384, 64, 0.9, c.rng);
            x = randomVector(a.cols(), c.rng);
        }
        DenseVector ref;
        {
            Span s(c.rep.check);
            ref = a.multiply(x);
        }
        std::optional<Csb> csb;
        double base_cycles = 0;
        for (bool via : {false, true}) {
            std::unique_ptr<Machine> m;
            {
                auto s = c.setup(c.rep.machine);
                m = std::make_unique<Machine>(c.params);
            }
            if (!csb) {
                auto s = c.setup(c.rep.convert);
                csb.emplace(Csb::fromCsr(a, kernels::viaCsbBeta(*m)));
            }
            kernels::CsbImage img;
            {
                auto s = c.setup(c.rep.upload);
                img = kernels::uploadCsb(*m, *csb);
            }
            auto res = c.kernel(via, [&] {
                return via ? kernels::spmvViaCsbAt(*m, *csb, img, x)
                           : kernels::spmvVectorCsbAt(*m, *csb, img, x);
            });
            Span s(c.rep.check);
            c.maybePerturb(res.y);
            bool ok = allClose(res.y, ref);
            std::uint64_t fnv = record(c, *m);
            m.reset();
            c.finish(std::string("spmv_") + tag + (via ? ".via" : ".base"),
                     double(res.cycles), ok, fnv, via ? base_cycles : 0);
            base_cycles = double(res.cycles);
        }
    }
}

/** Detailed, cores=4, static partition: SpMV-CSB on the uniform
 *  matrix and SpMA (scalar merge vs VIA CAM) over the shared LLC. */
void
mixed4core(Ctx &c)
{
    const auto part = kernels::Partition::Static;
    Csr a, sa, sb;
    DenseVector x;
    {
        auto s = c.setup(c.rep.gen);
        a = genUniform(16384, 16384, 0.005, c.rng);
        x = randomVector(a.cols(), c.rng);
        sa = genUniform(8192, 8192, 0.004, c.rng);
        sb = genUniform(8192, 8192, 0.004, c.rng);
    }
    DenseVector ref_y;
    Csr ref_c;
    {
        Span s(c.rep.check);
        ref_y = a.multiply(x);
        ref_c = addCsr(sa, sb);
    }
    auto machine = [&c] {
        auto s = c.setup(c.rep.machine);
        return std::make_unique<MultiMachine>(c.params, 4);
    };

    double base_cycles = 0;
    for (bool via : {false, true}) {
        auto mm = machine();
        auto res = c.kernel(via, [&] {
            return kernels::spmvParallel(*mm, a, x, "csb", part, via);
        });
        Span s(c.rep.check);
        c.maybePerturb(res.y);
        bool ok = allClose(res.y, ref_y);
        std::uint64_t fnv = record(c, *mm);
        mm.reset();
        c.finish(std::string("spmv_csb_4c") + (via ? ".via" : ".base"),
                 double(res.cycles), ok, fnv, via ? base_cycles : 0);
        base_cycles = double(res.cycles);
    }
    for (bool via : {false, true}) {
        auto mm = machine();
        auto res = c.kernel(via, [&] {
            return kernels::spmaParallel(*mm, sa, sb, part, via);
        });
        Span s(c.rep.check);
        bool ok = closeElements(res.c, ref_c, 1e-3);
        std::uint64_t fnv = record(c, *mm);
        mm.reset();
        c.finish(std::string("spma_4c") + (via ? ".via" : ".base"),
                 double(res.cycles), ok, fnv, via ? base_cycles : 0);
        base_cycles = double(res.cycles);
    }
}

/** Sampled, cores=1: VIA-CSB SpMV of a power-law RMAT matrix through
 *  the resident-matrix API with the default sampling settings. */
void
rmatSampled(Ctx &c)
{
    Csr a;
    DenseVector x;
    {
        auto s = c.setup(c.rep.gen);
        a = genRmatCsr(Index(1) << 19, std::size_t(1) << 20, c.rng);
        x = randomVector(a.cols(), c.rng);
    }
    DenseVector ref;
    {
        Span s(c.rep.check);
        ref = a.multiply(x);
    }
    std::unique_ptr<Machine> m;
    {
        auto s = c.setup(c.rep.machine);
        m = std::make_unique<Machine>(c.params);
    }
    // SpmvResident converts to CSB and uploads in its constructor,
    // so this one span covers both (sparse.convert_s reads 0 here).
    std::optional<kernels::SpmvResident> resident;
    {
        auto s = c.setup(c.rep.upload);
        resident.emplace(*m, a, "csb", BackendKind::Via);
    }
    sample::SampleOptions sopts;
    sopts.mode = sample::SimMode::Sampled;
    kernels::SpmvResult res;
    auto est = c.kernel(true, [&] {
        return sample::runWith(*m, sopts,
                               [&] { res = resident->run(*m, x); });
    });
    Span s(c.rep.check);
    c.maybePerturb(res.y);
    bool ok = allClose(res.y, ref);
    std::uint64_t fnv = record(c, *m);
    resident.reset();
    m.reset();
    c.rep.counts.ciPct =
        est.cycles > 0
            ? 100.0 * (est.ciHigh - est.ciLow) / 2.0 / est.cycles
            : 0.0;
    c.finish("spmv_rmat_sampled.via", est.cycles, ok, fnv, 0);
}

struct Workload
{
    const char *name;
    void (*body)(Ctx &);
};

constexpr Workload kWorkloads[] = {
    {"spmv_csb_1core", spmvCsb1core},
    {"mixed_4core", mixed4core},
    {"rmat_sampled", rmatSampled},
};

Rep
runRep(const Workload &w, std::uint64_t seed, bool traced,
       bool perturb)
{
    Rep rep;
    rep.traced = traced;
    selfprof::enable(traced);
    Ctx c{rep, Rng(seed), perturb, MachineParams()};
    auto start = Clock::now();
    rep.probeNow();
    w.body(c);
    rep.wall = secondsSince(start);
    selfprof::enable(false);
    return rep;
}

// ------------------------------------------------------------------
// Reporting.
// ------------------------------------------------------------------

template <typename Fn>
double
medianOf(const std::vector<const Rep *> &reps, Fn &&fn)
{
    std::vector<double> v;
    for (const Rep *r : reps)
        v.push_back(fn(*r));
    return median(std::move(v));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char buf[49] = {};
        std::memcpy(buf, regs, 48);
        std::string s(buf);
        auto first = s.find_first_not_of(' ');
        auto last = s.find_last_not_of(' ');
        if (first != std::string::npos)
            return s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu,"
                " \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench --workload "
                 "spmv_csb_1core|mixed_4core|rmat_sampled [--seed N] "
                 "[--seconds S] [--trace 0|1] [--perturb 0|1]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false, perturb = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            for (const Workload &w : kWorkloads)
                if (val == w.name)
                    workload = &w;
            if (!workload)
                return usage();
        } else if (key == "--seed") {
            seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace" || key == "--perturb") {
            if (val != "0" && val != "1")
                return usage();
            (key == "--trace" ? trace : perturb) = val == "1";
        } else {
            return usage();
        }
        if (end && (*end != '\0' || end == val.c_str()))
            return usage();
    }
    if (!workload || !(seconds >= 0))
        return usage();
    // The invariant checker and a live profiler change what is timed.
    if (check::envEnabled() || selfprof::enabled()) {
        std::fprintf(stderr, "hostbench: refusing to time with "
                             "VIA_CHECK or selfprof enabled\n");
        return 3;
    }

    std::printf("host: nproc %ld  cpu \"%s\"  compiler \"%s\"  build %s\n",
                sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
                kCompiler, PERFBENCH_BUILD_TYPE);
    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                workload->name, static_cast<unsigned long long>(seed),
                seconds, int(trace));

    // Traced runs alternate untraced and traced repetitions, so the
    // overhead ratio compares neighbours; at least two of each.
    std::vector<Rep> reps;
    auto start = Clock::now();
    auto enough = [&] {
        std::size_t want = trace ? 4 : 1;
        return reps.size() >= want && secondsSince(start) >= seconds;
    };
    while (!enough()) {
        bool traced = trace && reps.size() % 2 == 1;
        const Rep &r =
            reps.emplace_back(runRep(*workload, seed, traced, perturb));
        std::printf("rep %zu%s  wall %.4f s  setup %.4f s  run %.4f s"
                    "  %.2f ns/cycle  cpu %.2f ns/cycle  scale %.4f"
                    "  setup scale %.4f\n",
                    reps.size() - 1, traced ? " traced" : "", r.wall,
                    r.setup(), r.run(), r.run() * 1e9 / r.counts.cycles,
                    r.runCpu * 1e9 / r.counts.cycles, r.runScale(),
                    r.setupScale());
        std::fflush(stdout);
    }

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    for (const Rep &r : reps) {
        attempted += r.attempted;
        failed += r.failed;
        if (!(r.counts == reps.front().counts)) {
            std::printf("error: repetition counts or stats fingerprint "
                        "differ from the first repetition\n");
            correct = false;
        }
    }
    for (const std::string &line : reps.front().lines)
        std::printf("%s\n", line.c_str());
    const Counts &k = reps.front().counts;
    std::printf("fingerprint %016llx  cycles %.0f  insts %llu  reps %zu\n",
                static_cast<unsigned long long>(k.fingerprint), k.cycles,
                static_cast<unsigned long long>(k.insts), reps.size());
    correct = correct && failed == 0;

    // The first repetition warms the heap and the caches; a timed run
    // leaves it out of its metrics when later repetitions exist.
    std::vector<const Rep *> timed, traced;
    for (std::size_t i = !trace && reps.size() > 1 ? 1 : 0;
         i < reps.size(); ++i)
        (reps[i].traced ? traced : timed).push_back(&reps[i]);

    std::vector<Metric> metrics;
    if (!trace) {
        struct rusage ru = {};
        getrusage(RUSAGE_SELF, &ru);
        // Each repetition is scaled by its own probes, which sample
        // the host while it ran.
        const double per_cycle = 1e9 / k.cycles;
        std::printf(
            "medians: wall %.2f ns/cycle  cpu %.2f ns/cycle  scale %.4f"
            "  setup cpu %.4f s  setup scale %.4f\n",
            medianOf(timed, [](const Rep &r) { return r.run(); }) *
                per_cycle,
            medianOf(timed, [](const Rep &r) { return r.runCpu; }) *
                per_cycle,
            medianOf(timed, [](const Rep &r) { return r.runScale(); }),
            medianOf(timed, [](const Rep &r) { return r.setupCpu; }),
            medianOf(timed, [](const Rep &r) { return r.setupScale(); }));
        // The probe table stays resident from the first probe on, so
        // it is taken out of the peak.
        const double table_mb =
            double(kMemoryProbe.words * sizeof(std::uint32_t)) /
            (1 << 20);
        metrics = {
            {"ns_per_cycle", medianOf(timed, [](const Rep &r) {
                 return r.runCpu * r.runScale();
             }) * per_cycle,
             "ns/cycle"},
            {"setup_s", medianOf(timed, [](const Rep &r) {
                 return r.setupCpu * r.setupScale();
             }),
             "s"},
            {"peak_rss_mb", double(ru.ru_maxrss) / 1024.0 - table_mb,
             "MB"},
        };
    } else {
        // Reconciliation, per traced repetition: the spans cover the
        // wall time, and the selfprof domains fit inside the kernel
        // calls (emission, functional semantics and the backing
        // store are the non-negative rest).
        for (const Rep *r : traced) {
            double covered =
                r->setup() + r->run() + r->check + r->probing;
            double gap = r->wall - covered;
            double rest = r->run() - r->domainSum();
            std::printf("reconcile: wall %.4f s  spans %.4f s  gap %.4f s"
                        "  emit_exec %.4f s\n",
                        r->wall, covered, gap, rest);
            if (gap > 0.01 * r->wall + 1e-3 || gap < -1e-3 ||
                rest < 0) {
                std::printf("error: traced spans do not reconcile\n");
                correct = false;
            }
        }
        auto dom = [&traced](selfprof::Domain d) {
            return medianOf(traced, [d](const Rep &r) {
                return r.domain(std::size_t(d));
            });
        };
        auto emit = [](const Rep &r) { return r.run() - r.domainSum(); };
        using D = selfprof::Domain;
        const double all_insts = double(k.insts + k.funcInsts);
        const double accesses = double(k.l1dAccesses + k.funcMemAccesses);
        auto t = [&traced](auto fn) { return medianOf(traced, fn); };
        metrics = {
            {"sparse.gen_s", t([](const Rep &r) { return r.gen; }), "s"},
            {"sparse.convert_s", t([](const Rep &r) { return r.convert; }),
             "s"},
            {"cpu.machine_s", t([](const Rep &r) { return r.machine; }),
             "s"},
            {"kernels.upload_s", t([](const Rep &r) { return r.upload; }),
             "s"},
            {"kernels.run_s", t([](const Rep &r) { return r.run(); }), "s"},
            {"kernels.run_base_s",
             t([](const Rep &r) { return r.runBase; }), "s"},
            {"kernels.run_via_s", t([](const Rep &r) { return r.runVia; }),
             "s"},
            {"bench.check_s", t([](const Rep &r) { return r.check; }), "s"},
            {"cpu.core_s", dom(D::Core), "s"},
            {"cpu.core_ns_per_inst",
             ratio(dom(D::Core) * 1e9, double(k.insts)), "ns/inst"},
            {"via.fivu_s", dom(D::Fivu), "s"},
            {"via.fivu_ns_per_elem",
             ratio(dom(D::Fivu) * 1e9, double(k.sspmElems)), "ns/elem"},
            {"via.fivu_via_pct", t([](const Rep &r) {
                 return 100.0 * ratio(r.domainVia[std::size_t(D::Fivu)],
                                      r.runVia);
             }), "%"},
            {"mem.cache_s", dom(D::Cache), "s"},
            {"mem.cache_ns_per_access",
             ratio(dom(D::Cache) * 1e9, accesses), "ns/access"},
            {"mem.dram_s", dom(D::Dram), "s"},
            {"kernels.emit_exec_s", t(emit), "s"},
            {"kernels.emit_ns_per_inst", ratio(t(emit) * 1e9, all_insts),
             "ns/inst"},
            {"cpu.insts", double(k.insts), "count"},
            {"cpu.cycles", k.cycles, "cycles"},
            {"sample.func_insts", double(k.funcInsts), "count"},
            {"sample.func_mem_accesses", double(k.funcMemAccesses),
             "count"},
            {"sample.ci_pct", k.ciPct, "%"},
            {"mem.l1d.accesses", double(k.l1dAccesses), "count"},
            {"mem.l1d.misses", double(k.l1dMisses), "count"},
            {"mem.llc.reads", double(k.llcReads), "count"},
            {"mem.llc.bank_queue_cycles", double(k.llcBankQueueCycles),
             "cycles"},
            {"mem.dram.bytes", double(k.dramBytes), "bytes"},
            {"via.sspm_elems", double(k.sspmElems), "count"},
            {"via.cam_comparisons", double(k.camComparisons), "count"},
            {"trace.overhead_ratio",
             ratio(t([](const Rep &r) { return r.run(); }),
                   medianOf(timed, [](const Rep &r) { return r.run(); })),
             "ratio"},
        };
        // Shares of the traced wall time, for reading the split.
        double wall = t([](const Rep &r) { return r.wall; });
        for (const Metric &m : metrics)
            if (std::strcmp(m.unit, "s") == 0 &&
                m.name != "kernels.run_s")
                std::printf("share %-22s %6.1f%%\n", m.name.c_str(),
                            100.0 * m.value / wall);
        std::printf("selfprof event-queue %.6f s\n", dom(D::EventQueue));
        // The VIA runs alone, where the FIVU is exercised.
        for (std::size_t d = 0; d < kDomains; ++d)
            std::printf("via-runs share %-12s %6.1f%%\n",
                        selfprof::domainName(selfprof::Domain(d)),
                        t([d](const Rep &r) {
                            return 100.0 *
                                   ratio(r.domainVia[d], r.runVia);
                        }));
        std::printf("via-runs share %-12s %6.1f%%\n", "emit_exec",
                    t([](const Rep &r) {
                        double dom = 0;
                        for (double d : r.domainVia)
                            dom += d;
                        return 100.0 * ratio(r.runVia - dom, r.runVia);
                    }));
    }
    printJson(correct, attempted, failed, metrics);
    return 0;
}
