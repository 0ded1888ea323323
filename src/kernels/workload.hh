/**
 * @file
 * The workload table: one entry per kernel the paper compares (SpMV,
 * SpMA, SpMM, histogram, stencil). An entry is the one place that
 * knows, for its kernel, how to build the input from a tool's options,
 * which host golden to compute, which labels and headers to print,
 * which kernels run in each column and how a result is checked.
 *
 * via_sim and via_db are front ends over this table: each of their
 * paths (detailed, functional/sampled, cores>1, sweep=1, the debug
 * target) is one generic function that looks the kernel up here.
 * via_fuzz keeps its own adversarial generators and variant lists,
 * but every comparison it makes goes through matchesGolden(), so each
 * kernel's tolerance is written once. Adding a kernel is adding one
 * entry (plus, for the fuzzer, one generator).
 */

#ifndef VIA_KERNELS_WORKLOAD_HH
#define VIA_KERNELS_WORKLOAD_HH

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "kernels/parallel.hh"
#include "simcore/options.hh"
#include "simcore/rng.hh"

namespace via::kernels
{

/** One kernel run: the kernel's cycles and its golden check. */
struct RunOutcome
{
    Tick cycles = 0;
    bool ok = false;
};

/** Why a built input cannot run on one machine configuration. */
struct Misfit
{
    std::string why;  //!< usage diagnosis (the tool prefixes its name)
    std::string skip; //!< non-empty: a sweep skips the point, noting this
};

/** One software-baseline column of the single-core comparison. */
struct BaselineColumn
{
    std::string label;
    std::function<Tick(Machine &)> run; //!< returns the kernel's cycles
};

/**
 * One built input: the operands and the host golden, computed once.
 * Every closure shares them read-only, so sweep points on worker
 * threads and via_db's rewind replays all run the identical work.
 */
struct WorkloadInput
{
    std::string shape;  //!< header text, e.g. "64x64, 217 nnz"
    std::string format; //!< spmv's sparse format; "" for the others

    /** Single-core baselines; later columns' speedups are against
     *  the first. */
    std::vector<BaselineColumn> baselines;
    /** The backend-following *Accel kernel, checked. */
    std::function<RunOutcome(Machine &)> accel;
    /** The *Parallel kernel (@p via picks VIA over the baseline),
     *  checked. */
    std::function<RunOutcome(MultiMachine &, Partition, bool via)>
        parallel;
    /** Whether the input fits a configuration (nullopt: it does). */
    std::function<std::optional<Misfit>(const MachineParams &)> fit =
        [](const MachineParams &) { return std::optional<Misfit>(); };

    /** @p base as printed for this input: SpMV appends its format
     *  ("VIA csb", trace phase "spmv_csb"). */
    std::string label(const char *base, char sep = ' ') const;
    /** The format tag of sweep and debugger headers (" (csb)"). */
    std::string tag() const;
};

/** One kernel of the paper's comparison. */
struct Workload
{
    const char *name;  //!< kernel key and trace phase ("spmv")
    const char *title; //!< header name ("SpMV")
    /** The accelerated column's label, indexed by BackendKind. */
    std::array<const char *, 4> accelLabels;
    /** The cores>1 columns: {baseline, VIA}. */
    std::array<const char *, 2> parallelLabels;
    /** timeline=N samples this kernel's IPC (SpMV only). */
    bool timeline;
    /**
     * Draw the input from @p rng in the kernel's fixed order and
     * compute the golden. @p opts is the tool's registry, so its
     * defaults apply (via_db's px=64); it must register the input
     * keys (mtx, matrix, rows, density, family, format, keys,
     * buckets, px, partition). stream= and inject_error= are read
     * only where registered.
     */
    WorkloadInput (*build)(const Options &opts, Rng &rng);
    /** Kernel-specific key checks (SpMV's format), or nullptr. */
    std::string (*checkKeys)(const Options &opts, unsigned cores);
};

/** The table, in its fixed order (via_fuzz salts by position). */
const std::vector<Workload> &workloads();

/** The entry named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/**
 * Check the input keys of a @p cores-core run of @p w before anything
 * is built: the synthetic family, stream=1's families, the partition,
 * SpMV's format (csr|csb at cores>1), and that cores>1 runs on the VIA
 * backend. Returns the usage diagnosis, or "" when they are valid.
 */
std::string checkWorkloadKeys(const Workload &w, const Options &opts,
                              const MachineParams &params,
                              unsigned cores);

/**
 * Golden checks: each kernel's comparison and tolerance, shared by
 * the table and the fuzzer.
 */
bool matchesGolden(const SpmvResult &res, const DenseVector &golden);
bool matchesGolden(const SpmaResult &res, const Csr &golden);
bool matchesGolden(const SpmmResult &res, const Csr &golden);
bool matchesGolden(const HistResult &res,
                   const std::vector<Value> &golden);
bool matchesGolden(const StencilResult &res,
                   const DenseMatrix &golden);

/**
 * True when SpMM on @p a can run on @p params: the VIA kernel loads
 * whole A rows into the CAM; the other backends have no such cliff.
 */
bool spmmFitsCam(const Csr &a, const MachineParams &params);

} // namespace via::kernels

#endif // VIA_KERNELS_WORKLOAD_HH
