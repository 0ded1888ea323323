/**
 * @file
 * Multi-core variants of the five kernels, driving a MultiMachine,
 * and the partitioning they share.
 *
 * Each kernel uploads its operands once into the shared backing
 * store, partitions the work across the cores, and emits one
 * independent instruction stream per core. The streams are the
 * serial kernels' own: every kernel file splits each base and VIA
 * kernel into a per-core prologue and a body over an index range
 * (rows, block rows, keys, image rows), and the *Parallel entry
 * points run those bodies chunk by chunk through dispatchUnits.
 * Output regions are disjoint per core (rows, block rows, key
 * chunks, image stripes), so the kernels need no locks; the shared
 * LLC resolves the timing side (bank contention, coherence)
 * analytically.
 *
 * Two partitioning policies:
 *
 *  - Static: one balanced contiguous range per core. Zero scheduling
 *    overhead, but skewed inputs (a few dense rows) idle most cores.
 *  - Steal: the range is cut into ~8 chunks per core; each chunk is
 *    handed to whichever core currently has the earliest commit
 *    front (ties to the lowest id). This is a deterministic
 *    idealization of work stealing: the simulator can see every
 *    core's clock, so "stealing" reduces to greedy least-loaded
 *    assignment, and repeated runs schedule identically.
 *
 * Everything is driven from one host thread; determinism holds for
 * any core count.
 */

#ifndef VIA_KERNELS_PARALLEL_HH
#define VIA_KERNELS_PARALLEL_HH

#include <string>
#include <utility>
#include <vector>

#include "cpu/multi_machine.hh"
#include "kernels/histogram.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "kernels/spmv.hh"
#include "kernels/stencil.hh"
#include "sparse/csc.hh"

namespace via::kernels
{

/** How parallel kernels split their iteration space over cores. */
enum class Partition
{
    Static, //!< balanced contiguous ranges
    Steal,  //!< greedy least-loaded chunk assignment
};

/** Parse "static" / "steal"; fatal on anything else. */
Partition parsePartition(const std::string &name);

/** The harness-facing name of @p p. */
const char *partitionName(Partition p);

/**
 * Balanced contiguous split of [0, n) into @p cores ranges; the
 * first n % cores ranges are one element longer. Empty ranges are
 * returned as (lo, lo). Exposed for tests.
 */
std::vector<std::pair<Index, Index>> staticRanges(Index n,
                                                  unsigned cores);

/**
 * Multi-core SpMV. @p fmt selects csr or csb (the spc5 and sell
 * kernels are inherently sequential over their block/chunk streams
 * and stay single-core); @p via picks the VIA kernel over the
 * vector baseline. Rows (csr) or block rows (csb) partition.
 */
SpmvResult spmvParallel(MultiMachine &mm, const Csr &a,
                        const DenseVector &x, const std::string &fmt,
                        Partition part, bool via);

/** Multi-core SpMA over row ranges; per-core output regions are
 *  assembled host-side. */
SpmaResult spmaParallel(MultiMachine &mm, const Csr &a, const Csr &b,
                        Partition part, bool via);

/** Multi-core SpMM partitioning A's rows. */
SpmmResult spmmParallel(MultiMachine &mm, const Csr &a, const Csc &b,
                        Partition part, bool via);

/**
 * Multi-core histogram: contiguous key chunks per core into private
 * partial arrays, reduced by core 0. Steal degenerates to
 * round-robin chunk interleaving (uniform chunk cost).
 */
HistResult histParallel(MultiMachine &mm,
                        const std::vector<Index> &keys, Index buckets,
                        Partition part, bool via);

/** Multi-core 4x4 stencil over output-row stripes (each core reads
 *  a 3-row halo of its neighbour's input rows). */
StencilResult stencilParallel(MultiMachine &mm, const DenseMatrix &img,
                              Partition part, bool via);

} // namespace via::kernels

#endif // VIA_KERNELS_PARALLEL_HH
