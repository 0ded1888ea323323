/**
 * @file
 * Shared helpers for the kernel implementations: uploading host
 * arrays into simulated memory, output regions, reading results
 * back, and handing index ranges to the cores of a MultiMachine.
 */

#ifndef VIA_KERNELS_KERNEL_UTILS_HH
#define VIA_KERNELS_KERNEL_UTILS_HH

#include <algorithm>
#include <vector>

#include "cpu/machine.hh"
#include "kernels/parallel.hh"
#include "simcore/log.hh"
#include "sparse/coo.hh"
#include "sparse/csr.hh"
#include "sparse/dense.hh"
#include "sparse/sparse_types.hh"

namespace via::kernels
{

/** Upload a host array into simulated memory; returns its base. */
template <typename T>
Addr
upload(Machine &m, const std::vector<T> &host)
{
    return m.mem().allocArray(host);
}

/** Read a Value array back from simulated memory. */
inline DenseVector
downloadValues(const Machine &m, Addr base, std::size_t count)
{
    return m.mem().readArray<Value>(base, count);
}

/** Read an Index array back from simulated memory. */
inline std::vector<Index>
downloadIndices(const Machine &m, Addr base, std::size_t count)
{
    return m.mem().readArray<Index>(base, count);
}

/** Allocate a zero-filled Value array of @p count elements. */
inline Addr
allocValues(Machine &m, std::size_t count)
{
    return m.mem().alloc(count * sizeof(Value));
}

/** The dense SpMV operand and its output buffer. */
struct XY
{
    Addr x = 0;
    Addr y = 0;
};

/** Upload x and allocate a zeroed y of @p rows elements. */
inline XY
uploadXY(Machine &m, const DenseVector &x, Index rows)
{
    XY a;
    a.x = upload(m, x);
    a.y = allocValues(m, std::size_t(rows));
    return a;
}

/** Every histogram key must name a bucket. */
inline void
checkKeys(const std::vector<Index> &keys, Index buckets)
{
    for (Index k : keys)
        via_assert(k >= 0 && k < buckets, "key ", k, " outside [0, ",
                   buckets, ")");
}

/**
 * One output region of a sparse-result kernel (SpMA, SpMM): column,
 * value and row-pointer arrays in simulated memory, filled from
 * entry 0 in emission order.
 */
struct CsrOut
{
    Addr col = 0;
    Addr val = 0;
    Addr ptr = 0;
    Index out = 0; //!< entries written so far
};

/** Allocate a CsrOut of @p cap entries for @p rows rows. */
inline CsrOut
allocCsrOut(Machine &m, std::size_t cap, Index rows)
{
    CsrOut c;
    c.col = m.mem().alloc(cap * sizeof(Index));
    c.val = m.mem().alloc(cap * sizeof(Value));
    c.ptr = m.mem().alloc((std::size_t(rows) + 1) * sizeof(Index));
    return c;
}

/**
 * The canonical matrix of per-row (column, value) runs given in any
 * column order (CAM extraction emits insertion order): rebuilt from
 * triplets.
 */
inline Csr
canonicalCsr(Index rows, Index cols, const std::vector<Index> &row_ptr,
             const std::vector<Index> &col, const DenseVector &val)
{
    Coo coo(rows, cols);
    for (Index r = 0; r < rows; ++r)
        for (Index k = row_ptr[std::size_t(r)];
             k < row_ptr[std::size_t(r) + 1]; ++k)
            coo.add(r, col[std::size_t(k)], val[std::size_t(k)]);
    return Csr::fromCoo(std::move(coo));
}

/** Download a merge kernel's output arrays and canonicalize them. */
inline Csr
assembleResult(const Machine &m, Addr c_col, Addr c_val,
               const std::vector<Index> &c_row_ptr, Index rows,
               Index cols)
{
    auto nnz = std::size_t(c_row_ptr.back());
    return canonicalCsr(rows, cols, c_row_ptr,
                        downloadIndices(m, c_col, nnz),
                        downloadValues(m, c_val, nnz));
}

/** The chunk length Steal (and Static's interleaving) uses for n. */
Index stealChunk(Index n, unsigned cores);

/**
 * Hand contiguous ranges of [0, n) to @p body(core, lo, hi). Static:
 * one balanced range per core, emitted in chunk-sized slices
 * round-robin across the cores. Steal: chunks in range order, each
 * to the core whose commit front is earliest at assignment time
 * (ties to the lowest id). Either way every core sees its ranges in
 * ascending order, and one core runs the whole range as one call.
 */
template <typename Body>
void
dispatchUnits(MultiMachine &mm, Index n, Partition part, Body &&body)
{
    const unsigned cores = mm.cores();
    if (n <= 0)
        return;
    if (cores == 1) {
        body(0u, Index(0), n);
        return;
    }
    const Index chunk = stealChunk(n, cores);
    if (part == Partition::Static) {
        // The assignment is static, but the *emission* interleaves
        // chunk-sized slices of the per-core ranges round-robin.
        // The cores run concurrently, so their timelines must
        // advance together: the shared LLC banks and DRAM pipe book
        // cycles on a sliding window (Resource), and emitting one
        // core's whole share first would slide the window past its
        // siblings' start times, serializing them behind it.
        auto ranges = staticRanges(n, cores);
        for (bool more = true; more;) {
            more = false;
            for (unsigned c = 0; c < cores; ++c) {
                Index lo = ranges[c].first;
                if (lo >= ranges[c].second)
                    continue;
                Index hi =
                    std::min<Index>(lo + chunk, ranges[c].second);
                body(c, lo, hi);
                ranges[c].first = hi;
                if (hi < ranges[c].second)
                    more = true;
            }
        }
        return;
    }
    for (Index lo = 0; lo < n; lo += chunk) {
        Index hi = std::min<Index>(lo + chunk, n);
        unsigned best = 0;
        for (unsigned c = 1; c < cores; ++c)
            if (mm.core(c).cycles() < mm.core(best).cycles())
                best = c;
        body(best, lo, hi);
    }
}

/**
 * dispatchUnits with a per-core prologue: @p prologue(machine) runs
 * on each core once, right before that core's first chunk.
 */
template <typename Prologue, typename Body>
void
dispatchUnits(MultiMachine &mm, Index n, Partition part,
              Prologue &&prologue, Body &&body)
{
    std::vector<char> started(mm.cores(), 0);
    dispatchUnits(mm, n, part, [&](unsigned c, Index lo, Index hi) {
        if (!started[c]) {
            prologue(mm.core(c));
            started[c] = 1;
        }
        body(c, lo, hi);
    });
}

/**
 * Pre-computed per-core range lists, for kernels that must see all
 * of a core's work before emitting (the histogram's bucket-tiled
 * passes re-walk the core's whole key share per bucket range).
 * Static slices each core's balanced share into chunk-sized pieces;
 * Steal becomes round-robin chunk interleaving: chunk costs are
 * uniform, so least-loaded and round-robin coincide.
 */
std::vector<std::vector<std::pair<Index, Index>>>
assignRanges(unsigned cores, Index n, Partition part);

/** A sparse result gathered on the host, rows in order. */
struct CsrParts
{
    std::vector<Index> ptr, col;
    DenseVector val;
};

/**
 * A row-partitioned sparse-result kernel (SpMA, SpMM): one CsrOut of
 * @p cap entries per core, allocated on core 0 in core order, then
 * @p body(machine, out, row_ptr, lo, hi) over the dispatched row
 * chunks. The body records row_ptr[r + 1] = out.out after row r, so
 * each row's run in its core's region can be stitched back into row
 * order afterwards.
 */
template <typename Body>
CsrParts
rowsParallel(MultiMachine &mm, Index rows, std::size_t cap,
             Partition part, Body &&body)
{
    const unsigned cores = mm.cores();
    Machine &m0 = mm.core(0);
    std::vector<CsrOut> outs;
    for (unsigned c = 0; c < cores; ++c)
        outs.push_back(allocCsrOut(m0, cap, rows));
    std::vector<Index> row_ptr(std::size_t(rows) + 1, 0);
    std::vector<unsigned> row_core(std::size_t(rows), 0);
    dispatchUnits(mm, rows, part, [&](unsigned c, Index lo, Index hi) {
        body(mm.core(c), outs[c], row_ptr, lo, hi);
        std::fill(row_core.begin() + lo, row_core.begin() + hi, c);
    });

    // Every core emitted its rows in ascending order, so walking the
    // rows in order consumes each core's region front to back.
    std::vector<std::vector<Index>> cols(cores);
    std::vector<DenseVector> vals(cores);
    for (unsigned c = 0; c < cores; ++c) {
        cols[c] = downloadIndices(m0, outs[c].col,
                                  std::size_t(outs[c].out));
        vals[c] = downloadValues(m0, outs[c].val,
                                 std::size_t(outs[c].out));
    }
    CsrParts p;
    p.ptr.assign(std::size_t(rows) + 1, 0);
    std::vector<Index> pos(cores, 0);
    for (Index r = 0; r < rows; ++r) {
        unsigned c = row_core[std::size_t(r)];
        Index end = row_ptr[std::size_t(r) + 1];
        for (Index k = pos[c]; k < end; ++k) {
            p.col.push_back(cols[c][std::size_t(k)]);
            p.val.push_back(vals[c][std::size_t(k)]);
        }
        pos[c] = end;
        p.ptr[std::size_t(r) + 1] = Index(p.col.size());
    }
    return p;
}

} // namespace via::kernels

#endif // VIA_KERNELS_KERNEL_UTILS_HH
