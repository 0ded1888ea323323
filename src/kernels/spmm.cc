#include "kernels/spmm.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "kernels/parallel.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

/** Both kernels keep the running output count in this register. */
constexpr SReg s_out{7};

/** A (CSR) and B (CSC) on the host and in simulated memory. */
struct Operands
{
    const Csr &a;
    const Csc &b;
    Addr aPtr = 0, aCol = 0, aVal = 0;
    Addr bPtr = 0, bRow = 0, bVal = 0;
};

Operands
uploadOperands(Machine &m, const Csr &a, const Csc &b)
{
    via_assert(a.cols() == b.rows(), "SpMM shape mismatch");
    Operands op{a, b};
    op.aPtr = upload(m, a.rowPtr());
    op.aCol = upload(m, a.colIdx());
    op.aVal = upload(m, a.values());
    op.bPtr = upload(m, b.colPtr());
    op.bRow = upload(m, b.rowIdx());
    op.bVal = upload(m, b.values());
    return op;
}

/** Output capacity: the inner-product result has at most rows*cols
 *  entries, but allocating that is wasteful; a safe, tight-enough
 *  bound is min(rows*cols, nnzA * max col nnz). */
std::size_t
outputBound(const Csr &a, const Csc &b)
{
    std::size_t bound = std::size_t(a.rows()) * std::size_t(b.cols());
    std::size_t alt = a.nnz() * std::size_t(std::max<Index>(
                                    b.maxColNnz(), 1));
    return std::min(bound, alt + 1);
}

/** Scalar two-pointer intersection of rows [lo, hi) into @p c;
 *  records row_ptr[r + 1] = c.out after each row. */
void
scalarRows(Machine &m, const Operands &op, CsrOut &c,
           std::vector<Index> &row_ptr, Index lo, Index hi)
{
    const Csr &a = op.a;
    const Csc &b = op.b;
    SReg s_ka{0}, s_kb{1}, s_ai{2}, s_bi{3}, s_v{4}, s_v2{5},
        s_acc{6}, s_j{8}, s_r{9};

    for (Index r = lo; r < hi; ++r) {
        m.sload(s_ka, op.aPtr + 4 * (Addr(r) + 1), 4);
        Index a_lo = a.rowPtr()[std::size_t(r)];
        Index a_hi = a.rowPtr()[std::size_t(r) + 1];
        if (a_lo == a_hi) {
            m.sbranch(s_ka); // empty row: skip all columns
            m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
            row_ptr[std::size_t(r) + 1] = c.out;
            continue;
        }
        for (Index j = 0; j < b.cols(); ++j) {
            m.sload(s_kb, op.bPtr + 4 * (Addr(j) + 1), 4);
            m.sbranch(s_kb);
            Index b_lo = b.colPtr()[std::size_t(j)];
            Index b_hi = b.colPtr()[std::size_t(j) + 1];
            if (b_lo == b_hi)
                continue;

            // Two-pointer index matching (Algorithm 3 line 4).
            m.salu(s_acc, 0);
            Index ka = a_lo, kb = b_lo;
            bool any = false;
            while (ka < a_hi && kb < b_hi) {
                m.sload(s_ai, op.aCol + 4 * Addr(ka), 4);
                m.sload(s_bi, op.bRow + 4 * Addr(kb), 4);
                m.salu(s_v, 0, s_ai, s_bi); // compare
                Index ca = a.colIdx()[std::size_t(ka)];
                Index cb = b.rowIdx()[std::size_t(kb)];
                // Data-dependent index-matching branches.
                m.sbranchData(s_v, 11, ca == cb);
                if (ca != cb)
                    m.sbranchData(s_v, 12, ca < cb);
                if (ca == cb) {
                    m.sloadF(s_v, op.aVal + 4 * Addr(ka), VT);
                    m.sloadF(s_v2, op.bVal + 4 * Addr(kb), VT);
                    m.sfmul(s_v, s_v, s_v2);
                    m.sfadd(s_acc, s_acc, s_v);
                    m.salu(s_ka, ka + 1, s_ka);
                    m.salu(s_kb, kb + 1, s_kb);
                    ++ka;
                    ++kb;
                    any = true;
                } else if (ca < cb) {
                    m.salu(s_ka, ka + 1, s_ka);
                    ++ka;
                } else {
                    m.salu(s_kb, kb + 1, s_kb);
                    ++kb;
                }
            }
            if (any) {
                m.simm(s_v, j);
                m.sstore(c.col + 4 * Addr(c.out), s_v, 4);
                m.sstoreF(c.val + 4 * Addr(c.out), s_acc, VT);
                m.salu(s_out, c.out + 1, s_out);
                ++c.out;
            }
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        row_ptr[std::size_t(r) + 1] = c.out;
    }
}

/** Every A row must fit the CAM (the VIA kernel loads it whole). */
void
checkRowsFitCam(const Machine &m, const Csr &a)
{
    const auto cam_cap = Index(m.sspm().config().camEntries());
    via_assert(a.maxRowNnz() <= cam_cap,
               "A row exceeds the CAM (", cam_cap, " entries): the "
               "VIA SpMM kernel requires rows to fit (paper "
               "Section IV: highly sparse inputs)");
}

/** VIA CAM index matching (Figure 4) of rows [lo, hi) into @p c;
 *  records row_ptr[r + 1] = c.out after each row. */
void
viaRows(Machine &m, const Operands &op, CsrOut &c,
        std::vector<Index> &row_ptr, Index lo, Index hi)
{
    const Csr &a = op.a;
    const Csc &b = op.b;
    const int vl = int(m.vl());
    VReg v_col{0}, v_val{1}, v_prod{2}, v_acc{3};
    SReg s_ka{0}, s_kb{1}, s_acc{2}, s_j{8}, s_r{9}, s_k{10};

    for (Index r = lo; r < hi; ++r) {
        m.sload(s_ka, op.aPtr + 4 * (Addr(r) + 1), 4);
        Index a_lo = a.rowPtr()[std::size_t(r)];
        Index a_hi = a.rowPtr()[std::size_t(r) + 1];
        if (a_lo == a_hi) {
            m.sbranch(s_ka);
            m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
            row_ptr[std::size_t(r) + 1] = c.out;
            continue;
        }

        // Figure 4 step 1: the A row's (col -> value) pairs enter
        // the CAM once per row.
        m.vidxClear();
        for (Index k = a_lo; k < a_hi; k += vl) {
            int n = std::min<Index>(vl, a_hi - k);
            m.vload(v_col, op.aCol + 4 * Addr(k), IT, n);
            m.vload(v_val, op.aVal + 4 * Addr(k), VT, n);
            m.vidxLoadC(v_val, v_col, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }

        for (Index j = 0; j < b.cols(); ++j) {
            m.sload(s_kb, op.bPtr + 4 * (Addr(j) + 1), 4);
            m.sbranch(s_kb);
            Index b_lo = b.colPtr()[std::size_t(j)];
            Index b_hi = b.colPtr()[std::size_t(j) + 1];
            if (b_lo == b_hi)
                continue;

            // Figure 4 steps 2-4: stream the column, match in the
            // CAM, multiply and reduce.
            m.vbroadcastF(v_acc, 0.0);
            bool any = false;
            for (Index k = b_lo; k < b_hi; k += vl) {
                int n = std::min<Index>(vl, b_hi - k);
                m.vload(v_col, op.bRow + 4 * Addr(k), IT, n);
                m.vload(v_val, op.bVal + 4 * Addr(k), VT, n);
                m.vidxMulC(v_val, v_col, ViaOut::Vrf, v_prod, n);
                m.vaddF(v_acc, v_acc, v_prod, n);
                m.salu(s_k, k + vl, s_k);
                m.sbranch(s_k);
            }
            // Structural-match test mirrors Algorithm 3's k != -1.
            for (Index k = b_lo; k < b_hi && !any; ++k) {
                Index row = b.rowIdx()[std::size_t(k)];
                auto &cols = a.colIdx();
                any = std::binary_search(
                    cols.begin() + a_lo, cols.begin() + a_hi, row);
            }
            m.vredsumF(s_acc, v_acc);
            if (any) {
                m.simm(s_k, j);
                m.sstore(c.col + 4 * Addr(c.out), s_k, 4);
                m.sstoreF(c.val + 4 * Addr(c.out), s_acc, VT);
                m.salu(s_out, c.out + 1, s_out);
                ++c.out;
            }
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        row_ptr[std::size_t(r) + 1] = c.out;
    }
}

using RowsFn = void (*)(Machine &, const Operands &, CsrOut &,
                        std::vector<Index> &, Index, Index);

/** One-core run: upload, one output region, all rows. */
SpmmResult
runSerial(Machine &m, const Csr &a, const Csc &b, RowsFn rows)
{
    Operands op = uploadOperands(m, a, b);
    CsrOut c = allocCsrOut(m, outputBound(a, b), a.rows());
    std::vector<Index> row_ptr(std::size_t(a.rows()) + 1, 0);
    m.sstore(c.ptr, s_out, 4);
    rows(m, op, c, row_ptr, 0, a.rows());
    auto nnz = std::size_t(row_ptr.back());
    return SpmmResult{Csr::fromParts(a.rows(), b.cols(),
                                     std::move(row_ptr),
                                     downloadIndices(m, c.col, nnz),
                                     downloadValues(m, c.val, nnz)),
                      m.cycles()};
}

} // namespace

SpmmResult
spmmScalarInner(Machine &m, const Csr &a, const Csc &b)
{
    return runSerial(m, a, b, scalarRows);
}

SpmmResult
spmmViaInner(Machine &m, const Csr &a, const Csc &b)
{
    checkRowsFitCam(m, a);
    return runSerial(m, a, b, viaRows);
}

SpmmResult
spmmParallel(MultiMachine &mm, const Csr &a, const Csc &b,
             Partition part, bool via)
{
    Operands op = uploadOperands(mm.core(0), a, b);
    if (via)
        checkRowsFitCam(mm.core(0), a);
    RowsFn rows = via ? viaRows : scalarRows;
    CsrParts p = rowsParallel(
        mm, a.rows(), outputBound(a, b), part,
        [&](Machine &m, CsrOut &c, std::vector<Index> &row_ptr,
            Index lo, Index hi) { rows(m, op, c, row_ptr, lo, hi); });
    return SpmmResult{Csr::fromParts(a.rows(), b.cols(),
                                     std::move(p.ptr),
                                     std::move(p.col),
                                     std::move(p.val)),
                      mm.cycles()};
}

} // namespace via::kernels
