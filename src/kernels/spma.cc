#include "kernels/spma.hh"

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
constexpr SReg s_out{6};

/** A and B on the host and in simulated memory. */
struct Operands
{
    const Csr &a;
    const Csr &b;
    CsrImage ai, bi;
};

Operands
uploadOperands(Machine &m, const Csr &a, const Csr &b)
{
    via_assert(a.rows() == b.rows() && a.cols() == b.cols(),
               "SpMA shape mismatch");
    CsrImage ai = uploadCsr(m, a);
    CsrImage bi = uploadCsr(m, b);
    return Operands{a, b, ai, bi};
}

/** Scalar sorted merge of rows [lo, hi) into @p c; records
 *  row_ptr[r + 1] = c.out after each row. */
void
scalarRows(Machine &m, const Operands &op, CsrOut &c,
           std::vector<Index> &row_ptr, Index lo, Index hi)
{
    const Csr &a = op.a, &b = op.b;
    SReg s_ka{0}, s_kb{1}, s_acol{2}, s_bcol{3}, s_v{4}, s_v2{5},
        s_r{7};

    auto emit_copy = [&](Addr col_arr, Addr val_arr, Index k,
                         SReg cursor) {
        m.sload(s_acol, col_arr + 4 * Addr(k), 4);
        m.sloadF(s_v, val_arr + 4 * Addr(k), VT);
        m.sstore(c.col + 4 * Addr(c.out), s_acol, 4);
        m.sstoreF(c.val + 4 * Addr(c.out), s_v, VT);
        m.salu(cursor, k + 1, cursor);
        m.sbranch(cursor);
    };

    for (Index r = lo; r < hi; ++r) {
        m.sload(s_ka, op.ai.rowPtr + 4 * (Addr(r) + 1), 4);
        m.sload(s_kb, op.bi.rowPtr + 4 * (Addr(r) + 1), 4);
        Index ka = a.rowPtr()[std::size_t(r)];
        Index kb = b.rowPtr()[std::size_t(r)];
        Index ea = a.rowPtr()[std::size_t(r) + 1];
        Index eb = b.rowPtr()[std::size_t(r) + 1];

        while (ka < ea && kb < eb) {
            m.sload(s_acol, op.ai.colIdx + 4 * Addr(ka), 4);
            m.sload(s_bcol, op.bi.colIdx + 4 * Addr(kb), 4);
            m.salu(s_v, 0, s_acol, s_bcol); // compare
            Index ca = a.colIdx()[std::size_t(ka)];
            Index cb = b.colIdx()[std::size_t(kb)];
            // The merge's control flow depends on the index data —
            // these branches are what real merge loops mispredict.
            m.sbranchData(s_v, 1, ca == cb);
            if (ca != cb)
                m.sbranchData(s_v, 2, ca < cb);
            if (ca == cb) {
                m.sloadF(s_v, op.ai.values + 4 * Addr(ka), VT);
                m.sloadF(s_v2, op.bi.values + 4 * Addr(kb), VT);
                m.sfadd(s_v, s_v, s_v2);
                m.sstore(c.col + 4 * Addr(c.out), s_acol, 4);
                m.sstoreF(c.val + 4 * Addr(c.out), s_v, VT);
                m.salu(s_ka, ka + 1, s_ka);
                m.salu(s_kb, kb + 1, s_kb);
                ++ka;
                ++kb;
            } else if (ca < cb) {
                m.sloadF(s_v, op.ai.values + 4 * Addr(ka), VT);
                m.sstore(c.col + 4 * Addr(c.out), s_acol, 4);
                m.sstoreF(c.val + 4 * Addr(c.out), s_v, VT);
                m.salu(s_ka, ka + 1, s_ka);
                ++ka;
            } else {
                m.sloadF(s_v, op.bi.values + 4 * Addr(kb), VT);
                m.sstore(c.col + 4 * Addr(c.out), s_bcol, 4);
                m.sstoreF(c.val + 4 * Addr(c.out), s_v, VT);
                m.salu(s_kb, kb + 1, s_kb);
                ++kb;
            }
            m.salu(s_out, c.out + 1, s_out);
            ++c.out;
        }
        while (ka < ea) {
            emit_copy(op.ai.colIdx, op.ai.values, ka, s_ka);
            ++ka;
            ++c.out;
        }
        while (kb < eb) {
            emit_copy(op.bi.colIdx, op.bi.values, kb, s_kb);
            ++kb;
            ++c.out;
        }
        m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        row_ptr[std::size_t(r) + 1] = c.out;
    }
}

/** VIA CAM union of rows [lo, hi) into @p c; records
 *  row_ptr[r + 1] = c.out after each row. */
void
viaRows(Machine &m, const Operands &op, CsrOut &c,
        std::vector<Index> &row_ptr, Index lo, Index hi)
{
    const Csr &a = op.a, &b = op.b;
    const int vl = int(m.vl());
    const auto cam_cap = Index(m.sspm().config().camEntries());

    VReg v_col{0}, v_val{1}, v_keys{2}, v_out{3}, v_dummy{4};
    SReg s_ea{0}, s_eb{1}, s_cnt{2}, s_k{3}, s_r{7};

    for (Index r = lo; r < hi; ++r) {
        m.sload(s_ea, op.ai.rowPtr + 4 * (Addr(r) + 1), 4);
        m.sload(s_eb, op.bi.rowPtr + 4 * (Addr(r) + 1), 4);
        Index ka = a.rowPtr()[std::size_t(r)];
        Index kb = b.rowPtr()[std::size_t(r)];
        Index ea = a.rowPtr()[std::size_t(r) + 1];
        Index eb = b.rowPtr()[std::size_t(r) + 1];

        // Tile the row into column ranges whose combined element
        // count bounds the CAM occupancy.
        while (ka < ea || kb < eb) {
            Index seg_a_end = ka, seg_b_end = kb;
            Index budget = cam_cap;
            // Two-pointer walk in column order.
            while (budget > 0 &&
                   (seg_a_end < ea || seg_b_end < eb)) {
                Index ca = seg_a_end < ea
                               ? a.colIdx()[std::size_t(seg_a_end)]
                               : a.cols();
                Index cb = seg_b_end < eb
                               ? b.colIdx()[std::size_t(seg_b_end)]
                               : b.cols();
                if (ca <= cb)
                    ++seg_a_end;
                if (cb <= ca)
                    ++seg_b_end;
                --budget;
            }

            // Phase 1: A's segment into the CAM.
            m.vidxClear();
            for (Index k = ka; k < seg_a_end; k += vl) {
                int n = std::min<Index>(vl, seg_a_end - k);
                m.vload(v_col, op.ai.colIdx + 4 * Addr(k), IT, n);
                m.vload(v_val, op.ai.values + 4 * Addr(k), VT, n);
                m.vidxLoadC(v_val, v_col, n);
                m.salu(s_k, k + vl, s_k);
                m.sbranch(s_k);
            }
            // Phase 2: B's segment merges through the CAM.
            for (Index k = kb; k < seg_b_end; k += vl) {
                int n = std::min<Index>(vl, seg_b_end - k);
                m.vload(v_col, op.bi.colIdx + 4 * Addr(k), IT, n);
                m.vload(v_val, op.bi.values + 4 * Addr(k), VT, n);
                m.vidxAddC(v_val, v_col, ViaOut::Sspm, v_dummy, n);
                m.salu(s_k, k + vl, s_k);
                m.sbranch(s_k);
            }
            // Phase 3: extraction.
            m.vidxCount(s_cnt);
            auto cnt = Index(m.sregI(s_cnt));
            for (Index i = 0; i < cnt; i += vl) {
                int n = std::min<Index>(vl, cnt - i);
                m.vidxKeys(v_keys, std::uint32_t(i), n);
                m.vidxVals(v_out, std::uint32_t(i), n);
                m.vstore(c.col + 4 * Addr(c.out + i), v_keys, IT, n,
                         s_cnt);
                m.vstore(c.val + 4 * Addr(c.out + i), v_out, VT, n,
                         s_cnt);
                m.salu(s_k, i + vl, s_k);
                m.sbranch(s_k);
            }
            c.out += cnt;
            ka = seg_a_end;
            kb = seg_b_end;
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
SpmaResult
runSerial(Machine &m, const Csr &a, const Csr &b, RowsFn rows)
{
    Operands op = uploadOperands(m, a, b);
    CsrOut c = allocCsrOut(m, a.nnz() + b.nnz(), a.rows());
    std::vector<Index> row_ptr(std::size_t(a.rows()) + 1, 0);
    m.sstore(c.ptr, s_out, 4);
    rows(m, op, c, row_ptr, 0, a.rows());
    return SpmaResult{assembleResult(m, c.col, c.val, row_ptr,
                                     a.rows(), a.cols()),
                      m.cycles()};
}

} // namespace

SpmaResult
spmaScalarCsr(Machine &m, const Csr &a, const Csr &b)
{
    return runSerial(m, a, b, scalarRows);
}

SpmaResult
spmaViaCsr(Machine &m, const Csr &a, const Csr &b)
{
    return runSerial(m, a, b, viaRows);
}

SpmaResult
spmaParallel(MultiMachine &mm, const Csr &a, const Csr &b,
             Partition part, bool via)
{
    Operands op = uploadOperands(mm.core(0), a, b);
    RowsFn rows = via ? viaRows : scalarRows;
    // Chunks move between cores under stealing, so every core gets a
    // full worst-case output region.
    CsrParts p = rowsParallel(
        mm, a.rows(), a.nnz() + b.nnz(), part,
        [&](Machine &m, CsrOut &c, std::vector<Index> &row_ptr,
            Index lo, Index hi) { rows(m, op, c, row_ptr, lo, hi); });
    return SpmaResult{canonicalCsr(a.rows(), a.cols(), p.ptr, p.col,
                                   p.val),
                      mm.cycles()};
}

} // namespace via::kernels
