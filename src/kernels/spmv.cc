#include "kernels/spmv.hh"

#include <algorithm>
#include <bit>

#include "kernels/kernel_utils.hh"
#include "kernels/parallel.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

/** The result vector and the makespan so far. */
SpmvResult
readY(const Machine &m, const XY &xy, Index rows)
{
    return SpmvResult{downloadValues(m, xy.y, std::size_t(rows)),
                      m.cycles()};
}

/** True if the whole dense x fits the scratchpad. */
bool
xFitsSspm(const Machine &m, Index cols)
{
    return std::uint64_t(cols) <= m.sspm().config().sramEntries();
}

/** Vector CSR over rows [lo, hi): gather x, FMA, per-row reduce. */
void
vectorCsrRows(Machine &m, const Csr &a, const CsrImage &img,
              const XY &xy, Index lo, Index hi)
{
    const int vl = int(m.vl());
    VReg v_val{0}, v_col{1}, v_x{2}, v_acc{3};
    SReg s_end{1}, s_acc{5}, s_k{0}, s_r{7};

    for (Index r = lo; r < hi; ++r) {
        m.sload(s_end, img.rowPtr + 4 * (Addr(r) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        Index k_lo = a.rowPtr()[std::size_t(r)];
        Index end = a.rowPtr()[std::size_t(r) + 1];
        for (Index k = k_lo; k < end; k += vl) {
            int n = std::min<Index>(vl, end - k);
            m.vload(v_val, img.values + 4 * Addr(k), VT, n);
            m.vload(v_col, img.colIdx + 4 * Addr(k), IT, n);
            m.vgather(v_x, xy.x, v_col, VT, n);
            m.vfmaF(v_acc, v_val, v_x, v_acc, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }
        m.vredsumF(s_acc, v_acc);
        m.sstoreF(xy.y + 4 * Addr(r), s_acc, VT);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
    }
}

/** VIA CSR prologue: stage the whole dense x in the SSPM, if it
 *  fits (once per core). */
void
viaCsrStageX(Machine &m, Index cols, Addr x)
{
    if (!xFitsSspm(m, cols))
        return;
    const int vl = int(m.vl());
    VReg v_x{2}, v_idx{4};
    SReg s_i{2};
    m.vidxClear();
    for (Index i = 0; i < cols; i += vl) {
        int n = std::min<Index>(vl, cols - i);
        m.vload(v_x, x + 4 * Addr(i), VT, n);
        m.viotaI(v_idx, i);
        m.vidxLoadD(v_x, v_idx, n);
        m.salu(s_i, i + vl, s_i);
        m.sbranch(s_i);
    }
}

/** VIA CSR over rows [lo, hi): x[col] * val straight out of the
 *  SSPM, or the gather fallback when x did not fit. */
void
viaCsrRows(Machine &m, const Csr &a, const CsrImage &img,
           const XY &xy, Index lo, Index hi)
{
    const int vl = int(m.vl());
    const bool x_fits = xFitsSspm(m, a.cols());
    VReg v_val{0}, v_col{1}, v_x{2}, v_acc{3}, v_prod{5};
    SReg s_end{1}, s_acc{5}, s_k{0}, s_r{7};

    for (Index r = lo; r < hi; ++r) {
        m.sload(s_end, img.rowPtr + 4 * (Addr(r) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        Index k_lo = a.rowPtr()[std::size_t(r)];
        Index end = a.rowPtr()[std::size_t(r) + 1];
        for (Index k = k_lo; k < end; k += vl) {
            int n = std::min<Index>(vl, end - k);
            m.vload(v_val, img.values + 4 * Addr(k), VT, n);
            m.vload(v_col, img.colIdx + 4 * Addr(k), IT, n);
            if (x_fits) {
                m.vidxMulD(v_val, v_col, ViaOut::Vrf, v_prod, 0, n);
            } else {
                m.vgather(v_x, xy.x, v_col, VT, n);
                m.vmulF(v_prod, v_val, v_x, n);
            }
            m.vaddF(v_acc, v_acc, v_prod, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }
        m.vredsumF(s_acc, v_acc);
        m.sstoreF(xy.y + 4 * Addr(r), s_acc, VT);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
    }
}

/** Vector CSB over block rows [br_lo, br_hi). */
void
vectorCsbRows(Machine &m, const Csb &a, const CsbImage &img,
              const XY &xy, Index br_lo, Index br_hi)
{
    const int vl = int(m.vl());
    const Index beta = a.beta();
    const auto col_bits = a.colBits();
    const Index bcols = a.blockCols();

    VReg v_idx{0}, v_val{1}, v_col{2}, v_row{3}, v_x{4}, v_y{5},
        v_prod{6};
    SReg s_end{1}, s_k{0}, s_b{7};

    for (Index br = br_lo; br < br_hi; ++br) {
        for (Index bc = 0; bc < bcols; ++bc) {
            Index b = br * bcols + bc;
            m.sload(s_end, img.blockPtr + 4 * (Addr(b) + 1), 4);
            Index lo = a.blockPtr()[std::size_t(b)];
            Index end = a.blockPtr()[std::size_t(b) + 1];
            if (lo == end) {
                m.sbranch(s_end); // skip empty block
                continue;
            }
            Addr row_base = xy.y + 4 * Addr(br) * Addr(beta);
            Addr col_base = xy.x + 4 * Addr(bc) * Addr(beta);
            for (Index k = lo; k < end; k += vl) {
                int n = std::min<Index>(vl, end - k);
                m.vload(v_idx, img.packedIdx + 4 * Addr(k), IT, n);
                m.vload(v_val, img.values + 4 * Addr(k), VT, n);
                // Unpack the merged in-block index.
                m.vandI(v_col, v_idx, beta - 1, n);
                m.vshrI(v_row, v_idx, col_bits, n);
                // Gather x, gather-update-scatter the y partials: the
                // BBF store-load forwarding traffic of Section II-C.
                m.vgather(v_x, col_base, v_col, VT, n);
                m.vmulF(v_prod, v_val, v_x, n);
                // Duplicate rows in one vector must be combined
                // before the scatter (conflict detection + merge, as
                // AVX-512 BBF kernels do).
                m.vconflict(v_y, v_row, n);
                m.vmergeIdx(v_prod, v_prod, v_row, n);
                m.vgather(v_y, row_base, v_row, VT, n);
                m.vaddF(v_y, v_y, v_prod, n);
                m.vscatter(row_base, v_row, v_y, VT, n);
                m.salu(s_k, k + vl, s_k);
                m.sbranch(s_k);
            }
            m.salu(s_b, b + 1, s_b);
            m.sbranch(s_b);
        }
    }
}

/** VIA CSB over block rows [br_lo, br_hi), from a cleared SSPM. */
void
viaCsbRows(Machine &m, const Csb &a, const CsbImage &img,
           const XY &xy, Index br_lo, Index br_hi)
{
    const int vl = int(m.vl());
    const Index beta = a.beta();
    via_assert(std::uint64_t(2 * beta) <=
                   m.sspm().config().sramEntries(),
               "CSB block side ", beta, " does not fit the SSPM; "
               "use viaCsbBeta()");

    VReg v_idx{0}, v_val{1}, v_x{2}, v_out{3};
    SReg s_end{1}, s_k{0}, s_b{7}, s_i{2};

    const Index bcols = a.blockCols();
    // y accumulators live at SSPM[beta ..), x chunks at SSPM[0..beta).
    const std::int64_t y_off = beta;

    m.vidxClear();
    for (Index br = br_lo; br < br_hi; ++br) {
        Index row_lo = br * beta;
        Index row_hi = std::min<Index>(row_lo + beta, a.rows());
        for (Index bc = 0; bc < bcols; ++bc) {
            Index b = br * bcols + bc;
            m.sload(s_end, img.blockPtr + 4 * (Addr(b) + 1), 4);
            Index lo = a.blockPtr()[std::size_t(b)];
            Index end = a.blockPtr()[std::size_t(b) + 1];
            if (lo == end) {
                m.sbranch(s_end); // skip empty block
                continue;
            }
            // Algorithm 4 lines 4-8: stage this block's x chunk.
            Index col_lo = bc * beta;
            Index col_hi = std::min<Index>(col_lo + beta, a.cols());
            for (Index i = col_lo; i < col_hi; i += vl) {
                int n = std::min<Index>(vl, col_hi - i);
                m.vload(v_x, xy.x + 4 * Addr(i), VT, n);
                m.viotaI(v_idx, i - col_lo);
                m.vidxLoadD(v_x, v_idx, n);
                m.salu(s_i, i + vl, s_i);
                m.sbranch(s_i);
            }
            // Algorithm 4 lines 11-15: multiply-accumulate blocks.
            for (Index k = lo; k < end; k += vl) {
                int n = std::min<Index>(vl, end - k);
                m.vload(v_idx, img.packedIdx + 4 * Addr(k), IT, n);
                m.vload(v_val, img.values + 4 * Addr(k), VT, n);
                m.vidxBlkMulD(v_val, v_idx, a.colBits(), y_off, n);
                m.salu(s_k, k + vl, s_k);
                m.sbranch(s_k);
            }
            m.salu(s_b, b + 1, s_b);
            m.sbranch(s_b);
        }
        // Drain the accumulators for this block row, then reset.
        for (Index i = row_lo; i < row_hi; i += vl) {
            int n = std::min<Index>(vl, row_hi - i);
            m.viotaI(v_idx, y_off + (i - row_lo));
            m.vidxMov(v_out, v_idx, n);
            m.vstore(xy.y + 4 * Addr(i), v_out, VT, n, s_i);
            m.salu(s_i, i + vl, s_i);
            m.sbranch(s_i);
        }
        m.vidxClearSegment(std::uint64_t(y_off),
                           std::uint64_t(y_off + beta));
    }
}

} // namespace

Index
viaCsbBeta(const Machine &m)
{
    auto entries = m.sspm().config().sramEntries();
    return Index(std::bit_floor(entries / 2));
}

// The matrix-operand uploads, shared by the one-shot wrappers and
// the resident-matrix path. Upload order matches the historical
// one-shot functions exactly, so the emitted streams (and the
// BENCH_simspeed fingerprints) are unchanged.

CsrImage
uploadCsr(Machine &m, const Csr &a)
{
    CsrImage img;
    img.rowPtr = upload(m, a.rowPtr());
    img.colIdx = upload(m, a.colIdx());
    img.values = upload(m, a.values());
    return img;
}

Spc5Image
uploadSpc5(Machine &m, const Spc5 &a)
{
    Spc5Image img;
    img.values = upload(m, a.values());
    img.blockRow = upload(m, a.blockRow());
    img.blockCol = upload(m, a.blockCol());
    img.blockMask = upload(m, a.blockMask());
    return img;
}

SellImage
uploadSell(Machine &m, const SellCSigma &a)
{
    SellImage img;
    img.colIdx = upload(m, a.colIdx());
    img.values = upload(m, a.values());
    img.chunkPtr = upload(m, a.chunkPtr());
    img.rowPerm = upload(m, a.rowPerm());
    return img;
}

CsbImage
uploadCsb(Machine &m, const Csb &a)
{
    CsbImage img;
    img.packedIdx = upload(m, a.packedIdx());
    img.values = upload(m, a.values());
    img.blockPtr = upload(m, a.blockPtr());
    return img;
}

SpmvResult
spmvScalarCsr(Machine &m, const Csr &a, const DenseVector &x)
{
    Addr row_ptr = upload(m, a.rowPtr());
    Addr col_idx = upload(m, a.colIdx());
    Addr values = upload(m, a.values());
    XY xy = uploadXY(m, x, a.rows());

    SReg s_end{1}, s_col{2}, s_val{3}, s_x{4}, s_acc{5}, s_prod{6},
        s_k{0}, s_r{7};

    for (Index r = 0; r < a.rows(); ++r) {
        m.sload(s_end, row_ptr + 4 * (Addr(r) + 1), 4);
        m.salu(s_acc, 0); // acc = 0 (FP zero shares the bit pattern)
        Index end = a.rowPtr()[std::size_t(r) + 1];
        for (Index k = a.rowPtr()[std::size_t(r)]; k < end; ++k) {
            m.sload(s_col, col_idx + 4 * Addr(k), 4);
            m.sloadF(s_val, values + 4 * Addr(k), VT);
            Index col = a.colIdx()[std::size_t(k)];
            m.sloadF(s_x, xy.x + 4 * Addr(col), VT, s_col);
            m.sfmul(s_prod, s_val, s_x);
            m.sfadd(s_acc, s_acc, s_prod);
            m.salu(s_k, k + 1, s_k);
            m.sbranch(s_k);
        }
        m.sstoreF(xy.y + 4 * Addr(r), s_acc, VT);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
    }
    return readY(m, xy, a.rows());
}

SpmvResult
spmvVectorCsr(Machine &m, const Csr &a, const DenseVector &x)
{
    return spmvVectorCsrAt(m, a, uploadCsr(m, a), x);
}

SpmvResult
spmvVectorCsrAt(Machine &m, const Csr &a, const CsrImage &img,
                const DenseVector &x)
{
    XY xy = uploadXY(m, x, a.rows());
    vectorCsrRows(m, a, img, xy, 0, a.rows());
    return readY(m, xy, a.rows());
}

SpmvResult
spmvVectorSpc5(Machine &m, const Spc5 &a, const DenseVector &x)
{
    return spmvVectorSpc5At(m, a, uploadSpc5(m, a), x);
}

SpmvResult
spmvVectorSpc5At(Machine &m, const Spc5 &a, const Spc5Image &img,
                 const DenseVector &x)
{
    Addr values = img.values;
    Addr brow = img.blockRow;
    Addr bcol = img.blockCol;
    Addr bmask = img.blockMask;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    via_assert(a.window() == Index(vl),
               "SPC5 window must equal the vector length");

    VReg v_packed{0}, v_val{1}, v_x{2}, v_acc{3};
    SReg s_hdr{1}, s_acc{5}, s_b{0}, s_row{7};

    Index cur_row = -1;
    bool acc_live = false;

    auto flush_row = [&](Index row) {
        // y[row] += reduce(acc): rows can span several blocks, so
        // the software baseline re-reads and re-writes y (the
        // store-load forwarding pattern).
        m.vredsumF(s_acc, v_acc);
        m.sloadF(s_row, xy.y + 4 * Addr(row), VT);
        m.sfadd(s_acc, s_acc, s_row);
        m.sstoreF(xy.y + 4 * Addr(row), s_acc, VT);
    };

    for (std::size_t b = 0; b < a.numBlocks(); ++b) {
        Index row = a.blockRow()[b];
        if (row != cur_row) {
            if (acc_live)
                flush_row(cur_row);
            m.vbroadcastF(v_acc, 0.0);
            cur_row = row;
            acc_live = true;
        }
        // Header loads: row, first column, mask.
        m.sload(s_hdr, brow + 4 * Addr(b), 4);
        m.sload(s_hdr, bcol + 4 * Addr(b), 4);
        m.sload(s_hdr, bmask + 4 * Addr(b), 4);

        Index first = a.blockCol()[b];
        Index v0 = a.blockPtr()[b];
        Index packed = a.blockPtr()[b + 1] - v0;

        m.vload(v_packed, values + 4 * Addr(v0), VT, int(packed));
        m.vexpandMask(v_val, v_packed, a.blockMask()[b], vl, s_hdr);
        int n = int(std::min<Index>(vl, a.cols() - first));
        m.vload(v_x, xy.x + 4 * Addr(first), VT, n);
        m.vfmaF(v_acc, v_val, v_x, v_acc, n);
        m.salu(s_b, Index(b) + 1, s_b);
        m.sbranch(s_b);
    }
    if (acc_live)
        flush_row(cur_row);

    return readY(m, xy, a.rows());
}

SpmvResult
spmvVectorSell(Machine &m, const SellCSigma &a, const DenseVector &x)
{
    return spmvVectorSellAt(m, a, uploadSell(m, a), x);
}

SpmvResult
spmvVectorSellAt(Machine &m, const SellCSigma &a,
                 const SellImage &img, const DenseVector &x)
{
    Addr col_idx = img.colIdx;
    Addr values = img.values;
    Addr chunk_ptr = img.chunkPtr;
    Addr row_perm = img.rowPerm;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    via_assert(a.c() == Index(vl),
               "Sell-C-sigma chunk height must equal the vector "
               "length");

    VReg v_val{0}, v_col{1}, v_x{2}, v_acc{3}, v_rows{4};
    SReg s_w{1}, s_j{0}, s_ch{7};

    for (Index ch = 0; ch < a.numChunks(); ++ch) {
        m.sload(s_w, chunk_ptr + 4 * (Addr(ch) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        Index base = a.chunkPtr()[std::size_t(ch)];
        Index width = a.chunkWidth()[std::size_t(ch)];
        int lanes = int(std::min<Index>(vl, a.rows() - ch * vl));
        for (Index j = 0; j < width; ++j) {
            Addr slice = 4 * Addr(base + j * vl);
            m.vload(v_val, values + slice, VT, lanes);
            m.vload(v_col, col_idx + slice, IT, lanes);
            m.vgather(v_x, xy.x, v_col, VT, lanes);
            m.vfmaF(v_acc, v_val, v_x, v_acc, lanes);
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.vload(v_rows, row_perm + 4 * Addr(ch) * Addr(vl), IT,
                lanes);
        m.vscatter(xy.y, v_rows, v_acc, VT, lanes);
        m.salu(s_ch, ch + 1, s_ch);
        m.sbranch(s_ch);
    }
    return readY(m, xy, a.rows());
}

SpmvResult
spmvVectorCsb(Machine &m, const Csb &a, const DenseVector &x)
{
    return spmvVectorCsbAt(m, a, uploadCsb(m, a), x);
}

SpmvResult
spmvVectorCsbAt(Machine &m, const Csb &a, const CsbImage &img,
                const DenseVector &x)
{
    XY xy = uploadXY(m, x, a.rows());
    vectorCsbRows(m, a, img, xy, 0, a.blockRows());
    return readY(m, xy, a.rows());
}

SpmvResult
spmvScalarCsb(Machine &m, const Csb &a, const DenseVector &x)
{
    Addr packed = upload(m, a.packedIdx());
    Addr values = upload(m, a.values());
    Addr block_ptr = upload(m, a.blockPtr());
    XY xy = uploadXY(m, x, a.rows());

    const Index beta = a.beta();
    const auto col_bits = a.colBits();
    const Index bcols = a.blockCols();

    SReg s_end{1}, s_idx{2}, s_col{3}, s_row{4}, s_val{5}, s_x{6},
        s_y{7}, s_k{0}, s_b{8};

    for (Index b = 0; b < a.numBlocks(); ++b) {
        m.sload(s_end, block_ptr + 4 * (Addr(b) + 1), 4);
        m.sbranch(s_end);
        Index lo = a.blockPtr()[std::size_t(b)];
        Index end = a.blockPtr()[std::size_t(b) + 1];
        Addr row_base = xy.y + 4 * Addr(b / bcols) * Addr(beta);
        Addr col_base = xy.x + 4 * Addr(b % bcols) * Addr(beta);
        for (Index k = lo; k < end; ++k) {
            Index pk = a.packedIdx()[std::size_t(k)];
            Index in_col = pk & (beta - 1);
            Index in_row = pk >> col_bits;
            m.sload(s_idx, packed + 4 * Addr(k), 4);
            m.salu(s_col, in_col, s_idx); // unpack: and
            m.salu(s_row, in_row, s_idx); // unpack: shift
            m.sloadF(s_val, values + 4 * Addr(k), VT);
            m.sloadF(s_x, col_base + 4 * Addr(in_col), VT, s_col);
            m.sfmul(s_val, s_val, s_x);
            // y[row] += ...: read-modify-write through memory.
            m.sloadF(s_y, row_base + 4 * Addr(in_row), VT, s_row);
            m.sfadd(s_y, s_y, s_val);
            m.sstoreF(row_base + 4 * Addr(in_row), s_y, VT, s_row);
            m.salu(s_k, k + 1, s_k);
            m.sbranch(s_k);
        }
        m.salu(s_b, b + 1, s_b);
        m.sbranch(s_b);
    }
    return readY(m, xy, a.rows());
}

SpmvResult
spmvViaCsr(Machine &m, const Csr &a, const DenseVector &x)
{
    return spmvViaCsrAt(m, a, uploadCsr(m, a), x);
}

SpmvResult
spmvViaCsrAt(Machine &m, const Csr &a, const CsrImage &img,
             const DenseVector &x)
{
    XY xy = uploadXY(m, x, a.rows());
    viaCsrStageX(m, a.cols(), xy.x);
    viaCsrRows(m, a, img, xy, 0, a.rows());
    return readY(m, xy, a.rows());
}

SpmvResult
spmvViaSpc5(Machine &m, const Spc5 &a, const DenseVector &x)
{
    return spmvViaSpc5At(m, a, uploadSpc5(m, a), x);
}

SpmvResult
spmvViaSpc5At(Machine &m, const Spc5 &a, const Spc5Image &img,
              const DenseVector &x)
{
    Addr values = img.values;
    Addr brow = img.blockRow;
    Addr bcol = img.blockCol;
    Addr bmask = img.blockMask;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    via_assert(a.window() == Index(vl),
               "SPC5 window must equal the vector length");

    // y accumulators live in the SSPM, segmented over the rows.
    auto seg_rows = Index(m.sspm().config().sramEntries());

    VReg v_packed{0}, v_val{1}, v_x{2}, v_prod{3}, v_rowb{4},
        v_idx{5}, v_out{6};
    SReg s_hdr{1}, s_b{0}, s_i{2};

    Index seg_base = 0;
    m.vidxClear();

    auto flush_segment = [&](Index upto) {
        // Drain SSPM accumulators [seg_base, upto) to memory.
        for (Index i = seg_base; i < upto; i += vl) {
            int n = std::min<Index>(vl, upto - i);
            m.viotaI(v_idx, i - seg_base);
            m.vidxMov(v_out, v_idx, n);
            m.vstore(xy.y + 4 * Addr(i), v_out, VT, n, s_i);
            m.salu(s_i, i + vl, s_i);
            m.sbranch(s_i);
        }
        m.vidxClear();
    };

    for (std::size_t b = 0; b < a.numBlocks(); ++b) {
        Index row = a.blockRow()[b];
        if (row >= seg_base + seg_rows) {
            flush_segment(std::min(seg_base + seg_rows, a.rows()));
            seg_base += seg_rows;
            while (row >= seg_base + seg_rows)
                seg_base += seg_rows; // empty segments
        }
        m.sload(s_hdr, brow + 4 * Addr(b), 4);
        m.sload(s_hdr, bcol + 4 * Addr(b), 4);
        m.sload(s_hdr, bmask + 4 * Addr(b), 4);

        Index first = a.blockCol()[b];
        Index v0 = a.blockPtr()[b];
        Index packed = a.blockPtr()[b + 1] - v0;

        m.vload(v_packed, values + 4 * Addr(v0), VT, int(packed));
        m.vexpandMask(v_val, v_packed, a.blockMask()[b], vl, s_hdr);
        int n = int(std::min<Index>(vl, a.cols() - first));
        m.vload(v_x, xy.x + 4 * Addr(first), VT, n);
        m.vmulF(v_prod, v_val, v_x, n);
        // Accumulate the block's partials straight into the SSPM
        // slot of this row: no reduce, no y re-load.
        m.vbroadcastI(v_rowb, row - seg_base);
        m.vidxAddD(v_prod, v_rowb, ViaOut::Sspm, v_out, 0, n);
        m.salu(s_b, Index(b) + 1, s_b);
        m.sbranch(s_b);
    }
    flush_segment(std::min(seg_base + seg_rows, a.rows()));

    return readY(m, xy, a.rows());
}

SpmvResult
spmvViaSell(Machine &m, const SellCSigma &a, const DenseVector &x)
{
    return spmvViaSellAt(m, a, uploadSell(m, a), x);
}

SpmvResult
spmvViaSellAt(Machine &m, const SellCSigma &a, const SellImage &img,
              const DenseVector &x)
{
    Addr col_idx = img.colIdx;
    Addr values = img.values;
    Addr chunk_ptr = img.chunkPtr;
    Addr row_perm = img.rowPerm;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    via_assert(a.c() == Index(vl), "chunk height mismatch");
    bool x_fits =
        std::uint64_t(a.cols()) <= m.sspm().config().sramEntries();

    VReg v_val{0}, v_col{1}, v_x{2}, v_acc{3}, v_rows{4}, v_idx{5},
        v_prod{6};
    SReg s_w{1}, s_j{0}, s_ch{7}, s_i{2};

    if (x_fits) {
        m.vidxClear();
        for (Index i = 0; i < a.cols(); i += vl) {
            int n = std::min<Index>(vl, a.cols() - i);
            m.vload(v_x, xy.x + 4 * Addr(i), VT, n);
            m.viotaI(v_idx, i);
            m.vidxLoadD(v_x, v_idx, n);
            m.salu(s_i, i + vl, s_i);
            m.sbranch(s_i);
        }
    }

    for (Index ch = 0; ch < a.numChunks(); ++ch) {
        m.sload(s_w, chunk_ptr + 4 * (Addr(ch) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        Index base = a.chunkPtr()[std::size_t(ch)];
        Index width = a.chunkWidth()[std::size_t(ch)];
        int lanes = int(std::min<Index>(vl, a.rows() - ch * vl));
        for (Index j = 0; j < width; ++j) {
            Addr slice = 4 * Addr(base + j * vl);
            m.vload(v_val, values + slice, VT, lanes);
            m.vload(v_col, col_idx + slice, IT, lanes);
            if (x_fits) {
                m.vidxMulD(v_val, v_col, ViaOut::Vrf, v_prod, 0,
                           lanes);
            } else {
                m.vgather(v_x, xy.x, v_col, VT, lanes);
                m.vmulF(v_prod, v_val, v_x, lanes);
            }
            m.vaddF(v_acc, v_acc, v_prod, lanes);
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.vload(v_rows, row_perm + 4 * Addr(ch) * Addr(vl), IT,
                lanes);
        m.vscatter(xy.y, v_rows, v_acc, VT, lanes);
        m.salu(s_ch, ch + 1, s_ch);
        m.sbranch(s_ch);
    }
    return readY(m, xy, a.rows());
}

SpmvResult
spmvViaCsb(Machine &m, const Csb &a, const DenseVector &x)
{
    return spmvViaCsbAt(m, a, uploadCsb(m, a), x);
}

SpmvResult
spmvViaCsbAt(Machine &m, const Csb &a, const CsbImage &img,
             const DenseVector &x)
{
    XY xy = uploadXY(m, x, a.rows());
    viaCsbRows(m, a, img, xy, 0, a.blockRows());
    return readY(m, xy, a.rows());
}

SpmvResult
spmvParallel(MultiMachine &mm, const Csr &a, const DenseVector &x,
             const std::string &fmt, Partition part, bool via)
{
    via_assert(a.cols() == Index(x.size()), "SpMV shape mismatch");
    Machine &m0 = mm.core(0);
    if (fmt == "csr") {
        CsrImage img = uploadCsr(m0, a);
        XY xy = uploadXY(m0, x, a.rows());
        auto rows = via ? viaCsrRows : vectorCsrRows;
        dispatchUnits(
            mm, a.rows(), part,
            [&](Machine &m) {
                if (via)
                    viaCsrStageX(m, a.cols(), xy.x);
            },
            [&](unsigned c, Index lo, Index hi) {
                rows(mm.core(c), a, img, xy, lo, hi);
            });
        return SpmvResult{
            downloadValues(m0, xy.y, std::size_t(a.rows())),
            mm.cycles()};
    }
    if (fmt == "csb") {
        // Block rows partition: each owns y rows [br*beta, (br+1)*beta).
        const Csb csb = Csb::fromCsr(a, viaCsbBeta(m0));
        CsbImage img = uploadCsb(m0, csb);
        XY xy = uploadXY(m0, x, a.rows());
        auto rows = via ? viaCsbRows : vectorCsbRows;
        dispatchUnits(mm, csb.blockRows(), part,
                      [&](unsigned c, Index lo, Index hi) {
                          rows(mm.core(c), csb, img, xy, lo, hi);
                      });
        return SpmvResult{
            downloadValues(m0, xy.y, std::size_t(a.rows())),
            mm.cycles()};
    }
    via_fatal("spmv format '", fmt,
              "' has no multi-core variant (csr, csb)");
}

} // namespace via::kernels
