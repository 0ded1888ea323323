#include "kernels/backend_kernels.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "kernels/reference.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

} // namespace

SpmvResult
spmvSsrCsr(Machine &m, const Csr &a, const DenseVector &x)
{
    return spmvSsrCsrAt(m, a, uploadCsr(m, a), x);
}

SpmvResult
spmvSsrCsrAt(Machine &m, const Csr &a, const CsrImage &img,
             const DenseVector &x)
{
    Addr row_ptr = img.rowPtr;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    VReg v_acc{3};
    SReg s_end{1}, s_acc{5}, s_k{0}, s_r{7};

    // CSR walks values and colIdx contiguously across rows, so one
    // bind pair amortizes the stream setup over the whole kernel:
    // stream 0 delivers the values, stream 1 gathers x through the
    // column indices, and ssr.fma consumes both.
    m.ssrBindAffine(0, img.values, VT);
    m.ssrBindIndirect(1, img.colIdx, IT, xy.x, VT);

    for (Index r = 0; r < a.rows(); ++r) {
        m.sload(s_end, row_ptr + 4 * (Addr(r) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        Index lo = a.rowPtr()[std::size_t(r)];
        Index end = a.rowPtr()[std::size_t(r) + 1];
        for (Index k = lo; k < end; k += vl) {
            int n = std::min<Index>(vl, end - k);
            m.ssrFma(v_acc, 0, 1, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }
        m.vredsumF(s_acc, v_acc);
        m.sstoreF(xy.y + 4 * Addr(r), s_acc, VT);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
    }
    return SpmvResult{downloadValues(m, xy.y,
                                     std::size_t(a.rows())),
                      m.cycles()};
}

SpmvResult
spmvSsrSpc5(Machine &m, const Spc5 &a, const DenseVector &x)
{
    return spmvSsrSpc5At(m, a, uploadSpc5(m, a), x);
}

SpmvResult
spmvSsrSpc5At(Machine &m, const Spc5 &a, const Spc5Image &img,
              const DenseVector &x)
{
    Addr brow = img.blockRow;
    Addr bcol = img.blockCol;
    Addr bmask = img.blockMask;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    via_assert(a.window() == Index(vl),
               "SPC5 window must equal the vector length");

    VReg v_packed{0}, v_val{1}, v_x{2}, v_acc{3};
    SReg s_hdr{1}, s_acc{5}, s_b{0}, s_row{7};

    // The packed values are consumed in block order — one affine
    // stream replaces every values load. x stays unit-stride per
    // block (ordinary vload), which is SPC5's selling point.
    m.ssrBindAffine(0, img.values, VT);

    Index cur_row = -1;
    bool acc_live = false;

    auto flush_row = [&](Index row) {
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
        m.sload(s_hdr, brow + 4 * Addr(b), 4);
        m.sload(s_hdr, bcol + 4 * Addr(b), 4);
        m.sload(s_hdr, bmask + 4 * Addr(b), 4);

        Index first = a.blockCol()[b];
        Index v0 = a.blockPtr()[b];
        Index packed = a.blockPtr()[b + 1] - v0;

        m.ssrPopV(v_packed, 0, int(packed));
        m.vexpandMask(v_val, v_packed, a.blockMask()[b], vl, s_hdr);
        int n = int(std::min<Index>(vl, a.cols() - first));
        m.vload(v_x, xy.x + 4 * Addr(first), VT, n);
        m.vfmaF(v_acc, v_val, v_x, v_acc, n);
        m.salu(s_b, Index(b) + 1, s_b);
        m.sbranch(s_b);
    }
    if (acc_live)
        flush_row(cur_row);

    return SpmvResult{downloadValues(m, xy.y,
                                     std::size_t(a.rows())),
                      m.cycles()};
}

SpmvResult
spmvSsrSell(Machine &m, const SellCSigma &a, const DenseVector &x)
{
    return spmvSsrSellAt(m, a, uploadSell(m, a), x);
}

SpmvResult
spmvSsrSellAt(Machine &m, const SellCSigma &a, const SellImage &img,
              const DenseVector &x)
{
    Addr chunk_ptr = img.chunkPtr;
    Addr row_perm = img.rowPerm;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    via_assert(a.c() == Index(vl), "chunk height mismatch");

    VReg v_acc{3}, v_rows{4};
    SReg s_w{1}, s_j{0}, s_ch{7};

    // Slices advance by a fixed vl stride even when the last chunk
    // has fewer live lanes, so the streams pop with advance = vl.
    m.ssrBindAffine(0, img.values, VT);
    m.ssrBindIndirect(1, img.colIdx, IT, xy.x, VT);

    for (Index ch = 0; ch < a.numChunks(); ++ch) {
        m.sload(s_w, chunk_ptr + 4 * (Addr(ch) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        Index width = a.chunkWidth()[std::size_t(ch)];
        int lanes = int(std::min<Index>(vl, a.rows() - ch * vl));
        for (Index j = 0; j < width; ++j) {
            m.ssrFma(v_acc, 0, 1, lanes, vl);
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.vload(v_rows, row_perm + 4 * Addr(ch) * Addr(vl), IT,
                lanes);
        m.vscatter(xy.y, v_rows, v_acc, VT, lanes);
        m.salu(s_ch, ch + 1, s_ch);
        m.sbranch(s_ch);
    }
    return SpmvResult{downloadValues(m, xy.y,
                                     std::size_t(a.rows())),
                      m.cycles()};
}

SpmvResult
spmvSsrCsb(Machine &m, const Csb &a, const DenseVector &x)
{
    return spmvSsrCsbAt(m, a, uploadCsb(m, a), x);
}

SpmvResult
spmvSsrCsbAt(Machine &m, const Csb &a, const CsbImage &img,
             const DenseVector &x)
{
    Addr block_ptr = img.blockPtr;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    const Index beta = a.beta();
    const auto col_bits = a.colBits();

    VReg v_idx{0}, v_val{1}, v_col{2}, v_row{3}, v_x{4}, v_y{5},
        v_prod{6};
    SReg s_end{1}, s_k{0}, s_b{7};

    // Both element arrays are consumed in block order — two affine
    // streams replace the idx/value loads; the gather-update-scatter
    // traffic on the y partials is untouched (it is data-dependent,
    // which streams cannot express).
    m.ssrBindAffine(0, img.packedIdx, IT);
    m.ssrBindAffine(1, img.values, VT);

    Index bcols = a.blockCols();
    for (Index b = 0; b < a.numBlocks(); ++b) {
        m.sload(s_end, block_ptr + 4 * (Addr(b) + 1), 4);
        Index lo = a.blockPtr()[std::size_t(b)];
        Index end = a.blockPtr()[std::size_t(b) + 1];
        if (lo == end) {
            m.sbranch(s_end); // skip empty block
            continue;
        }
        Addr row_base = xy.y + 4 * Addr(b / bcols) * Addr(beta);
        Addr col_base = xy.x + 4 * Addr(b % bcols) * Addr(beta);
        for (Index k = lo; k < end; k += vl) {
            int n = std::min<Index>(vl, end - k);
            m.ssrPopV(v_idx, 0, n);
            m.ssrPopV(v_val, 1, n);
            m.vandI(v_col, v_idx, beta - 1, n);
            m.vshrI(v_row, v_idx, col_bits, n);
            m.vgather(v_x, col_base, v_col, VT, n);
            m.vmulF(v_prod, v_val, v_x, n);
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
    return SpmvResult{downloadValues(m, xy.y,
                                     std::size_t(a.rows())),
                      m.cycles()};
}

SpmaResult
spmaSsrCsr(Machine &m, const Csr &a, const Csr &b)
{
    via_assert(a.rows() == b.rows() && a.cols() == b.cols(),
               "SpMA shape mismatch");
    Addr a_ptr = upload(m, a.rowPtr());
    Addr a_col = upload(m, a.colIdx());
    Addr a_val = upload(m, a.values());
    Addr b_ptr = upload(m, b.rowPtr());
    Addr b_col = upload(m, b.colIdx());
    Addr b_val = upload(m, b.values());

    std::size_t worst = a.nnz() + b.nnz();
    Addr c_col = m.mem().alloc(worst * sizeof(Index));
    Addr c_val = m.mem().alloc(worst * sizeof(Value));
    Addr c_ptr = m.mem().alloc((std::size_t(a.rows()) + 1) *
                               sizeof(Index));

    SReg s_ka{0}, s_kb{1}, s_acol{2}, s_bcol{3}, s_v{4}, s_v2{5},
        s_out{6}, s_r{7};

    // All four element arrays are consumed monotonically across the
    // merge, so one bind each covers the kernel; the merge pops the
    // column heads and only pops a value stream when its element is
    // consumed (the streams make the loads, the branches remain).
    m.ssrBindAffine(0, a_col, IT);
    m.ssrBindAffine(1, a_val, VT);
    m.ssrBindAffine(2, b_col, IT);
    m.ssrBindAffine(3, b_val, VT);

    std::vector<Index> c_row_ptr(std::size_t(a.rows()) + 1, 0);
    Index out = 0;
    m.sstore(c_ptr, s_out, 4);

    // A stream head is popped once per element; holding it in a
    // scalar register across non-consuming iterations keeps the pop
    // count equal to the element count (streams are destructive).
    bool need_a = true, need_b = true;

    for (Index r = 0; r < a.rows(); ++r) {
        m.sload(s_ka, a_ptr + 4 * (Addr(r) + 1), 4);
        m.sload(s_kb, b_ptr + 4 * (Addr(r) + 1), 4);
        Index ka = a.rowPtr()[std::size_t(r)];
        Index kb = b.rowPtr()[std::size_t(r)];
        Index ea = a.rowPtr()[std::size_t(r) + 1];
        Index eb = b.rowPtr()[std::size_t(r) + 1];

        while (ka < ea && kb < eb) {
            if (need_a) {
                m.ssrPopS(s_acol, 0);
                need_a = false;
            }
            if (need_b) {
                m.ssrPopS(s_bcol, 2);
                need_b = false;
            }
            m.salu(s_v, 0, s_acol, s_bcol); // compare
            Index ca = a.colIdx()[std::size_t(ka)];
            Index cb = b.colIdx()[std::size_t(kb)];
            m.sbranchData(s_v, 1, ca == cb);
            if (ca != cb)
                m.sbranchData(s_v, 2, ca < cb);
            if (ca == cb) {
                m.ssrPopS(s_v, 1);
                m.ssrPopS(s_v2, 3);
                m.sfadd(s_v, s_v, s_v2);
                m.sstore(c_col + 4 * Addr(out), s_acol, 4);
                m.sstoreF(c_val + 4 * Addr(out), s_v, VT);
                m.salu(s_ka, ka + 1, s_ka);
                m.salu(s_kb, kb + 1, s_kb);
                ++ka;
                ++kb;
                need_a = need_b = true;
            } else if (ca < cb) {
                m.ssrPopS(s_v, 1);
                m.sstore(c_col + 4 * Addr(out), s_acol, 4);
                m.sstoreF(c_val + 4 * Addr(out), s_v, VT);
                m.salu(s_ka, ka + 1, s_ka);
                ++ka;
                need_a = true;
            } else {
                m.ssrPopS(s_v, 3);
                m.sstore(c_col + 4 * Addr(out), s_bcol, 4);
                m.sstoreF(c_val + 4 * Addr(out), s_v, VT);
                m.salu(s_kb, kb + 1, s_kb);
                ++kb;
                need_b = true;
            }
            m.salu(s_out, out + 1, s_out);
            ++out;
        }
        while (ka < ea) {
            if (need_a)
                m.ssrPopS(s_acol, 0);
            need_a = true;
            m.ssrPopS(s_v, 1);
            m.sstore(c_col + 4 * Addr(out), s_acol, 4);
            m.sstoreF(c_val + 4 * Addr(out), s_v, VT);
            m.salu(s_ka, ka + 1, s_ka);
            m.sbranch(s_ka);
            ++ka;
            ++out;
        }
        while (kb < eb) {
            if (need_b)
                m.ssrPopS(s_bcol, 2);
            need_b = true;
            m.ssrPopS(s_v, 3);
            m.sstore(c_col + 4 * Addr(out), s_bcol, 4);
            m.sstoreF(c_val + 4 * Addr(out), s_v, VT);
            m.salu(s_kb, kb + 1, s_kb);
            m.sbranch(s_kb);
            ++kb;
            ++out;
        }
        m.sstore(c_ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        c_row_ptr[std::size_t(r) + 1] = out;
    }

    return SpmaResult{assembleResult(m, c_col, c_val, c_row_ptr,
                                     a.rows(), a.cols()),
                      m.cycles()};
}

SpmmResult
spmmSsrInner(Machine &m, const Csr &a, const Csc &b)
{
    via_assert(a.cols() == b.rows(), "SpMM shape mismatch");
    Addr a_ptr = upload(m, a.rowPtr());
    Addr a_col = upload(m, a.colIdx());
    Addr a_val = upload(m, a.values());
    Addr b_ptr = upload(m, b.colPtr());
    Addr b_row = upload(m, b.rowIdx());
    Addr b_val = upload(m, b.values());

    std::size_t bound = std::size_t(a.rows()) *
                        std::size_t(b.cols());
    std::size_t alt = a.nnz() * std::size_t(std::max<Index>(
                                    b.maxColNnz(), 1));
    bound = std::min(bound, alt + 1);
    Addr c_col = m.mem().alloc(bound * sizeof(Index));
    Addr c_val = m.mem().alloc(bound * sizeof(Value));
    Addr c_ptr = m.mem().alloc((std::size_t(a.rows()) + 1) *
                               sizeof(Index));
    std::vector<Index> c_row_ptr(std::size_t(a.rows()) + 1, 0);
    Index out = 0;

    SReg s_ka{0}, s_kb{1}, s_ai{2}, s_bi{3}, s_v{4}, s_v2{5},
        s_acc{6}, s_out{7}, s_j{8}, s_r{9};

    m.sstore(c_ptr, s_out, 4);
    for (Index r = 0; r < a.rows(); ++r) {
        m.sload(s_ka, a_ptr + 4 * (Addr(r) + 1), 4);
        Index a_lo = a.rowPtr()[std::size_t(r)];
        Index a_hi = a.rowPtr()[std::size_t(r) + 1];
        if (a_lo == a_hi) {
            m.sbranch(s_ka);
            m.sstore(c_ptr + 4 * (Addr(r) + 1), s_out, 4);
            c_row_ptr[std::size_t(r) + 1] = out;
            continue;
        }
        for (Index j = 0; j < b.cols(); ++j) {
            m.sload(s_kb, b_ptr + 4 * (Addr(j) + 1), 4);
            m.sbranch(s_kb);
            Index b_lo = b.colPtr()[std::size_t(j)];
            Index b_hi = b.colPtr()[std::size_t(j) + 1];
            if (b_lo == b_hi)
                continue;

            // Index matching restarts both lists for every (r, j)
            // pair, so the streams must be re-bound each time —
            // the setup cost stream semantics pay on inner-product
            // SpMM. Values are loaded only on a match (a destructive
            // pop cannot skip the mismatching side's value).
            m.ssrBindAffine(0, a_col + 4 * Addr(a_lo), IT);
            m.ssrBindAffine(1, b_row + 4 * Addr(b_lo), IT);
            m.salu(s_acc, 0);
            Index ka = a_lo, kb = b_lo;
            bool any = false;
            bool need_a = true, need_b = true;
            while (ka < a_hi && kb < b_hi) {
                if (need_a) {
                    m.ssrPopS(s_ai, 0);
                    need_a = false;
                }
                if (need_b) {
                    m.ssrPopS(s_bi, 1);
                    need_b = false;
                }
                m.salu(s_v, 0, s_ai, s_bi); // compare
                Index ca = a.colIdx()[std::size_t(ka)];
                Index cb = b.rowIdx()[std::size_t(kb)];
                m.sbranchData(s_v, 11, ca == cb);
                if (ca != cb)
                    m.sbranchData(s_v, 12, ca < cb);
                if (ca == cb) {
                    m.sloadF(s_v, a_val + 4 * Addr(ka), VT);
                    m.sloadF(s_v2, b_val + 4 * Addr(kb), VT);
                    m.sfmul(s_v, s_v, s_v2);
                    m.sfadd(s_acc, s_acc, s_v);
                    m.salu(s_ka, ka + 1, s_ka);
                    m.salu(s_kb, kb + 1, s_kb);
                    ++ka;
                    ++kb;
                    need_a = need_b = true;
                    any = true;
                } else if (ca < cb) {
                    m.salu(s_ka, ka + 1, s_ka);
                    ++ka;
                    need_a = true;
                } else {
                    m.salu(s_kb, kb + 1, s_kb);
                    ++kb;
                    need_b = true;
                }
            }
            if (any) {
                m.simm(s_v, j);
                m.sstore(c_col + 4 * Addr(out), s_v, 4);
                m.sstoreF(c_val + 4 * Addr(out), s_acc, VT);
                m.salu(s_out, out + 1, s_out);
                ++out;
            }
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.sstore(c_ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        c_row_ptr[std::size_t(r) + 1] = out;
    }
    auto nnz = std::size_t(c_row_ptr.back());
    std::vector<Index> cols_out = downloadIndices(m, c_col, nnz);
    DenseVector vals_out = downloadValues(m, c_val, nnz);
    return SpmmResult{Csr::fromParts(a.rows(), b.cols(),
                                     std::move(c_row_ptr),
                                     std::move(cols_out),
                                     std::move(vals_out)),
                      m.cycles()};
}

HistResult
histSsr(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    checkKeys(keys, buckets);
    Addr key_arr = upload(m, keys);
    Addr hist = allocValues(m, std::size_t(buckets));

    const int vl = int(m.vl());
    VReg v_keys{0}, v_cf{1}, v_ones{2}, v_cnt{3}, v_old{4};
    SReg s_i{3};

    // The key array is a pure sequential read: one affine stream
    // replaces every key load. The bucket read-modify-write stays in
    // the cache hierarchy exactly as in histVector.
    m.ssrBindAffine(0, key_arr, IT);

    m.vbroadcastF(v_ones, 1.0);
    for (std::size_t i = 0; i < keys.size();
         i += std::size_t(vl)) {
        int n = int(std::min<std::size_t>(std::size_t(vl),
                                          keys.size() - i));
        m.ssrPopV(v_keys, 0, n);
        m.vconflict(v_cf, v_keys, n);
        m.vmergeIdx(v_cnt, v_ones, v_keys, n);
        m.vgather(v_old, hist, v_keys, VT, n);
        m.vaddF(v_old, v_old, v_cnt, n);
        m.vscatter(hist, v_keys, v_old, VT, n);
        m.salu(s_i, Index(i) + vl, s_i);
        m.sbranch(s_i);
    }
    return HistResult{downloadValues(m, hist, std::size_t(buckets)),
                      m.cycles()};
}

StencilResult
stencilSsr(Machine &m, const DenseMatrix &img)
{
    via_assert(img.rows() >= 4 && img.cols() >= 4, "image too small");
    Addr img_base = upload(m, img.data());
    const auto &f = gaussian4x4();
    Addr filt = upload(m, std::vector<Value>(f.begin(), f.end()));
    const Index W = img.cols();
    const Index out_rows = img.rows() - 3;
    const Index out_cols = img.cols() - 3;
    Addr out = m.mem().alloc(std::size_t(out_rows) *
                             std::size_t(out_cols) * sizeof(Value));

    // Per-pixel tap indices, precomputed host-side and consumed
    // through one indirect stream: 16 absolute image offsets per
    // output pixel, window rows 0-1 first, then rows 2-3. (The SSR
    // paper's 2-D affine streams would generate these in hardware;
    // this model has 1-D streams, so the indices are staged like a
    // format conversion.)
    std::vector<Index> taps;
    taps.reserve(std::size_t(out_rows) * std::size_t(out_cols) * 16);
    for (Index y = 0; y < out_rows; ++y)
        for (Index x = 0; x < out_cols; ++x) {
            Index base = y * W + x;
            for (Index l = 0; l < 16; ++l)
                taps.push_back(base + (l / 4) * W + l % 4);
        }
    Addr tap_arr = upload(m, taps);

    VReg v_f0{0}, v_f1{1}, v_tap{2}, v_p0{3}, v_p1{4};
    SReg s_acc{0}, s_x{1}, s_y{2};

    m.vload(v_f0, filt, ElemType::F32);
    m.vload(v_f1, filt + 4 * 8, ElemType::F32);
    m.ssrBindIndirect(0, tap_arr, IT, img_base, ElemType::F32);

    for (Index y = 0; y < out_rows; ++y) {
        for (Index x = 0; x < out_cols; ++x) {
            m.ssrPopV(v_tap, 0, 8);
            m.vmulF(v_p0, v_tap, v_f0, 8);
            m.ssrPopV(v_tap, 0, 8);
            m.vmulF(v_p1, v_tap, v_f1, 8);
            m.vaddF(v_p0, v_p0, v_p1, 8);
            m.vredsumF(s_acc, v_p0);
            m.sstoreF(out + 4 * Addr(y * out_cols + x), s_acc,
                      ElemType::F32);
            m.salu(s_x, x + 1, s_x);
            m.sbranch(s_x);
        }
        m.salu(s_y, y + 1, s_y);
        m.sbranch(s_y);
    }
    DenseMatrix o(out_rows, out_cols);
    o.data() = m.mem().readArray<Value>(
        out, std::size_t(out_rows) * std::size_t(out_cols));
    return StencilResult{std::move(o), m.cycles()};
}

} // namespace via::kernels
