#include "kernels/stencil.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "kernels/parallel.hh"
#include "kernels/reference.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;

/** Image (row-major), the 16 filter taps, and the output. */
struct StencilMem
{
    Addr img = 0;
    Addr filt = 0;
    Addr out = 0;
    Index width = 0;    //!< image row stride
    Index imgRows = 0;  //!< image rows
    Index outCols = 0;  //!< output row length
};

StencilMem
uploadStencil(Machine &m, const DenseMatrix &img)
{
    via_assert(img.rows() >= 4 && img.cols() >= 4, "image too small");
    StencilMem s;
    s.img = upload(m, img.data());
    const auto &f = gaussian4x4();
    s.filt = upload(m, std::vector<Value>(f.begin(), f.end()));
    auto out_elems = std::size_t(img.rows() - 3) *
                     std::size_t(img.cols() - 3);
    s.out = m.mem().alloc(out_elems * sizeof(Value));
    s.width = img.cols();
    s.imgRows = img.rows();
    s.outCols = img.cols() - 3;
    return s;
}

DenseMatrix
downloadOut(const Machine &m, Addr out, Index rows, Index cols)
{
    DenseMatrix o(rows, cols);
    o.data() = m.mem().readArray<Value>(
        out, std::size_t(rows) * std::size_t(cols));
    return o;
}

/**
 * Prologue of both kernels (once per core): filter taps resident in
 * two vector registers, and the neighbourhood access patterns — taps
 * 0-7 (window rows 0-1) and taps 8-15 (window rows 2-3), relative to
 * the pixel's linear index in a buffer of the image's row stride
 * (Algorithm 6 lines 2-3). Algorithm 6 keeps the taps in the SSPM
 * and reads them per iteration; with a 16-tap filter two registers
 * hold them, which is strictly cheaper for both machines and keeps
 * the comparison fair.
 */
void
primeTaps(Machine &m, const StencilMem &mem)
{
    VReg v_f0{0}, v_f1{1}, v_pat0{2}, v_pat1{3};
    m.vload(v_f0, mem.filt, VT);
    m.vload(v_f1, mem.filt + 4 * 8, VT);
    std::vector<std::int64_t> pat0, pat1;
    for (std::int64_t l = 0; l < 8; ++l) {
        pat0.push_back((l / 4) * mem.width + l % 4);
        pat1.push_back((l / 4 + 2) * mem.width + l % 4);
    }
    m.vpatternI(v_pat0, pat0);
    m.vpatternI(v_pat1, pat1);
}

/** Vector output rows [lo, hi): two 8-tap gathers per pixel. */
void
vectorRows(Machine &m, const StencilMem &mem, Index lo, Index hi)
{
    const Index W = mem.width;
    VReg v_f0{0}, v_f1{1}, v_pat0{2}, v_pat1{3}, v_base{4},
        v_idx{5}, v_tap{6}, v_p0{7}, v_p1{8};
    SReg s_acc{0}, s_x{1}, s_y{2};

    for (Index y = lo; y < hi; ++y) {
        for (Index x = 0; x < mem.outCols; ++x) {
            std::int64_t base = std::int64_t(y) * W + x;
            m.vbroadcastI(v_base, base);
            // Rows 0-1 of the window: gather + multiply.
            m.vaddI(v_idx, v_pat0, v_base);
            m.vgather(v_tap, mem.img, v_idx, VT);
            m.vmulF(v_p0, v_tap, v_f0);
            // Rows 2-3.
            m.vaddI(v_idx, v_pat1, v_base);
            m.vgather(v_tap, mem.img, v_idx, VT);
            m.vmulF(v_p1, v_tap, v_f1);
            m.vaddF(v_p0, v_p0, v_p1);
            m.vredsumF(s_acc, v_p0);
            m.sstoreF(mem.out + 4 * Addr(y * mem.outCols + x), s_acc,
                      VT);
            m.salu(s_x, x + 1, s_x);
            m.sbranch(s_x);
        }
        m.salu(s_y, y + 1, s_y);
        m.sbranch(s_y);
    }
}

/**
 * VIA output rows [lo, hi): stage as many whole image rows as fit
 * the scratchpad, halo rows included (neighbouring ranges re-read up
 * to 3 rows), and read each pixel's taps straight from the SSPM.
 */
void
viaRows(Machine &m, const StencilMem &mem, Index lo, Index hi)
{
    const Index W = mem.width;
    const int vl = int(m.vl());
    const ViaConfig &via = m.sspm().config();
    via_assert(W <= stencilViaMaxWidth(via), "image row (", W,
               " px) too wide for the SSPM segment staging");
    Index seg_rows =
        std::min<Index>(Index(via.sramEntries()) / W, mem.imgRows);

    VReg v_f0{0}, v_f1{1}, v_pat0{2}, v_pat1{3}, v_base{4},
        v_idx{5}, v_p0{6}, v_p1{7}, v_stage{8};
    SReg s_acc{0}, s_x{1}, s_y{2}, s_i{3};

    for (Index seg = lo; seg < hi; seg += seg_rows - 3) {
        Index ilo = seg;
        Index ihi = std::min<Index>(ilo + seg_rows, mem.imgRows);
        // Stage image rows [ilo, ihi) in the SSPM (Algorithm 6 l.6).
        m.vidxClear();
        Index seg_elems = (ihi - ilo) * W;
        for (Index i = 0; i < seg_elems; i += vl) {
            int n = std::min<Index>(vl, seg_elems - i);
            m.vload(v_stage, mem.img + 4 * Addr(ilo * W + i), VT, n);
            m.viotaI(v_idx, i);
            m.vidxLoadD(v_stage, v_idx, n);
            m.salu(s_i, i + vl, s_i);
            m.sbranch(s_i);
        }
        // Output rows computable from this segment.
        Index y_hi = std::min<Index>(ihi - 3, hi);
        for (Index y = seg; y < y_hi; ++y) {
            for (Index x = 0; x < mem.outCols; ++x) {
                std::int64_t base = std::int64_t(y - ilo) * W + x;
                m.vbroadcastI(v_base, base);
                // Taps come straight from the scratchpad
                // (Algorithm 6 lines 8-10).
                m.vaddI(v_idx, v_pat0, v_base);
                m.vidxMulD(v_f0, v_idx, ViaOut::Vrf, v_p0, 0);
                m.vaddI(v_idx, v_pat1, v_base);
                m.vidxMulD(v_f1, v_idx, ViaOut::Vrf, v_p1, 0);
                m.vaddF(v_p0, v_p0, v_p1);
                m.vredsumF(s_acc, v_p0);
                m.sstoreF(mem.out + 4 * Addr(y * mem.outCols + x),
                          s_acc, VT);
                m.salu(s_x, x + 1, s_x);
                m.sbranch(s_x);
            }
            m.salu(s_y, y + 1, s_y);
            m.sbranch(s_y);
        }
        if (y_hi >= hi)
            break;
    }
}

using RowsFn = void (*)(Machine &, const StencilMem &, Index, Index);

/** One-core run: upload, prologue, all output rows. */
StencilResult
runSerial(Machine &m, const DenseMatrix &img, RowsFn rows)
{
    StencilMem mem = uploadStencil(m, img);
    const Index out_rows = img.rows() - 3;
    primeTaps(m, mem);
    rows(m, mem, 0, out_rows);
    return StencilResult{downloadOut(m, mem.out, out_rows, mem.outCols),
                         m.cycles()};
}

} // namespace

StencilResult
stencilVector(Machine &m, const DenseMatrix &img)
{
    return runSerial(m, img, vectorRows);
}

Index
stencilViaMaxWidth(const ViaConfig &via)
{
    return Index(via.sramEntries() / 4);
}

StencilResult
stencilVia(Machine &m, const DenseMatrix &img)
{
    return runSerial(m, img, viaRows);
}

StencilResult
stencilParallel(MultiMachine &mm, const DenseMatrix &img,
                Partition part, bool via)
{
    Machine &m0 = mm.core(0);
    StencilMem mem = uploadStencil(m0, img);
    const Index out_rows = img.rows() - 3;
    RowsFn rows = via ? viaRows : vectorRows;
    dispatchUnits(
        mm, out_rows, part, [&](Machine &m) { primeTaps(m, mem); },
        [&](unsigned c, Index lo, Index hi) {
            rows(mm.core(c), mem, lo, hi);
        });
    return StencilResult{downloadOut(m0, mem.out, out_rows, mem.outCols),
                         mm.cycles()};
}

} // namespace via::kernels
