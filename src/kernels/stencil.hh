/**
 * @file
 * 4x4 Gaussian convolution stencil (paper Section IV-F2, Algorithm
 * 6; evaluated in Section VII-D / Figure 12.b).
 *
 * Baseline: per-output-pixel vectorization across the 16 filter
 * taps — the natural compiler-vectorized form of a small 2-D
 * convolution. The 4x4 neighbourhood spans four image rows, so the
 * taps are collected with two 8-element gathers per pixel.
 *
 * VIA: the filter and an image segment are staged in the SSPM;
 * each pixel's taps are read with two vidx.mul.d instructions using
 * access-pattern index vectors (Algorithm 6), reduced, and written
 * out. Neighbour accesses never touch the cache hierarchy.
 */

#ifndef VIA_KERNELS_STENCIL_HH
#define VIA_KERNELS_STENCIL_HH

#include "cpu/machine.hh"
#include "sparse/dense.hh"

namespace via::kernels
{

/** Result of one stencil run. */
struct StencilResult
{
    DenseMatrix out;
    Tick cycles = 0;
};

StencilResult stencilVector(Machine &m, const DenseMatrix &img);
StencilResult stencilVia(Machine &m, const DenseMatrix &img);

/**
 * Widest image stencilVia runs on with @p via: it stages whole image
 * rows in the SSPM, at least four (one filter window) at a time.
 */
Index stencilViaMaxWidth(const ViaConfig &via);

} // namespace via::kernels

#endif // VIA_KERNELS_STENCIL_HH
