/**
 * @file
 * SpMV format dispatch shared by the drivers (via_sim, via_fuzz).
 *
 * A format name selects the storage conversion (CSR stays as-is,
 * SPC5/SELL-C-sigma/CSB are built from the CSR with the
 * machine-appropriate geometry) and the kernel pair: the baseline
 * vector variant and the VIA variant. Keeping the mapping in one
 * place means the fuzzer exercises exactly the conversions the
 * interactive driver runs.
 */

#ifndef VIA_KERNELS_DISPATCH_HH
#define VIA_KERNELS_DISPATCH_HH

#include <optional>
#include <string>
#include <vector>

#include "kernels/histogram.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "kernels/spmv.hh"
#include "kernels/stencil.hh"

namespace via::kernels
{

/** The SpMV format names every driver accepts. */
const std::vector<std::string> &spmvFormats();

/** True if @p fmt names a known SpMV format. */
bool isSpmvFormat(const std::string &fmt);

/**
 * Run the VIA SpMV kernel for @p fmt (converting @p a as needed).
 * Fatal on an unknown format name.
 */
SpmvResult spmvVia(Machine &m, const Csr &a, const DenseVector &x,
                   const std::string &fmt);

/**
 * Run the baseline (non-VIA) vector SpMV kernel for @p fmt on the
 * same converted storage the VIA variant uses.
 *
 * spmvVia/spmvBaseline convert and upload the matrix on every call,
 * so repeated runs on one machine touch fresh cold addresses.
 */
SpmvResult spmvBaseline(Machine &m, const Csr &a,
                        const DenseVector &x, const std::string &fmt);

/**
 * Run the SpMV kernel matching the machine's vector backend: the
 * VIA kernels on backend=via, the SSR / IndexMAC variants on their
 * backends, and the plain vector kernels on backend=base. This is
 * the entry point drivers use when the accelerated column of a
 * comparison should follow `backend=`.
 */
SpmvResult spmvAccel(Machine &m, const Csr &a, const DenseVector &x,
                     const std::string &fmt);

/**
 * The other kernels' backend-following entry points: the accelerated
 * variant matching Machine::backendKind() (VIA CAM / SSR streams /
 * IndexMAC), or the software baseline on backend=base.
 */
SpmaResult spmaAccel(Machine &m, const Csr &a, const Csr &b);
SpmmResult spmmAccel(Machine &m, const Csr &a, const Csc &b);
HistResult histAccel(Machine &m, const std::vector<Index> &keys,
                     Index buckets);
StencilResult stencilAccel(Machine &m, const DenseMatrix &img);

/**
 * A matrix converted to one SpMV format with a machine's geometry
 * (vector length, CSB block side) and uploaded onto it: the format's
 * storage is set (csr needs none) along with its base addresses.
 */
struct SpmvUpload
{
    std::optional<Spc5> spc5;
    std::optional<SellCSigma> sell;
    std::optional<Csb> csb;
    CsrImage csrImg;
    Spc5Image spc5Img;
    SellImage sellImg;
    CsbImage csbImg;
};

/**
 * A matrix made resident on a machine: the format conversion and
 * the matrix-operand upload happen once in the constructor, and
 * every run() emits the kernel body against the recorded base
 * addresses. Repeated runs re-walk the same lines with warm caches
 * — the serving subsystem's batching benefit — and a checkpoint
 * captured from the warm machine restores the resident matrix for
 * every fan-out batch.
 *
 * The geometry baked in at construction (vector length, CSB block
 * side from viaCsbBeta) comes from the constructing machine, so
 * run() must only be called on that machine, or on machines
 * restored from its checkpoints / built from the same MachineConfig.
 * The first run() on the constructing machine is bit-identical to
 * the matching spmvVia/spmvBaseline one-shot call.
 */
class SpmvResident
{
  public:
    /**
     * Convert @p a to @p fmt and upload it onto @p m once; run()
     * emits the kernel family of @p kind (which must match the
     * machine's backend for Ssr / IndexMac).
     */
    SpmvResident(Machine &m, const Csr &a, const std::string &fmt,
                 BackendKind kind);

    /** Emit y = A x against the resident matrix. */
    SpmvResult run(Machine &m, const DenseVector &x) const;

    const std::string &format() const { return _fmt; }
    BackendKind kind() const { return _kind; }
    /** Rows of the resident matrix (the result vector's length). */
    Index rows() const { return _csr.rows(); }

  private:
    std::string _fmt;
    BackendKind _kind;
    Csr _csr; //!< owned copy; also the conversion source
    SpmvUpload _up;
};

} // namespace via::kernels

#endif // VIA_KERNELS_DISPATCH_HH
