#include "kernels/dispatch.hh"

#include <algorithm>

#include "kernels/backend_kernels.hh"
#include "simcore/log.hh"

namespace via::kernels
{

const std::vector<std::string> &
spmvFormats()
{
    static const std::vector<std::string> formats = {
        "csr", "spc5", "sell", "csb"};
    return formats;
}

bool
isSpmvFormat(const std::string &fmt)
{
    const auto &f = spmvFormats();
    return std::find(f.begin(), f.end(), fmt) != f.end();
}

namespace
{

/**
 * Convert @p a to @p fmt with @p m's geometry and upload it: the one
 * place the format -> geometry decision lives. Every SpMV kernel is
 * "upload + At", so the one-shot calls and SpmvResident share this
 * and emit the same stream.
 */
SpmvUpload
uploadSpmv(Machine &m, const Csr &a, const std::string &fmt)
{
    SpmvUpload up;
    const auto vl = Index(m.vl());
    if (fmt == "csr") {
        up.csrImg = uploadCsr(m, a);
    } else if (fmt == "spc5") {
        up.spc5.emplace(Spc5::fromCsr(a, vl));
        up.spc5Img = uploadSpc5(m, *up.spc5);
    } else if (fmt == "sell") {
        up.sell.emplace(SellCSigma::fromCsr(a, vl, 4 * vl));
        up.sellImg = uploadSell(m, *up.sell);
    } else if (fmt == "csb") {
        up.csb.emplace(Csb::fromCsr(a, viaCsbBeta(m)));
        up.csbImg = uploadCsb(m, *up.csb);
    } else {
        via_fatal("unknown SpMV format '", fmt, "'");
    }
    return up;
}

/** Emit the @p kind SpMV kernel for @p fmt against @p up. */
SpmvResult
runSpmv(Machine &m, const Csr &a, const SpmvUpload &up,
        const std::string &fmt, BackendKind kind, const DenseVector &x)
{
    if (fmt == "csr") {
        switch (kind) {
        case BackendKind::Base:
            return spmvVectorCsrAt(m, a, up.csrImg, x);
        case BackendKind::Via:
            return spmvViaCsrAt(m, a, up.csrImg, x);
        case BackendKind::Ssr:
            return spmvSsrCsrAt(m, a, up.csrImg, x);
        case BackendKind::IndexMac:
            return spmvImacCsrAt(m, a, up.csrImg, x);
        }
    }
    if (fmt == "spc5") {
        switch (kind) {
        case BackendKind::Base:
            return spmvVectorSpc5At(m, *up.spc5, up.spc5Img, x);
        case BackendKind::Via:
            return spmvViaSpc5At(m, *up.spc5, up.spc5Img, x);
        case BackendKind::Ssr:
            return spmvSsrSpc5At(m, *up.spc5, up.spc5Img, x);
        case BackendKind::IndexMac:
            return spmvImacSpc5At(m, *up.spc5, up.spc5Img, x);
        }
    }
    if (fmt == "sell") {
        switch (kind) {
        case BackendKind::Base:
            return spmvVectorSellAt(m, *up.sell, up.sellImg, x);
        case BackendKind::Via:
            return spmvViaSellAt(m, *up.sell, up.sellImg, x);
        case BackendKind::Ssr:
            return spmvSsrSellAt(m, *up.sell, up.sellImg, x);
        case BackendKind::IndexMac:
            return spmvImacSellAt(m, *up.sell, up.sellImg, x);
        }
    }
    if (fmt == "csb") {
        switch (kind) {
        case BackendKind::Base:
            return spmvVectorCsbAt(m, *up.csb, up.csbImg, x);
        case BackendKind::Via:
            return spmvViaCsbAt(m, *up.csb, up.csbImg, x);
        case BackendKind::Ssr:
            return spmvSsrCsbAt(m, *up.csb, up.csbImg, x);
        case BackendKind::IndexMac:
            return spmvImacCsbAt(m, *up.csb, up.csbImg, x);
        }
    }
    via_fatal("unknown SpMV format '", fmt, "'");
}

/** One-shot SpMV: convert, upload and run the @p kind kernel. */
SpmvResult
spmvOnce(Machine &m, const Csr &a, const DenseVector &x,
         const std::string &fmt, BackendKind kind)
{
    return runSpmv(m, a, uploadSpmv(m, a, fmt), fmt, kind, x);
}

} // namespace

SpmvResult
spmvVia(Machine &m, const Csr &a, const DenseVector &x,
        const std::string &fmt)
{
    return spmvOnce(m, a, x, fmt, BackendKind::Via);
}

SpmvResult
spmvBaseline(Machine &m, const Csr &a, const DenseVector &x,
             const std::string &fmt)
{
    return spmvOnce(m, a, x, fmt, BackendKind::Base);
}

SpmvResult
spmvAccel(Machine &m, const Csr &a, const DenseVector &x,
          const std::string &fmt)
{
    return spmvOnce(m, a, x, fmt, m.backendKind());
}

SpmaResult
spmaAccel(Machine &m, const Csr &a, const Csr &b)
{
    switch (m.backendKind()) {
    case BackendKind::Base:
        return spmaScalarCsr(m, a, b);
    case BackendKind::Via:
        return spmaViaCsr(m, a, b);
    case BackendKind::Ssr:
        return spmaSsrCsr(m, a, b);
    case BackendKind::IndexMac:
        return spmaImacCsr(m, a, b);
    }
    via_fatal("unhandled backend kind");
}

SpmmResult
spmmAccel(Machine &m, const Csr &a, const Csc &b)
{
    switch (m.backendKind()) {
    case BackendKind::Base:
        return spmmScalarInner(m, a, b);
    case BackendKind::Via:
        return spmmViaInner(m, a, b);
    case BackendKind::Ssr:
        return spmmSsrInner(m, a, b);
    case BackendKind::IndexMac:
        return spmmImacGustavson(m, a, b);
    }
    via_fatal("unhandled backend kind");
}

HistResult
histAccel(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    switch (m.backendKind()) {
    case BackendKind::Base:
        return histVector(m, keys, buckets);
    case BackendKind::Via:
        return histVia(m, keys, buckets);
    case BackendKind::Ssr:
        return histSsr(m, keys, buckets);
    case BackendKind::IndexMac:
        return histImac(m, keys, buckets);
    }
    via_fatal("unhandled backend kind");
}

StencilResult
stencilAccel(Machine &m, const DenseMatrix &img)
{
    switch (m.backendKind()) {
    case BackendKind::Base:
        return stencilVector(m, img);
    case BackendKind::Via:
        return stencilVia(m, img);
    case BackendKind::Ssr:
        return stencilSsr(m, img);
    case BackendKind::IndexMac:
        return stencilImac(m, img);
    }
    via_fatal("unhandled backend kind");
}

SpmvResident::SpmvResident(Machine &m, const Csr &a,
                           const std::string &fmt, BackendKind kind)
    : _fmt(fmt), _kind(kind), _csr(a), _up(uploadSpmv(m, _csr, fmt))
{
}

SpmvResult
SpmvResident::run(Machine &m, const DenseVector &x) const
{
    return runSpmv(m, _csr, _up, _fmt, _kind, x);
}

} // namespace via::kernels
