#include "sparse/convert.hh"

#include <cmath>
#include <map>

#include "simcore/log.hh"

namespace via
{

Csr
csbToCsr(const Csb &m)
{
    return Csr::fromCoo(m.toCoo());
}

Csr
cscToCsr(const Csc &m)
{
    return Csr::fromCoo(m.toCoo());
}

bool
closeElements(const Csr &a, const Csr &b, double atol)
{
    if (a.rows() != b.rows() || a.cols() != b.cols() ||
        a.rowPtr() != b.rowPtr() || a.colIdx() != b.colIdx())
        return false;
    for (std::size_t i = 0; i < a.values().size(); ++i)
        if (std::abs(double(a.values()[i]) -
                     double(b.values()[i])) > atol)
            return false;
    return true;
}

Csr
addCsr(const Csr &a, const Csr &b)
{
    via_assert(a.rows() == b.rows() && a.cols() == b.cols(),
               "SpMA shape mismatch");
    Coo out(a.rows(), a.cols());
    Coo ca = a.toCoo();
    Coo cb = b.toCoo();
    for (const Triplet &t : ca.elems())
        out.add(t.row, t.col, t.value);
    for (const Triplet &t : cb.elems())
        out.add(t.row, t.col, t.value);
    return Csr::fromCoo(std::move(out));
}

Csr
mulCsr(const Csr &a, const Csr &b)
{
    via_assert(a.cols() == b.rows(), "SpMM shape mismatch: ",
               a.cols(), " inner vs ", b.rows());
    Coo out(a.rows(), b.cols());
    const auto &apos = a.rowPtr();
    const auto &acol = a.colIdx();
    const auto &aval = a.values();
    const auto &bpos = b.rowPtr();
    const auto &bcol = b.colIdx();
    const auto &bval = b.values();

    // Row-by-row accumulation with a sorted map keeps the golden
    // kernel simple and exact in double precision.
    for (Index r = 0; r < a.rows(); ++r) {
        std::map<Index, double> acc;
        for (Index ka = apos[std::size_t(r)];
             ka < apos[std::size_t(r) + 1]; ++ka) {
            Index inner = acol[std::size_t(ka)];
            double av = aval[std::size_t(ka)];
            for (Index kb = bpos[std::size_t(inner)];
                 kb < bpos[std::size_t(inner) + 1]; ++kb) {
                acc[bcol[std::size_t(kb)]] +=
                    av * double(bval[std::size_t(kb)]);
            }
        }
        for (const auto &kv : acc)
            out.add(r, kv.first, Value(kv.second));
    }
    return Csr::fromCoo(std::move(out));
}

} // namespace via
