#include "sparse/generators.hh"

#include <algorithm>
#include <cmath>

#include "simcore/log.hh"

namespace via
{

namespace
{

Value
randValue(Rng &rng)
{
    return Value(rng.uniform() * 2.0 - 1.0);
}

} // namespace

Csr
genBanded(Index n, Index bandwidth, double fill, Rng &rng)
{
    via_assert(n > 0 && bandwidth >= 0, "bad band parameters");
    Coo coo(n, n);
    for (Index r = 0; r < n; ++r) {
        Index lo = std::max<Index>(0, r - bandwidth);
        Index hi = std::min<Index>(n - 1, r + bandwidth);
        for (Index c = lo; c <= hi; ++c) {
            if (c == r || rng.chance(fill))
                coo.add(r, c, randValue(rng));
        }
    }
    return Csr::fromCoo(std::move(coo));
}

Csr
genUniform(Index rows, Index cols, double density, Rng &rng)
{
    via_assert(rows > 0 && cols > 0, "bad shape");
    via_assert(density > 0.0 && density <= 1.0, "bad density ",
               density);
    // Sample nnz positions without materializing the dense grid:
    // geometric skipping over the linearized index space.
    Coo coo(rows, cols);
    double total = double(rows) * double(cols);
    auto target = std::size_t(total * density);
    double skip_mean = total / double(std::max<std::size_t>(target,
                                                            1));
    double pos = 0.0;
    while (true) {
        // Exponential gap with mean skip_mean.
        double u = std::max(rng.uniform(), 1e-12);
        pos += -std::log(u) * skip_mean;
        if (pos >= total)
            break;
        auto linear = std::uint64_t(pos);
        coo.add(Index(linear / std::uint64_t(cols)),
                Index(linear % std::uint64_t(cols)),
                randValue(rng));
    }
    return Csr::fromCoo(std::move(coo));
}

Csr
genRmat(Index n, std::size_t nnz_target, Rng &rng)
{
    via_assert(n > 0 && (n & (n - 1)) == 0,
               "RMAT needs a power-of-two size, got ", n);
    const double a = 0.57, b = 0.19, c = 0.19; // d = 0.05
    Coo coo(n, n);
    for (std::size_t e = 0; e < nnz_target; ++e) {
        Index row = 0, col = 0;
        for (Index bit = n >> 1; bit > 0; bit >>= 1) {
            double p = rng.uniform();
            if (p < a) {
                // top-left: nothing to add
            } else if (p < a + b) {
                col |= bit;
            } else if (p < a + b + c) {
                row |= bit;
            } else {
                row |= bit;
                col |= bit;
            }
        }
        coo.add(row, col, randValue(rng));
    }
    coo.canonicalize();
    return Csr::fromCoo(std::move(coo));
}

Csr
genBandedCsr(Index n, Index bandwidth, double fill, Rng &rng)
{
    via_assert(n > 0 && bandwidth >= 0, "bad band parameters");
    std::vector<Index> row_ptr(std::size_t(n) + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    // The band walk visits (r, c) in row-major order and never
    // repeats a position, so entries land CSR-sorted as drawn.
    for (Index r = 0; r < n; ++r) {
        Index lo = std::max<Index>(0, r - bandwidth);
        Index hi = std::min<Index>(n - 1, r + bandwidth);
        for (Index c = lo; c <= hi; ++c) {
            if (c == r || rng.chance(fill)) {
                col_idx.push_back(c);
                values.push_back(randValue(rng));
            }
        }
        row_ptr[std::size_t(r) + 1] = Index(col_idx.size());
    }
    return Csr::fromParts(n, n, std::move(row_ptr),
                          std::move(col_idx), std::move(values));
}

Csr
genRmatCsr(Index n, std::size_t nnz_target, Rng &rng)
{
    via_assert(n > 0 && (n & (n - 1)) == 0,
               "RMAT needs a power-of-two size, got ", n);
    const double a = 0.57, b = 0.19, c = 0.19; // d = 0.05
    auto draw_edge = [n, a, b, c](Rng &r, Index &row, Index &col) {
        row = 0;
        col = 0;
        for (Index bit = n >> 1; bit > 0; bit >>= 1) {
            double p = r.uniform();
            if (p < a) {
                // top-left: nothing to add
            } else if (p < a + b) {
                col |= bit;
            } else if (p < a + b + c) {
                row |= bit;
            } else {
                row |= bit;
                col |= bit;
            }
        }
    };

    // Pass 1: count edges per row on a copy of the stream. The
    // value draw is consumed and discarded so both passes read the
    // random sequence identically.
    std::vector<Index> row_ptr(std::size_t(n) + 1, 0);
    {
        Rng probe = rng;
        for (std::size_t e = 0; e < nnz_target; ++e) {
            Index row = 0, col = 0;
            draw_edge(probe, row, col);
            (void)randValue(probe);
            ++row_ptr[std::size_t(row) + 1];
        }
    }
    for (Index r = 0; r < n; ++r)
        row_ptr[std::size_t(r) + 1] += row_ptr[std::size_t(r)];

    // Pass 2: place each edge into its row's segment (consuming the
    // caller's rng, which therefore ends exactly as after genRmat).
    std::vector<Index> col_idx(nnz_target);
    std::vector<Value> values(nnz_target);
    std::vector<Index> next(row_ptr.begin(), row_ptr.end() - 1);
    for (std::size_t e = 0; e < nnz_target; ++e) {
        Index row = 0, col = 0;
        draw_edge(rng, row, col);
        const Value v = randValue(rng);
        const auto slot = std::size_t(next[std::size_t(row)]++);
        col_idx[slot] = col;
        values[slot] = v;
    }

    // Per-row sort + duplicate merge (summing in draw order via the
    // stable sort; exact zeros are kept, as in Coo::canonicalize).
    std::vector<Index> out_ptr(std::size_t(n) + 1, 0);
    std::vector<std::pair<Index, Value>> tmp;
    std::size_t w = 0;
    for (Index r = 0; r < n; ++r) {
        const auto lo = std::size_t(row_ptr[std::size_t(r)]);
        const auto hi = std::size_t(row_ptr[std::size_t(r) + 1]);
        tmp.clear();
        for (std::size_t i = lo; i < hi; ++i)
            tmp.emplace_back(col_idx[i], values[i]);
        std::stable_sort(tmp.begin(), tmp.end(),
                         [](const auto &x, const auto &y) {
                             return x.first < y.first;
                         });
        for (std::size_t i = 0; i < tmp.size();) {
            Index col = tmp[i].first;
            Value sum = tmp[i].second;
            std::size_t j = i + 1;
            for (; j < tmp.size() && tmp[j].first == col; ++j)
                sum += tmp[j].second;
            col_idx[w] = col;
            values[w] = sum;
            ++w;
            i = j;
        }
        out_ptr[std::size_t(r) + 1] = Index(w);
    }
    col_idx.resize(w);
    values.resize(w);
    return Csr::fromParts(n, n, std::move(out_ptr),
                          std::move(col_idx), std::move(values));
}

Csr
genBlocked(Index n, Index block_side, double block_fill,
           double inner_fill, Rng &rng)
{
    via_assert(block_side > 0 && block_side <= n,
               "bad block side ", block_side);
    Coo coo(n, n);
    Index grid = (n + block_side - 1) / block_side;
    for (Index br = 0; br < grid; ++br) {
        for (Index bc = 0; bc < grid; ++bc) {
            // Keep the diagonal blocks so no row is empty-ish.
            if (br != bc && !rng.chance(block_fill))
                continue;
            Index rlo = br * block_side;
            Index clo = bc * block_side;
            Index rhi = std::min(rlo + block_side, n);
            Index chi = std::min(clo + block_side, n);
            for (Index r = rlo; r < rhi; ++r)
                for (Index c = clo; c < chi; ++c)
                    if (rng.chance(inner_fill))
                        coo.add(r, c, randValue(rng));
        }
    }
    return Csr::fromCoo(std::move(coo));
}

Csr
genDiagHeavy(Index n, double off_diag, Rng &rng)
{
    via_assert(n > 0, "bad size");
    Coo coo(n, n);
    for (Index r = 0; r < n; ++r) {
        coo.add(r, r, Value(2.0 + rng.uniform()));
        // Poisson(off_diag) off-diagonal entries via thinning.
        auto extras = std::size_t(off_diag);
        if (rng.chance(off_diag - double(extras)))
            ++extras;
        for (std::size_t e = 0; e < extras; ++e) {
            auto c = Index(rng.below(std::uint64_t(n)));
            if (c != r)
                coo.add(r, c, randValue(rng));
        }
    }
    coo.canonicalize();
    return Csr::fromCoo(std::move(coo));
}

} // namespace via
