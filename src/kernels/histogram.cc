#include "kernels/histogram.hh"

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

/** Prologue of both vector kernels: the all-ones increment. */
void
loadOnes(Machine &m)
{
    VReg v_ones{2};
    m.vbroadcastF(v_ones, 1.0);
}

/** Vector CD over keys [lo, hi) into the bucket array @p hist. */
void
vectorKeys(Machine &m, Addr key_arr, Addr hist, Index lo, Index hi)
{
    const int vl = int(m.vl());
    VReg v_keys{0}, v_cf{1}, v_ones{2}, v_cnt{3}, v_old{4};
    SReg s_i{3};

    for (Index i = lo; i < hi; i += vl) {
        int n = std::min<Index>(vl, hi - i);
        m.vload(v_keys, key_arr + 4 * Addr(i), IT, n);
        // Detect and merge duplicate buckets within the vector.
        m.vconflict(v_cf, v_keys, n);
        m.vmergeIdx(v_cnt, v_ones, v_keys, n);
        // Read-modify-write the bucket array through the caches.
        m.vgather(v_old, hist, v_keys, VT, n);
        m.vaddF(v_old, v_old, v_cnt, n);
        m.vscatter(hist, v_keys, v_old, VT, n);
        m.salu(s_i, i + vl, s_i);
        m.sbranch(s_i);
    }
}

/**
 * Call @p tile(lo, hi, tiled) per scratchpad-sized bucket range:
 * bucket ranges beyond the SSPM capacity run as multiple passes
 * over the key stream.
 */
template <typename Tile>
void
forEachTile(const Machine &m, Index buckets, Tile &&tile)
{
    auto capacity = Index(m.sspm().config().sramEntries());
    for (Index lo = 0; lo < buckets; lo += capacity)
        tile(lo, std::min<Index>(lo + capacity, buckets),
             buckets > capacity);
}

/** VIA tile start: a clear SSPM, plus the range bounds if tiled. */
void
viaTileBegin(Machine &m, Index lo, Index hi, bool tiled)
{
    VReg v_lo{6}, v_hi{7};
    m.vidxClear();
    if (tiled) {
        m.vbroadcastI(v_lo, lo);
        m.vbroadcastI(v_hi, hi);
    }
}

/** VIA over keys [lo, hi) into the current tile's SSPM counts. */
void
viaKeys(Machine &m, Addr key_arr, Index lo, Index hi, bool tiled)
{
    const int vl = int(m.vl());
    VReg v_keys{0}, v_cf{1}, v_ones{2}, v_dummy{5}, v_lo{6}, v_hi{7},
        v_mask{8}, v_m2{9};
    SReg s_i{3};

    for (Index i = lo; i < hi; i += vl) {
        int n = std::min<Index>(vl, hi - i);
        m.vload(v_keys, key_arr + 4 * Addr(i), IT, n);
        if (tiled) {
            // Keep only lanes inside the tile's bucket range: mask,
            // rebase and compress them to the front.
            m.vcmpLtI(v_mask, v_keys, v_hi, n); // key < hi
            m.vcmpLtI(v_m2, v_keys, v_lo, n);   // key < lo
            m.vsubI(v_mask, v_mask, v_m2, n);   // in-range
            int active = 0;
            for (int l = 0; l < n; ++l)
                active += m.vreg(v_mask).i(l) != 0;
            // Rebase to the pass-local range and compress.
            m.vsubI(v_keys, v_keys, v_lo, n);
            m.vcompress(v_keys, v_keys, v_mask, n);
            if (active == 0) {
                m.sbranch(s_i);
                continue;
            }
            m.vconflict(v_cf, v_keys, active);
            m.vidxAddD(v_ones, v_keys, ViaOut::Sspm, v_dummy, 0,
                       active);
        } else {
            // Algorithm 5 line 3: conflict mask (the lane-sequenced
            // SSPM update keeps duplicates exact; the instruction is
            // kept for fidelity).
            m.vconflict(v_cf, v_keys, n);
            // Line 5: accumulate in the scratchpad.
            m.vidxAddD(v_ones, v_keys, ViaOut::Sspm, v_dummy, 0, n);
        }
        m.salu(s_i, i + vl, s_i);
        m.sbranch(s_i);
    }
}

/** Algorithm 5 line 7: drain tile [lo, hi) to @p hist in memory. */
void
viaTileDrain(Machine &m, Addr hist, Index lo, Index hi)
{
    const int vl = int(m.vl());
    VReg v_idx{3}, v_out{4};
    SReg s_i{3};
    for (Index i = lo; i < hi; i += vl) {
        int n = std::min<Index>(vl, hi - i);
        m.viotaI(v_idx, i - lo);
        m.vidxMov(v_out, v_idx, n);
        m.vstore(hist + 4 * Addr(i), v_out, VT, n, s_i);
        m.salu(s_i, i + vl, s_i);
        m.sbranch(s_i);
    }
}

} // namespace

HistResult
histScalar(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    checkKeys(keys, buckets);
    Addr key_arr = upload(m, keys);
    Addr hist = allocValues(m, std::size_t(buckets));

    SReg s_key{0}, s_v{1}, s_one{2}, s_i{3};
    m.simm(s_one, 0);
    m.setSregF(s_one, 1.0);

    for (std::size_t i = 0; i < keys.size(); ++i) {
        m.sload(s_key, key_arr + 4 * Addr(i), 4);
        Addr slot = hist + 4 * Addr(keys[i]);
        m.sloadF(s_v, slot, VT, s_key);
        m.sfadd(s_v, s_v, s_one);
        m.sstoreF(slot, s_v, VT, s_key);
        m.salu(s_i, Index(i) + 1, s_i);
        m.sbranch(s_i);
    }
    return HistResult{downloadValues(m, hist, std::size_t(buckets)),
                      m.cycles()};
}

HistResult
histVector(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    checkKeys(keys, buckets);
    Addr key_arr = upload(m, keys);
    Addr hist = allocValues(m, std::size_t(buckets));
    loadOnes(m);
    vectorKeys(m, key_arr, hist, 0, Index(keys.size()));
    return HistResult{downloadValues(m, hist, std::size_t(buckets)),
                      m.cycles()};
}

HistResult
histVia(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    checkKeys(keys, buckets);
    Addr key_arr = upload(m, keys);
    Addr hist = allocValues(m, std::size_t(buckets));
    loadOnes(m);
    forEachTile(m, buckets, [&](Index lo, Index hi, bool tiled) {
        viaTileBegin(m, lo, hi, tiled);
        viaKeys(m, key_arr, 0, Index(keys.size()), tiled);
        viaTileDrain(m, hist, lo, hi);
    });
    return HistResult{downloadValues(m, hist, std::size_t(buckets)),
                      m.cycles()};
}

HistResult
histParallel(MultiMachine &mm, const std::vector<Index> &keys,
             Index buckets, Partition part, bool via)
{
    checkKeys(keys, buckets);
    Machine &m0 = mm.core(0);
    Addr key_arr = upload(m0, keys);
    Addr hist = allocValues(m0, std::size_t(buckets));
    const unsigned cores = mm.cores();
    std::vector<Addr> partial(cores);
    for (unsigned c = 0; c < cores; ++c)
        partial[c] = allocValues(m0, std::size_t(buckets));

    // The bucket-tiled VIA flow re-walks a core's whole key share
    // once per bucket range, so each core needs its full range list
    // up front (pre-assigned rather than dispatched per chunk).
    auto shares = assignRanges(cores, Index(keys.size()), part);
    std::size_t rounds = 0;
    for (unsigned c = 0; c < cores; ++c)
        rounds = std::max(rounds, shares[c].size());
    auto busy_cores = [&](auto &&fn) {
        for (unsigned c = 0; c < cores; ++c)
            if (!shares[c].empty())
                fn(c, mm.core(c));
    };
    // Emission interleaves across cores, one range per core per
    // round: the cores run concurrently, and emitting one core's
    // whole share first would slide the shared resources' booking
    // windows past its siblings' start times (see dispatchUnits).
    auto key_rounds = [&](auto &&keys_fn) {
        for (std::size_t j = 0; j < rounds; ++j)
            for (unsigned c = 0; c < cores; ++c)
                if (j < shares[c].size())
                    keys_fn(c, mm.core(c), shares[c][j].first,
                            shares[c][j].second);
    };

    busy_cores([](unsigned, Machine &m) { loadOnes(m); });
    if (!via) {
        key_rounds([&](unsigned c, Machine &m, Index lo, Index hi) {
            vectorKeys(m, key_arr, partial[c], lo, hi);
        });
    } else {
        forEachTile(m0, buckets, [&](Index blo, Index bhi, bool tiled) {
            busy_cores([&](unsigned, Machine &m) {
                viaTileBegin(m, blo, bhi, tiled);
            });
            key_rounds([&](unsigned, Machine &m, Index lo, Index hi) {
                viaKeys(m, key_arr, lo, hi, tiled);
            });
            busy_cores([&](unsigned c, Machine &m) {
                viaTileDrain(m, partial[c], blo, bhi);
            });
        });
    }

    // Core 0 reduces the partial histograms. The reduction runs on
    // core 0's own timeline after its share; the barrier itself is
    // not modeled beyond cycles() taking the slowest core.
    const int vl = int(m0.vl());
    VReg v_acc{0}, v_p{1};
    SReg s_i{3};
    for (Index i = 0; i < buckets; i += vl) {
        int n = std::min<Index>(vl, buckets - i);
        m0.vbroadcastF(v_acc, 0.0);
        for (unsigned c = 0; c < cores; ++c) {
            m0.vload(v_p, partial[c] + 4 * Addr(i), VT, n);
            m0.vaddF(v_acc, v_acc, v_p, n);
        }
        m0.vstore(hist + 4 * Addr(i), v_acc, VT, n, s_i);
        m0.salu(s_i, i + vl, s_i);
        m0.sbranch(s_i);
    }
    return HistResult{downloadValues(m0, hist, std::size_t(buckets)),
                      mm.cycles()};
}

} // namespace via::kernels
