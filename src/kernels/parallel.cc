#include "kernels/parallel.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "simcore/log.hh"

namespace via::kernels
{

Partition
parsePartition(const std::string &name)
{
    if (name == "static")
        return Partition::Static;
    if (name == "steal")
        return Partition::Steal;
    via_fatal("unknown partition '", name, "' (static, steal)");
}

const char *
partitionName(Partition p)
{
    return p == Partition::Static ? "static" : "steal";
}

std::vector<std::pair<Index, Index>>
staticRanges(Index n, unsigned cores)
{
    std::vector<std::pair<Index, Index>> out;
    out.reserve(cores);
    Index base = n / Index(cores);
    Index rem = n % Index(cores);
    Index lo = 0;
    for (unsigned c = 0; c < cores; ++c) {
        Index len = base + (Index(c) < rem ? 1 : 0);
        out.push_back({lo, lo + len});
        lo += len;
    }
    return out;
}

Index
stealChunk(Index n, unsigned cores)
{
    // Steal cuts the iteration space into this many chunks per core.
    constexpr Index kChunksPerCore = 8;
    Index parts = Index(cores) * kChunksPerCore;
    return std::max<Index>(1, (n + parts - 1) / parts);
}

std::vector<std::vector<std::pair<Index, Index>>>
assignRanges(unsigned cores, Index n, Partition part)
{
    std::vector<std::vector<std::pair<Index, Index>>> out(cores);
    if (n <= 0)
        return out;
    if (cores == 1) {
        out[0].push_back({0, n});
        return out;
    }
    if (part == Partition::Static) {
        // Same contiguous share per core as dispatchUnits' static
        // split, but sliced into chunk-sized consecutive pieces so
        // the caller can interleave emission across cores (one
        // piece per core per round) and keep the concurrent
        // timelines within the shared resources' booking windows.
        auto ranges = staticRanges(n, cores);
        const Index chunk = stealChunk(n, cores);
        for (unsigned c = 0; c < cores; ++c)
            for (Index lo = ranges[c].first; lo < ranges[c].second;
                 lo += chunk)
                out[c].push_back(
                    {lo, std::min<Index>(lo + chunk,
                                         ranges[c].second)});
        return out;
    }
    const Index chunk = stealChunk(n, cores);
    unsigned c = 0;
    for (Index lo = 0; lo < n; lo += chunk) {
        out[c].push_back({lo, std::min<Index>(lo + chunk, n)});
        c = (c + 1) % cores;
    }
    return out;
}

} // namespace via::kernels
