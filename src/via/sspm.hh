/**
 * @file
 * The Smart Scratchpad Memory (paper Section IV-A).
 *
 * Three building blocks:
 *   1. the SRAM cells holding values (raw 64-bit containers here;
 *      capacity is counted in valueBytes blocks as in the paper);
 *   2. the valid bitmap used in direct-mapped mode, with flash clear;
 *   3. the index-tracking logic (IndexTable) providing CAM behaviour.
 *
 * Direct-mapped mode: the input index addresses the SRAM directly.
 * CAM mode: the index searches the table; matches yield the SRAM
 * slot, misses on writes allocate the next free slot in order.
 *
 * Both modes coexist: CAM slots grow from entry 0 while direct-mode
 * regions may use higher offsets (the SpMM kernel relies on this).
 */

#ifndef VIA_VIA_SSPM_HH
#define VIA_VIA_SSPM_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/log.hh"
#include "via/index_table.hh"
#include "via/via_config.hh"

namespace via
{

/** SSPM access statistics (element granularity). */
struct SspmStats
{
    std::uint64_t directReads = 0;
    std::uint64_t directWrites = 0;
    std::uint64_t camReads = 0;
    std::uint64_t camWrites = 0;
    std::uint64_t bitmapClears = 0;
    std::uint64_t invalidReads = 0; //!< direct reads of unwritten slots

    std::uint64_t
    elementAccesses() const
    {
        return directReads + directWrites + camReads + camWrites;
    }
};

/** Functional model of the smart scratchpad. */
class Sspm
{
  public:
    explicit Sspm(const ViaConfig &config);

    const ViaConfig &config() const { return _config; }

    // --- direct-mapped mode -------------------------------------

    /** Write one value; sets the valid bit. */
    void
    writeDirect(std::uint64_t idx, std::uint64_t raw)
    {
        checkIdx(idx);
        ++_stats.directWrites;
        _sram[idx] = raw;
        _valid[idx] = true;
    }

    /** Read one value; unwritten entries read as zero. */
    std::uint64_t
    readDirect(std::uint64_t idx)
    {
        checkIdx(idx);
        ++_stats.directReads;
        if (!_valid[idx]) {
            ++_stats.invalidReads;
            return 0;
        }
        return _sram[idx];
    }

    /** True if the entry has been written since the last clear. */
    bool validAt(std::uint64_t idx) const;

    // --- CAM mode ------------------------------------------------

    /**
     * Insert-or-overwrite by key (vidx.load.c).
     * @return the slot used, or IndexTable::NO_SLOT on overflow
     */
    std::int32_t camWrite(std::int64_t key, std::uint64_t raw);

    /**
     * Read by key (the index-matching search).
     * @param found out: whether the key matched
     * @return the stored value, or zero when absent
     */
    std::uint64_t camRead(std::int64_t key, bool &found);

    /**
     * Read-modify-write by key: existing entries are combined with
     * @p raw via @p combine; absent keys are inserted with @p raw.
     * This is the union semantics SpMA relies on.
     *
     * @return the slot used, or NO_SLOT on overflow
     */
    std::int32_t camUpdate(std::int64_t key, std::uint64_t raw,
                           const std::function<std::uint64_t(
                               std::uint64_t, std::uint64_t)> &combine);

    /** Key tracked at a CAM slot (vidx.keys). */
    std::int64_t keyAt(std::uint32_t slot) const;

    /** Value stored at a CAM slot (vidx.vals). */
    std::uint64_t valueAt(std::uint32_t slot) const;

    /** Element count register. */
    std::uint32_t count() const { return _indexTable.count(); }

    /** True when the CAM cannot take another distinct key. */
    bool camFull() const { return _indexTable.full(); }

    /**
     * Valid bits currently set (direct-mode pressure). Counted on
     * demand — inspection/watchpoint use only, not a hot path.
     */
    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (bool v : _valid)
            if (v)
                ++n;
        return n;
    }

    // --- clearing ------------------------------------------------

    /** vidx.clear full mode: bitmap, index table, element count. */
    void clearAll();

    /** vidx.clear segment mode: valid bits in [lo, hi). */
    void clearSegment(std::uint64_t lo, std::uint64_t hi);

    // --- stats ---------------------------------------------------

    SspmStats &stats() { return _stats; }
    const SspmStats &stats() const { return _stats; }
    IndexTable &indexTable() { return _indexTable; }
    const IndexTable &indexTable() const { return _indexTable; }

    /** Serialize SRAM contents, valid bitmap, stats, index table. */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState; validates the geometry. */
    void loadState(Deserializer &des);

    /** Attach a trace sink (forwarded to the index table). */
    void setTrace(TraceManager *trace);

  private:
    /** Panic unless @p idx addresses an SRAM entry (the panic path
     *  is out of line: see via_assert). */
    void
    checkIdx(std::uint64_t idx) const
    {
        via_assert(idx < _sram.size(), "SSPM index ", idx,
                   " out of range (", _sram.size(), " entries); the "
                   "kernel must tile its working set to the "
                   "scratchpad");
    }

    ViaConfig _config;
    std::vector<std::uint64_t> _sram;
    std::vector<bool> _valid;
    IndexTable _indexTable;
    SspmStats _stats;
};

} // namespace via

#endif // VIA_VIA_SSPM_HH
