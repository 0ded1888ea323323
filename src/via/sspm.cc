#include "via/sspm.hh"

#include <algorithm>
#include <sstream>

#include "simcore/log.hh"
#include "simcore/serialize.hh"

namespace via
{

std::string
ViaConfig::name() const
{
    std::ostringstream os;
    os << (sspmBytes / 1024) << '_' << ports << 'p';
    return os.str();
}

ViaConfig
ViaConfig::make(std::uint64_t sspm_kb, std::uint32_t ports)
{
    ViaConfig cfg;
    cfg.sspmBytes = sspm_kb * 1024;
    cfg.ports = ports;
    // The paper pairs an 8 KB SSPM with a 2 KB CAM; we keep that 4:1
    // ratio across all sizes.
    cfg.camBytes = cfg.sspmBytes / 4;
    return cfg;
}

Sspm::Sspm(const ViaConfig &config)
    : _config(config),
      _sram(config.sramEntries(), 0),
      _valid(config.sramEntries(), false),
      _indexTable(std::uint32_t(config.camEntries()),
                  config.bankEntries)
{
    via_assert(config.sramEntries() > 0, "SSPM has no entries");
    via_assert(config.camEntries() <= config.sramEntries(),
               "CAM cannot track more entries than the SRAM holds");
    via_assert(config.ports > 0, "SSPM needs at least one port");
}

void
Sspm::setTrace(TraceManager *trace)
{
    _indexTable.setTrace(trace);
}

bool
Sspm::validAt(std::uint64_t idx) const
{
    checkIdx(idx);
    return _valid[idx];
}

std::int32_t
Sspm::camWrite(std::int64_t key, std::uint64_t raw)
{
    ++_stats.camWrites;
    bool inserted = false;
    std::int32_t slot = _indexTable.findOrInsert(key, inserted);
    if (slot == IndexTable::NO_SLOT)
        return slot;
    checkIdx(std::uint64_t(slot));
    _sram[std::uint64_t(slot)] = raw;
    _valid[std::uint64_t(slot)] = true;
    return slot;
}

std::uint64_t
Sspm::camRead(std::int64_t key, bool &found)
{
    ++_stats.camReads;
    std::int32_t slot = _indexTable.search(key);
    if (slot == IndexTable::NO_SLOT) {
        found = false;
        return 0;
    }
    found = true;
    return _sram[std::uint64_t(slot)];
}

std::int32_t
Sspm::camUpdate(std::int64_t key, std::uint64_t raw,
                const std::function<std::uint64_t(
                    std::uint64_t, std::uint64_t)> &combine)
{
    ++_stats.camWrites;
    bool inserted = false;
    std::int32_t slot = _indexTable.findOrInsert(key, inserted);
    if (slot == IndexTable::NO_SLOT)
        return slot;
    auto uslot = std::uint64_t(slot);
    checkIdx(uslot);
    if (inserted) {
        _sram[uslot] = raw;
    } else {
        ++_stats.camReads;
        _sram[uslot] = combine(_sram[uslot], raw);
    }
    _valid[uslot] = true;
    return slot;
}

std::int64_t
Sspm::keyAt(std::uint32_t slot) const
{
    return _indexTable.keyAt(slot);
}

std::uint64_t
Sspm::valueAt(std::uint32_t slot) const
{
    via_assert(slot < _indexTable.count(),
               "valueAt(", slot, ") beyond element count");
    return _sram[slot];
}

void
Sspm::clearAll()
{
    // Flash zeroing: a single-cycle wide reset of the valid bitmap
    // plus the index table and element count register.
    std::fill(_valid.begin(), _valid.end(), false);
    _indexTable.clear();
    ++_stats.bitmapClears;
}

void
Sspm::clearSegment(std::uint64_t lo, std::uint64_t hi)
{
    via_assert(lo <= hi && hi <= _valid.size(),
               "bad clear segment [", lo, ", ", hi, ")");
    std::fill(_valid.begin() + std::ptrdiff_t(lo),
              _valid.begin() + std::ptrdiff_t(hi), false);
    ++_stats.bitmapClears;
}

void
Sspm::saveState(Serializer &ser) const
{
    ser.tag("SSPM");
    ser.put(std::uint64_t(_sram.size()));
    ser.putVec(_sram);
    ser.putBoolVec(_valid);
    ser.put(_stats.directReads);
    ser.put(_stats.directWrites);
    ser.put(_stats.camReads);
    ser.put(_stats.camWrites);
    ser.put(_stats.bitmapClears);
    ser.put(_stats.invalidReads);
    _indexTable.saveState(ser);
}

void
Sspm::loadState(Deserializer &des)
{
    des.expectTag("SSPM");
    if (des.get<std::uint64_t>() != _sram.size())
        throw SerializeError("SSPM geometry mismatch");
    auto sram = des.getVec<std::uint64_t>(_sram.size());
    auto valid = des.getBoolVec();
    if (sram.size() != _sram.size() || valid.size() != _valid.size())
        throw SerializeError("SSPM geometry mismatch");
    _sram = std::move(sram);
    _valid = std::move(valid);
    _stats.directReads = des.get<std::uint64_t>();
    _stats.directWrites = des.get<std::uint64_t>();
    _stats.camReads = des.get<std::uint64_t>();
    _stats.camWrites = des.get<std::uint64_t>();
    _stats.bitmapClears = des.get<std::uint64_t>();
    _stats.invalidReads = des.get<std::uint64_t>();
    _indexTable.loadState(des);
}

} // namespace via
