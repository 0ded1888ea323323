#include "mem/dram.hh"

#include <algorithm>
#include <cmath>

#include "simcore/log.hh"
#include "simcore/selfprof.hh"
#include "simcore/serialize.hh"

namespace via
{

Dram::Dram(const DramParams &params)
    : _params(params), _pipe(1)
{
    via_assert(params.bytesPerCycle > 0.0,
               "DRAM bandwidth must be positive");
}

Tick
Dram::serve(std::uint64_t bytes, Tick when, bool is_write)
{
    selfprof::Scope prof(selfprof::Domain::Dram);
    ++_stats.requests;
    if (is_write)
        _stats.bytesWritten += bytes;
    else
        _stats.bytesRead += bytes;

    auto xfer = std::max<Tick>(
        1, Tick(std::ceil(double(bytes) / _params.bytesPerCycle)));
    Tick start = _pipe.acquire(when, xfer);
    _stats.queueCycles += start - when;
    _stats.busyCycles += xfer;

    // Burst start/end: the span is the pipe occupancy (bandwidth),
    // not the access latency, so busy roll-ups read as utilization.
    if (_trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEventKind::DramBurst;
        ev.comp = TraceComponent::Dram;
        ev.start = start;
        ev.end = start + xfer;
        ev.a0 = bytes;
        ev.a1 = is_write ? 1 : 0;
        _trace->emit(ev);
    }
    return start + _params.latency + xfer;
}

void
Dram::saveState(Serializer &ser) const
{
    ser.tag("DRAM");
    ser.put(_params.latency);
    ser.putDouble(_params.bytesPerCycle);
    _pipe.saveState(ser);
    ser.put(_stats.requests);
    ser.put(_stats.bytesRead);
    ser.put(_stats.bytesWritten);
    ser.put(_stats.busyCycles);
    ser.put(_stats.queueCycles);
}

void
Dram::loadState(Deserializer &des)
{
    des.expectTag("DRAM");
    if (des.get<Tick>() != _params.latency ||
        des.getDouble() != _params.bytesPerCycle)
        throw SerializeError("DRAM parameter mismatch");
    _pipe.loadState(des);
    _stats.requests = des.get<std::uint64_t>();
    _stats.bytesRead = des.get<std::uint64_t>();
    _stats.bytesWritten = des.get<std::uint64_t>();
    _stats.busyCycles = des.get<std::uint64_t>();
    _stats.queueCycles = des.get<std::uint64_t>();
}

} // namespace via
