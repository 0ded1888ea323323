#include "cpu/lsq.hh"

#include <algorithm>

#include "simcore/log.hh"
#include "simcore/serialize.hh"

namespace via
{

StoreTracker::StoreTracker(std::uint32_t depth)
    : _ring(std::max<std::uint32_t>(depth, 1))
{
}

void
StoreTracker::countBlocks(const StoreRec &st, int delta)
{
    // An entry completing at tick 0 can never delay a load (the scan
    // needs complete > 0), so it stays out of the table.
    if (st.complete == 0)
        return;
    Addr first;
    std::size_t n = blockSpan(st.lo, st.hi, first);
    for (std::size_t i = 0; i < n; ++i)
        _blocks[(first + i) & (filterSize - 1)] += delta;
}

void
StoreTracker::recordStore(Addr addr, std::uint32_t bytes, Tick when)
{
    StoreRec &st = _ring[_next];
    countBlocks(st, -1);
    st = StoreRec{addr, addr + bytes, when};
    countBlocks(st, +1);
    _next = (_next + 1) % _ring.size();
    _memo = ScanMemo{};
}

Tick
StoreTracker::loadReadyScan(Addr addr, std::uint32_t bytes) const
{
    Addr lo = addr;
    Addr hi = addr + bytes;
    Tick ready = 0;
    std::uint64_t updates = 0;
    for (const auto &st : _ring) {
        if (st.hi > lo && st.lo < hi && st.complete > ready) {
            ready = st.complete;
            ++updates;
        }
    }
    _conflicts += updates;
    _memo = ScanMemo{lo, hi, ready, updates};
    noteStall(addr, ready);
    return ready;
}

void
StoreTracker::emitStall(Addr addr, Tick ready) const
{
    TraceEvent ev;
    ev.kind = TraceEventKind::LsqForwardStall;
    ev.comp = TraceComponent::Lsq;
    ev.start = ev.end = ready;
    ev.a0 = addr;
    _trace->emit(ev);
}

void
StoreTracker::resetTiming()
{
    std::fill(_ring.begin(), _ring.end(), StoreRec{});
    _next = 0;
    _blocks.fill(0);
    _memo = ScanMemo{};
}

void
SlotPool::saveState(Serializer &ser) const
{
    // Ascending order: the same length as the heap this pool used to
    // keep, and itself a valid min-heap.
    std::vector<Tick> sorted(_freeAt.size());
    std::rotate_copy(_freeAt.begin(), _freeAt.begin() + _head,
                     _freeAt.end(), sorted.begin());
    ser.tag("SLOT");
    ser.putVec(sorted);
}

void
SlotPool::loadState(Deserializer &des)
{
    des.expectTag("SLOT");
    auto v = des.getVec<Tick>();
    if (v.size() != _freeAt.size())
        throw SerializeError("slot pool size mismatch");
    // Timing depends only on the multiset of free times; sort so any
    // stored order loads, including the heap order of older images.
    std::sort(v.begin(), v.end());
    _freeAt = std::move(v);
    _head = 0;
}

void
StoreTracker::saveState(Serializer &ser) const
{
    ser.tag("STRK");
    ser.put(std::uint64_t(_ring.size()));
    for (const StoreRec &st : _ring) {
        ser.put(st.lo);
        ser.put(st.hi);
        ser.put(st.complete);
    }
    ser.put(std::uint64_t(_next));
    ser.put(_conflicts);
}

void
StoreTracker::loadState(Deserializer &des)
{
    des.expectTag("STRK");
    std::uint64_t n = des.get();
    if (n != _ring.size())
        throw SerializeError("store tracker depth mismatch");
    _blocks.fill(0);
    _memo = ScanMemo{};
    for (StoreRec &st : _ring) {
        st.lo = des.get<Addr>();
        st.hi = des.get<Addr>();
        st.complete = des.get<Tick>();
        countBlocks(st, +1);
    }
    _next = std::size_t(des.get());
    if (_next >= _ring.size())
        throw SerializeError("store tracker cursor out of range");
    _conflicts = des.get<std::uint64_t>();
}

} // namespace via
