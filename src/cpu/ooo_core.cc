#include "cpu/ooo_core.hh"

#include <algorithm>

#include "simcore/log.hh"
#include "simcore/selfprof.hh"
#include "simcore/serialize.hh"

namespace via
{

OoOCore::OoOCore(const CoreParams &params, MemSystem &mem,
                 VectorBackend &backend)
    : _params(params), _mem(mem), _backend(backend), _fus(params),
      _dispatchPorts(params.dispatchWidth),
      _rob(params.robSize, params.commitWidth),
      _stores(params.storeBuffer),
      _loadQueue(params.lqEntries),
      _storeQueue(params.sqEntries)
{
}

Tick
OoOCore::regReady(std::int16_t reg) const
{
    if (reg == REG_NONE)
        return 0;
    via_assert(reg >= 0 && reg < NUM_REGS, "bad register id ", reg);
    return _regReady[std::size_t(reg)];
}

void
OoOCore::setRegReady(std::int16_t reg, Tick when)
{
    if (reg == REG_NONE)
        return;
    via_assert(reg >= 0 && reg < NUM_REGS, "bad register id ", reg);
    _regReady[std::size_t(reg)] = when;
}

Tick
OoOCore::scheduleMem(const Inst &inst, Tick issue)
{
    // Each access grabs an L1 port slot, respects store ordering,
    // then walks the hierarchy. The instruction's data is ready when
    // the slowest access returns.
    bool indexed = inst.op == Op::VGather || inst.op == Op::VScatter;
    Tick port_occ = indexed ? _params.latencies.gatherPortFactor : 1;
    Tick data_ready = issue;
    for (std::uint8_t a = 0; a < inst.numAccesses; ++a) {
        const MemAccess &acc = inst.accesses[a];
        ++_stats.cacheAccesses;

        Tick ready = issue;
        SlotPool &queue = acc.isWrite ? _storeQueue : _loadQueue;
        // A load/store queue entry must be free before the access
        // can leave the core: this bounds memory-level parallelism.
        ready = std::max(ready, queue.freeAt());
        if (!acc.isWrite) {
            Tick fwd = _stores.loadReady(acc.addr, acc.bytes);
            if (fwd > 0) {
                // The load consumes a store still in flight: wait
                // for the line plus the forwarding-replay penalty.
                ready = std::max(
                    ready,
                    fwd + _params.latencies.storeForwardPenalty);
            }
        }

        Resource &port = _fus.forClass(acc.isWrite
                                           ? FuClass::StorePort
                                           : FuClass::LoadPort);
        Tick start = port.acquire(ready, port_occ);
        MemResult res = _mem.access(acc.addr, acc.bytes, acc.isWrite,
                                    start);
        queue.reserve(res.complete);
        if (acc.isWrite) {
            _stores.recordStore(acc.addr, acc.bytes, res.complete);
            // Stores retire into the cache; the instruction itself
            // completes once the access is issued.
            data_ready = std::max(data_ready, start + 1);
        } else {
            data_ready = std::max(data_ready, res.complete);
        }
    }
    return data_ready;
}

void
OoOCore::push(const Inst &inst)
{
    selfprof::Scope prof(selfprof::Domain::Core);
    ++_stats.insts;
    FuClass cls = fuClassOf(inst.op);

    if (logLevel() >= LogLevel::Debug) {
        via_debug("[", inst.seq, "] ", mnemonic(inst.op),
                  " vl=", int(inst.vl), " dst=", inst.dst,
                  " src=", inst.src[0], ",", inst.src[1], ",",
                  inst.src[2], " mem=", int(inst.numAccesses),
                  " sspm=", inst.sspmReads, "r/", inst.sspmWrites,
                  "w");
    }

    // ---- dispatch: in order, width-limited, ROB-bounded ----------
    Tick disp_ready = std::max(_lastDispatch, _rob.dispatchReady());
    Tick dispatch = _dispatchPorts.acquire(disp_ready);
    _lastDispatch = dispatch;

    // ---- operand readiness ---------------------------------------
    Tick ready = dispatch;
    for (std::int16_t src : inst.src)
        ready = std::max(ready, regReady(src));

    Tick issue = ready;
    Tick complete;
    if (inst.isVia()) {
        ++_stats.viaInsts;
        // VIA instructions must be non-speculative before touching
        // the SSPM (Section IV-E). With perfect branch prediction
        // that means all older branches resolved; the conservative
        // commit-time reading is available for the ablation.
        Tick safe = _params.viaAtCommit ? _rob.commitFront()
                                        : _lastBranchResolve;
        Tick eligible = std::max(ready, safe);
        Fivu::Timing t = _backend.dispatch(inst, eligible,
                                           _params.latencies);
        issue = t.start;
        complete = t.complete;
    } else if (inst.op == Op::SsrCfg) {
        // Stream binds occupy the backend's descriptor sequencer,
        // not a core FU; later pops wait on the bind's completion
        // through memEligible.
        Fivu::Timing t = _backend.dispatch(inst, ready,
                                           _params.latencies);
        issue = t.start;
        complete = t.complete;
    } else if (inst.isMem()) {
        ++_stats.memInsts;
        if (inst.op == Op::VGather || inst.op == Op::VScatter)
            _stats.gatherElements += inst.numAccesses;
        // Address generation / AGU issue, no earlier than any
        // backend constraint (SSR pops wait for their stream's
        // descriptor to land). The default backend hook returns
        // ready unchanged.
        Resource &agu = _fus.forClass(cls);
        issue = agu.acquire(_backend.memEligible(inst, ready));
        Tick fixed = _params.latencies.latencyOf(inst.op);
        complete = std::max(scheduleMem(inst, issue), issue + fixed);
    } else if (cls == FuClass::None) {
        complete = ready;
    } else {
        Resource &fu = _fus.forClass(cls);
        issue = fu.acquire(ready);
        complete = issue + _params.latencies.latencyOf(inst.op);
    }

    if (inst.vl > 0)
        ++_stats.vectorInsts;
    else
        ++_stats.scalarInsts;

    bool mispredicted = false;
    if (inst.op == Op::SBranch) {
        _lastBranchResolve = std::max(_lastBranchResolve, complete);
        if (inst.isDataBranch) {
            ++_stats.branches;
            if (predictAndTrain(inst)) {
                ++_stats.mispredicts;
                mispredicted = true;
                // Front-end redirect: nothing younger dispatches
                // until the branch resolves plus the refill delay.
                _lastDispatch = std::max(
                    _lastDispatch,
                    complete + _params.latencies.mispredictPenalty);
            }
        }
    }

    setRegReady(inst.dst, complete);
    _lastComplete = std::max(_lastComplete, complete);

    // ---- in-order commit -----------------------------------------
    Tick commit = _rob.commit(complete);
    _stats.commitTick = commit;
    _commitFront = std::max(_commitFront, commit);
    _lastTiming = InstTiming{dispatch, issue, complete, commit};

    for (TimingObserver *obs : _timingObservers)
        obs->onInstTiming(inst, _lastTiming);

    if (_trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEventKind::InstRetired;
        ev.comp = TraceComponent::Core;
        ev.op = inst.op;
        ev.start = dispatch;
        ev.end = commit;
        ev.a0 = inst.seq;
        ev.a1 = issue;
        ev.a2 = complete;
        _trace->emit(ev);
        if (mispredicted) {
            TraceEvent mp;
            mp.kind = TraceEventKind::BranchMispredict;
            mp.comp = TraceComponent::Core;
            mp.op = inst.op;
            mp.start = mp.end = complete;
            mp.a0 = inst.branchSite;
            _trace->emit(mp);
        }
        // Functional-layer events (CAM matches etc.) staged while
        // this instruction executed architecturally get its window.
        _trace->flushStaged(issue, complete, inst.op);
    }
}

void
OoOCore::setTrace(TraceManager *trace)
{
    _trace = trace;
    _stores.setTrace(trace);
}

bool
OoOCore::predictAndTrain(const Inst &inst)
{
    // 2-bit saturating counter, weakly-taken initial state.
    std::uint8_t &ctr = _branchTable.try_emplace(
        inst.branchSite, 2).first->second;
    bool predict_taken = ctr >= 2;
    bool mispredicted = predict_taken != inst.branchTaken;
    if (inst.branchTaken && ctr < 3)
        ++ctr;
    else if (!inst.branchTaken && ctr > 0)
        --ctr;
    return mispredicted;
}

bool
OoOCore::warmBranch(const Inst &inst)
{
    if (inst.op != Op::SBranch || !inst.isDataBranch)
        return false;
    return predictAndTrain(inst);
}

void
OoOCore::resetTiming(bool keep_predictor)
{
    _fus.resetTiming();
    _dispatchPorts.resetTiming();
    _rob.resetTiming();
    _stores.resetTiming();
    _loadQueue.resetTiming();
    _storeQueue.resetTiming();
    _regReady.fill(0);
    _lastDispatch = 0;
    _lastComplete = 0;
    _lastBranchResolve = 0;
    if (!keep_predictor)
        _branchTable.clear();
    _backend.resetTiming();
    // Forgetting only the DRAM pipe would leave cache MSHRs holding
    // absolute ticks from the previous epoch; reset the whole
    // hierarchy's in-flight bookings.
    _mem.resetTiming();

    for (TimingObserver *obs : _timingObservers)
        obs->onTimingReset();
}

void
OoOCore::saveState(Serializer &ser) const
{
    ser.tag("CORE");
    _fus.saveState(ser);
    _dispatchPorts.saveState(ser);
    _rob.saveState(ser);
    _stores.saveState(ser);
    _loadQueue.saveState(ser);
    _storeQueue.saveState(ser);
    ser.put(std::uint64_t(NUM_REGS));
    for (Tick t : _regReady)
        ser.put(t);
    ser.put(_lastDispatch);
    ser.put(_lastComplete);
    ser.put(_lastBranchResolve);
    // Sorted by site so the byte stream does not depend on the
    // hash map's iteration order (capture -> restore -> capture must
    // produce identical bytes).
    std::vector<std::pair<std::uint32_t, std::uint8_t>> sites(
        _branchTable.begin(), _branchTable.end());
    std::sort(sites.begin(), sites.end());
    ser.put(std::uint64_t(sites.size()));
    for (const auto &[site, ctr] : sites) {
        ser.put(site);
        ser.put(ctr);
    }
    ser.put(_stats.insts);
    ser.put(_stats.viaInsts);
    ser.put(_stats.memInsts);
    ser.put(_stats.vectorInsts);
    ser.put(_stats.scalarInsts);
    ser.put(_stats.cacheAccesses);
    ser.put(_stats.gatherElements);
    ser.put(_stats.branches);
    ser.put(_stats.mispredicts);
    ser.put(_stats.commitTick);
    ser.put(_lastTiming.dispatch);
    ser.put(_lastTiming.issue);
    ser.put(_lastTiming.complete);
    ser.put(_lastTiming.commit);
}

void
OoOCore::loadState(Deserializer &des)
{
    des.expectTag("CORE");
    _fus.loadState(des);
    _dispatchPorts.loadState(des);
    _rob.loadState(des);
    _stores.loadState(des);
    _loadQueue.loadState(des);
    _storeQueue.loadState(des);
    if (des.get<std::uint64_t>() != std::uint64_t(NUM_REGS))
        throw SerializeError("register file size mismatch");
    for (Tick &t : _regReady)
        t = des.get<Tick>();
    _lastDispatch = des.get<Tick>();
    _lastComplete = des.get<Tick>();
    _lastBranchResolve = des.get<Tick>();
    std::uint64_t sites = des.get();
    _branchTable.clear();
    for (std::uint64_t i = 0; i < sites; ++i) {
        auto site = des.get<std::uint32_t>();
        auto ctr = des.get<std::uint8_t>();
        _branchTable[site] = ctr;
    }
    _stats.insts = des.get<std::uint64_t>();
    _stats.viaInsts = des.get<std::uint64_t>();
    _stats.memInsts = des.get<std::uint64_t>();
    _stats.vectorInsts = des.get<std::uint64_t>();
    _stats.scalarInsts = des.get<std::uint64_t>();
    _stats.cacheAccesses = des.get<std::uint64_t>();
    _stats.gatherElements = des.get<std::uint64_t>();
    _stats.branches = des.get<std::uint64_t>();
    _stats.mispredicts = des.get<std::uint64_t>();
    _stats.commitTick = des.get<std::uint64_t>();
    _lastTiming.dispatch = des.get<Tick>();
    _lastTiming.issue = des.get<Tick>();
    _lastTiming.complete = des.get<Tick>();
    _lastTiming.commit = des.get<Tick>();

    // The restored schedule is a fresh timing epoch for observers
    // (the invariant checker must drop cross-epoch monotonicity).
    for (TimingObserver *obs : _timingObservers)
        obs->onTimingReset();
}

void
OoOCore::addTimingObserver(TimingObserver *obs)
{
    via_assert(obs != nullptr, "null timing observer");
    _timingObservers.push_back(obs);
}

void
OoOCore::removeTimingObserver(TimingObserver *obs)
{
    auto it = std::find(_timingObservers.begin(),
                        _timingObservers.end(), obs);
    if (it != _timingObservers.end())
        _timingObservers.erase(it);
}

void
OoOCore::registerStats(StatSet &stats) const
{
    stats.addScalar("core.insts", "dynamic instructions",
                    &_stats.insts);
    stats.addScalar("core.via_insts", "VIA instructions",
                    &_stats.viaInsts);
    stats.addScalar("core.mem_insts", "memory instructions",
                    &_stats.memInsts);
    stats.addScalar("core.vector_insts", "vector instructions",
                    &_stats.vectorInsts);
    stats.addScalar("core.scalar_insts", "scalar instructions",
                    &_stats.scalarInsts);
    stats.addScalar("core.cache_accesses",
                    "element accesses issued to L1",
                    &_stats.cacheAccesses);
    stats.addScalar("core.gather_elements",
                    "elements moved by gathers/scatters",
                    &_stats.gatherElements);
    stats.addScalar("core.branches", "data-dependent branches",
                    &_stats.branches);
    stats.addScalar("core.mispredicts", "branch mispredictions",
                    &_stats.mispredicts);
    stats.addScalar("core.cycles", "commit tick of youngest inst",
                    &_stats.commitTick);
    stats.addFormula("core.ipc", "instructions per cycle", [this] {
        return _stats.commitTick
                   ? double(_stats.insts) / double(_stats.commitTick)
                   : 0.0;
    });
}

} // namespace via
