/**
 * @file
 * Remaining unit coverage: opcode metadata, ViaConfig, core param
 * helpers, the run-metrics collector, RobModel / SlotPool /
 * StoreTracker, and the dense helpers.
 */

#include <gtest/gtest.h>

#include "cpu/lsq.hh"
#include "cpu/machine.hh"
#include "cpu/rob.hh"
#include "isa/opcodes.hh"
#include "kernels/runner.hh"
#include "simcore/rng.hh"
#include "simcore/serialize.hh"
#include "sparse/dense.hh"
#include "trace/trace.hh"

namespace via
{
namespace
{

TEST(Opcodes, EveryOpHasMnemonicAndFuClass)
{
    for (int o = 0; o < int(Op::NumOps); ++o) {
        Op op = Op(o);
        EXPECT_NE(mnemonic(op), "<bad-op>") << o;
        // SsrCfg occupies the SSR backend's descriptor sequencer,
        // not a core FU (see OoOCore::push), so like Nop it has no
        // functional-unit class.
        if (op != Op::Nop && op != Op::SsrCfg) {
            EXPECT_NE(int(fuClassOf(op)), int(FuClass::None)) << o;
        }
    }
}

TEST(Opcodes, ClassPredicatesAreConsistent)
{
    for (int o = 0; o < int(Op::NumOps); ++o) {
        Op op = Op(o);
        if (isViaOp(op)) {
            EXPECT_EQ(int(fuClassOf(op)), int(FuClass::Fivu));
            EXPECT_FALSE(isMemOp(op));
        }
        if (isCamOp(op)) {
            EXPECT_TRUE(isViaOp(op));
        }
    }
}

TEST(Opcodes, LatenciesArePositiveForRealWork)
{
    OpLatencies lat;
    for (Op op : {Op::SAlu, Op::VAddF, Op::VMulF, Op::VRedSumF,
                  Op::VConflict, Op::VidxMov, Op::VidxBlkMulD})
        EXPECT_GE(lat.latencyOf(op), 1u) << mnemonic(op);
    EXPECT_GT(lat.latencyOf(Op::VConflict),
              lat.latencyOf(Op::VAddF));
}

TEST(ViaConfig, NamesFollowThePaper)
{
    EXPECT_EQ(ViaConfig::make(16, 2).name(), "16_2p");
    EXPECT_EQ(ViaConfig::make(4, 4).name(), "4_4p");
}

TEST(ViaConfig, MakeKeepsTheCamRatio)
{
    ViaConfig cfg = ViaConfig::make(8, 2);
    EXPECT_EQ(cfg.sspmBytes, 8u * 1024);
    EXPECT_EQ(cfg.camBytes, 2u * 1024);
    EXPECT_EQ(cfg.sramEntries(), 2048u);
    EXPECT_EQ(cfg.camEntries(), 512u);
}

TEST(CoreParams, UnitsForCoversEveryClass)
{
    CoreParams p;
    for (int c = 1; c < int(FuClass::NumClasses); ++c)
        EXPECT_GT(p.unitsFor(FuClass(c)), 0u) << c;
    EXPECT_EQ(p.unitsFor(FuClass::None), 0u);
}

TEST(MachineParams, PrintMentionsKeyNumbers)
{
    MachineParams p;
    std::ostringstream os;
    p.print(os);
    EXPECT_NE(os.str().find("16 KB"), std::string::npos);
    EXPECT_NE(os.str().find("ROB"), std::string::npos);
    EXPECT_NE(os.str().find("dram"), std::string::npos);
}

TEST(RobModel, CommitIsInOrderAndWidthLimited)
{
    RobModel rob(8, 2);
    // Four instructions all complete at t=10: 2 commit at 10, 2 at
    // 11 (commit width).
    EXPECT_EQ(rob.commit(10), 10u);
    EXPECT_EQ(rob.commit(10), 10u);
    EXPECT_EQ(rob.commit(10), 11u);
    EXPECT_EQ(rob.commit(10), 11u);
    // A fast instruction behind a slow one cannot commit earlier;
    // cycle 11 is already full, so it lands on 12.
    EXPECT_EQ(rob.commit(5), 12u);
}

TEST(RobModel, DispatchReadyTracksTheRing)
{
    RobModel rob(4, 4);
    EXPECT_EQ(rob.dispatchReady(), 0u);
    for (int i = 0; i < 4; ++i)
        rob.commit(Tick(100 + i));
    // Entry 0 is reused by instruction 4; it retired at 100.
    EXPECT_EQ(rob.dispatchReady(), 100u);
}

TEST(SlotPool, GatesOnEarliestSlot)
{
    SlotPool pool(2);
    EXPECT_EQ(pool.freeAt(), 0u);
    pool.reserve(100);
    pool.reserve(50);
    EXPECT_EQ(pool.freeAt(), 50u);
    pool.reserve(80); // takes the slot that freed at 50
    EXPECT_EQ(pool.freeAt(), 80u);
}

/** The binary min-heap SlotPool kept before its sorted ring. */
class HeapPool
{
  public:
    explicit HeapPool(std::size_t slots) : _freeAt(slots, 0) {}

    Tick freeAt() const { return _freeAt[0]; }

    void
    reserve(Tick until)
    {
        std::size_t i = 0;
        const std::size_t n = _freeAt.size();
        for (;;) {
            std::size_t kid = 2 * i + 1;
            if (kid >= n)
                break;
            if (kid + 1 < n && _freeAt[kid + 1] < _freeAt[kid])
                ++kid;
            if (_freeAt[kid] >= until)
                break;
            _freeAt[i] = _freeAt[kid];
            i = kid;
        }
        _freeAt[i] = until;
    }

    void reset() { std::fill(_freeAt.begin(), _freeAt.end(), Tick(0)); }

    std::size_t
    busyAt(Tick t) const
    {
        std::size_t n = 0;
        for (Tick f : _freeAt)
            if (f > t)
                ++n;
        return n;
    }

    /**
     * Write the checkpoint image the heap wrote: its array order.
     * Out of line, like SlotPool's: inlined next to a fresh buffer,
     * the tag write trips a g++ 12 -Wstringop-overflow false positive.
     */
    [[gnu::noinline]] void
    saveState(Serializer &ser) const
    {
        ser.tag("SLOT");
        ser.putVec(_freeAt);
    }

  private:
    std::vector<Tick> _freeAt;
};

template <typename Pool>
std::vector<std::uint8_t>
saveSlots(const Pool &pool)
{
    std::vector<std::uint8_t> out;
    Serializer ser(out);
    pool.saveState(ser);
    return out;
}

SlotPool
loadSlots(std::size_t slots, const std::vector<std::uint8_t> &image)
{
    SlotPool pool(static_cast<std::uint32_t>(slots));
    Deserializer des(image);
    pool.loadState(des);
    return pool;
}

TEST(SlotPool, SortedRingMatchesHeap)
{
    // Monotone completion runs (the common case), out-of-order
    // completions, values below the earliest free time and ties,
    // with timing resets and checkpoint round trips, at the pool
    // sizes the cores use (LQ 72, SQ 56) and the degenerate ones.
    for (std::size_t slots : {1u, 2u, 56u, 72u}) {
        Rng rng(slots);
        SlotPool pool(static_cast<std::uint32_t>(slots));
        HeapPool ref(slots);
        Tick now = 0;
        for (int step = 0; step < 20000; ++step) {
            std::uint64_t op = rng.below(100);
            if (op < 96) {
                Tick until = 0;
                switch (rng.below(5)) {
                case 0: // below the earliest free time
                    until = rng.below(ref.freeAt() + 1);
                    break;
                case 1: // a tie with the earliest or latest booking
                    until = rng.below(2) == 0 ? ref.freeAt() : now;
                    break;
                case 2: // out of order
                    until = now + rng.below(300);
                    break;
                default: // in completion order
                    now += rng.below(8);
                    until = now;
                    break;
                }
                pool.reserve(until);
                ref.reserve(until);
            } else if (op < 97) {
                pool.resetTiming();
                ref.reset();
                now = rng.below(100);
            } else {
                std::vector<std::uint8_t> image = saveSlots(pool);
                ASSERT_EQ(image.size(), saveSlots(ref).size());
                SlotPool restored = loadSlots(slots, image);
                ASSERT_EQ(saveSlots(restored), image) << "step=" << step;
                // An image in the heap's order loads to the same
                // schedule and saves in ascending order again.
                SlotPool fromHeap = loadSlots(slots, saveSlots(ref));
                ASSERT_EQ(saveSlots(fromHeap), image) << "step=" << step;
                pool = op < 99 ? restored : fromHeap;
            }
            ASSERT_EQ(pool.freeAt(), ref.freeAt())
                << "slots=" << slots << " step=" << step;
            Tick t = rng.below(now + 400);
            ASSERT_EQ(pool.busyAt(t), ref.busyAt(t))
                << "slots=" << slots << " step=" << step << " t=" << t;
        }
    }
}

TEST(StoreTracker, DetectsOverlapOnly)
{
    StoreTracker t(8);
    t.recordStore(100, 4, 50);
    EXPECT_EQ(t.loadReady(100, 4), 50u);
    EXPECT_EQ(t.loadReady(102, 4), 50u); // partial overlap
    EXPECT_EQ(t.loadReady(104, 4), 0u);  // adjacent, no overlap
    EXPECT_EQ(t.loadReady(96, 4), 0u);
}

TEST(StoreTracker, RingEvictsOldEntries)
{
    StoreTracker t(2);
    t.recordStore(0, 4, 10);
    t.recordStore(100, 4, 20);
    t.recordStore(200, 4, 30); // evicts the store at 0
    EXPECT_EQ(t.loadReady(0, 4), 0u);
    EXPECT_EQ(t.loadReady(200, 4), 30u);
}

/** The brute-force ring the block filter screens: every load scans. */
class RingScan
{
  public:
    explicit RingScan(std::size_t depth) : _ring(depth) {}

    void
    store(Addr addr, std::uint32_t bytes, Tick when)
    {
        _ring[_next] = Rec{addr, addr + bytes, when};
        _next = (_next + 1) % _ring.size();
    }

    Tick
    load(Addr addr, std::uint32_t bytes)
    {
        Tick ready = 0;
        for (const Rec &st : _ring) {
            if (st.hi > addr && st.lo < addr + bytes &&
                st.complete > ready) {
                ready = st.complete;
                ++_conflicts;
            }
        }
        return ready;
    }

    void
    reset()
    {
        std::fill(_ring.begin(), _ring.end(), Rec{});
        _next = 0;
    }

    std::uint64_t conflicts() const { return _conflicts; }

  private:
    struct Rec
    {
        Addr lo = 0;
        Addr hi = 0;
        Tick complete = 0;
    };
    std::vector<Rec> _ring;
    std::size_t _next = 0;
    std::uint64_t _conflicts = 0;
};

TEST(StoreTracker, BlockFilterMatchesRingScan)
{
    // Dense overlaps in a 4 KiB region, accesses straddling a 64-byte
    // line, empty accesses, stores wider than the filter's 64 KiB of
    // blocks, addresses that alias in the filter 64 KiB apart, stores
    // completing at tick 0, ring wrap-around at several depths,
    // timing resets and checkpoint round trips.
    const std::uint32_t sizes[] = {0, 1, 4, 8, 16, 64, 100, 70000};
    for (std::uint32_t depth : {1u, 3u, 8u, 64u}) {
        Rng rng(depth);
        StoreTracker fast(depth);
        RingScan ref(depth);
        for (int step = 0; step < 40000; ++step) {
            Addr addr = 0x10000 + rng.below(4096);
            std::uint32_t bytes = sizes[rng.below(std::size(sizes))];
            switch (rng.below(4)) {
            case 0: // straddle a line
                addr = 0x10000 + 64 * (1 + rng.below(64)) - rng.below(8);
                bytes = 8 + std::uint32_t(rng.below(9));
                break;
            case 1: // alias a tracked block in the filter
                addr += 0x10000 * (1 + rng.below(4));
                break;
            default:
                break;
            }
            std::uint64_t op = rng.below(100);
            if (op < 45) {
                Tick when = rng.below(10) == 0 ? 0 : 1 + rng.below(1000);
                fast.recordStore(addr, bytes, when);
                ref.store(addr, bytes, when);
            } else if (op < 98) {
                ASSERT_EQ(fast.loadReady(addr, bytes),
                          ref.load(addr, bytes))
                    << "depth=" << depth << " step=" << step;
            } else if (op < 99) {
                fast.resetTiming();
                ref.reset();
            } else {
                std::vector<std::uint8_t> bytes_out;
                Serializer ser(bytes_out);
                fast.saveState(ser);
                StoreTracker restored(depth);
                Deserializer des(bytes_out);
                restored.loadState(des);
                fast = restored;
            }
            ASSERT_EQ(fast.conflicts(), ref.conflicts())
                << "depth=" << depth << " step=" << step;
        }
    }
}

TEST(StoreTracker, RepeatLoadMemoMatchesRingScan)
{
    // A y gather's lanes load one word many times between stores.
    // Runs of 1-16 identical loads, also straight after a timing
    // reset and a checkpoint round trip, must return, count and
    // trace exactly what a full ring scan does.
    for (std::uint32_t depth : {1u, 8u, 64u}) {
        Rng rng(100 + depth);
        TraceManager trace(1u << 20);
        StoreTracker fast(depth);
        fast.setTrace(&trace);
        RingScan ref(depth);
        std::vector<std::pair<Addr, Tick>> stalls;
        Addr addr = 0x20000;
        std::uint32_t bytes = 4;
        auto loadRun = [&](int step) {
            int run = 1 + int(rng.below(16));
            for (int i = 0; i < run; ++i) {
                Tick want = ref.load(addr, bytes);
                ASSERT_EQ(fast.loadReady(addr, bytes), want)
                    << "depth=" << depth << " step=" << step;
                ASSERT_EQ(fast.conflicts(), ref.conflicts())
                    << "depth=" << depth << " step=" << step;
                if (want > 0)
                    stalls.emplace_back(addr, want);
            }
        };
        for (int step = 0; step < 20000; ++step) {
            std::uint64_t op = rng.below(100);
            if (op < 40) {
                Addr st = 0x20000 + 4 * rng.below(64);
                std::uint32_t len = rng.below(4) == 0 ? 8 : 4;
                Tick when = rng.below(10) == 0 ? 0 : 1 + rng.below(1000);
                fast.recordStore(st, len, when);
                ref.store(st, len, when);
            } else if (op < 96) {
                addr = 0x20000 + 4 * rng.below(64);
                bytes = rng.below(4) == 0 ? 8 : 4;
                loadRun(step);
            } else if (op < 98) {
                // Repeat the last load's range across the reset.
                fast.resetTiming();
                ref.reset();
                loadRun(step);
            } else {
                // ... and across a checkpoint restore: a later store
                // over the range and a load of it fill the memo with a
                // tick the restored ring no longer holds.
                std::vector<std::uint8_t> image;
                Serializer ser(image);
                fast.saveState(ser);
                RingScan saved = ref;
                fast.recordStore(addr, bytes, 5000);
                ref.store(addr, bytes, 5000);
                loadRun(step);
                Deserializer des(image);
                fast.loadState(des);
                ref = saved;
                loadRun(step);
            }
            if (HasFatalFailure())
                return;
        }
        ASSERT_EQ(trace.dropped(), 0u);
        ASSERT_EQ(trace.events().size(), stalls.size())
            << "depth=" << depth;
        for (std::size_t i = 0; i < stalls.size(); ++i) {
            const TraceEvent &ev = trace.events()[i];
            ASSERT_EQ(int(ev.kind), int(TraceEventKind::LsqForwardStall));
            ASSERT_EQ(ev.a0, stalls[i].first) << i;
            ASSERT_EQ(ev.start, stalls[i].second) << i;
            ASSERT_EQ(ev.end, stalls[i].second) << i;
        }
    }
}

TEST(RunMetrics, CollectsConsistentNumbers)
{
    Machine m{MachineParams{}};
    Addr a = m.mem().alloc(1024);
    for (int i = 0; i < 16; ++i)
        m.sload(SReg{0}, a + Addr(i) * 64, 4);
    auto r = kernels::collectMetrics(m);
    EXPECT_EQ(r.cycles, m.cycles());
    EXPECT_EQ(r.insts, 16u);
    EXPECT_GT(r.dramReadBytes, 0u);
    EXPECT_GT(r.dramBytesPerCycle, 0.0);
    EXPECT_NEAR(r.ipc, 16.0 / double(r.cycles), 1e-9);
    EXPECT_GT(r.energy.totalPj(), 0.0);
}

TEST(Dense, MatrixAccessors)
{
    DenseMatrix m(2, 3);
    m.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
    EXPECT_EQ(m.data().size(), 6u);
}

TEST(DenseDeathTest, OutOfRangePanics)
{
    DenseMatrix m(2, 2);
    EXPECT_DEATH(m.at(2, 0), "out of range");
}

TEST(Dense, AllCloseAndMaxDiff)
{
    DenseVector a{1.0f, 2.0f};
    DenseVector b{1.0f, 2.0001f};
    EXPECT_TRUE(allClose(a, b));
    EXPECT_FALSE(allClose(a, DenseVector{1.0f, 3.0f}));
    EXPECT_FALSE(allClose(a, DenseVector{1.0f}));
    EXPECT_NEAR(maxAbsDiff(a, b), 0.0001, 1e-6);
}

TEST(Dense, RandomVectorInRange)
{
    Rng rng(4);
    DenseVector v = randomVector(100, rng);
    for (float x : v) {
        EXPECT_GE(x, -1.0f);
        EXPECT_LT(x, 1.0f);
    }
}

} // namespace
} // namespace via
