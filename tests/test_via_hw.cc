/**
 * @file
 * Unit tests for the VIA hardware blocks: the index-tracking CAM,
 * the SSPM, and the FIVU timing model.
 */

#include <gtest/gtest.h>

#include "isa/inst.hh"
#include "via/fivu.hh"
#include "via/index_table.hh"
#include "via/sspm.hh"

namespace via
{
namespace
{

// ---------------- IndexTable ------------------------------------

TEST(IndexTable, InsertsInOrder)
{
    IndexTable t(16, 8);
    bool ins = false;
    EXPECT_EQ(t.findOrInsert(100, ins), 0);
    EXPECT_TRUE(ins);
    EXPECT_EQ(t.findOrInsert(50, ins), 1);
    EXPECT_EQ(t.findOrInsert(200, ins), 2);
    EXPECT_EQ(t.count(), 3u);
    EXPECT_EQ(t.keyAt(0), 100);
    EXPECT_EQ(t.keyAt(1), 50);
    EXPECT_EQ(t.keyAt(2), 200);
}

TEST(IndexTable, SearchFindsExistingOnly)
{
    IndexTable t(16, 8);
    bool ins = false;
    t.findOrInsert(7, ins);
    EXPECT_EQ(t.search(7), 0);
    EXPECT_EQ(t.search(8), IndexTable::NO_SLOT);
    EXPECT_EQ(t.stats().hits, 1u);
}

TEST(IndexTable, DuplicateInsertReturnsExistingSlot)
{
    IndexTable t(16, 8);
    bool ins = false;
    t.findOrInsert(7, ins);
    auto slot = t.findOrInsert(7, ins);
    EXPECT_EQ(slot, 0);
    EXPECT_FALSE(ins);
    EXPECT_EQ(t.count(), 1u);
}

TEST(IndexTable, OverflowIsReported)
{
    IndexTable t(2, 8);
    bool ins = false;
    t.findOrInsert(1, ins);
    t.findOrInsert(2, ins);
    EXPECT_TRUE(t.full());
    EXPECT_EQ(t.findOrInsert(3, ins), IndexTable::NO_SLOT);
    EXPECT_FALSE(ins);
    EXPECT_EQ(t.stats().overflows, 1u);
}

TEST(IndexTable, ClockGatingChargesOnlyLiveBanks)
{
    IndexTable t(64, 8);
    bool ins = false;
    // Empty table: a search touches zero banks.
    t.search(1);
    EXPECT_EQ(t.stats().banksSearched, 0u);
    for (int i = 0; i < 9; ++i) // spills into a second bank
        t.findOrInsert(i, ins);
    auto banks_before = t.stats().banksSearched;
    t.search(0);
    EXPECT_EQ(t.stats().banksSearched - banks_before, 2u);
}

TEST(IndexTable, ClearResetsCount)
{
    IndexTable t(16, 8);
    bool ins = false;
    t.findOrInsert(1, ins);
    t.clear();
    EXPECT_EQ(t.count(), 0u);
    EXPECT_EQ(t.search(1), IndexTable::NO_SLOT);
    // Slots are reused from zero after the clear.
    EXPECT_EQ(t.findOrInsert(9, ins), 0);
}

// ---------------- Sspm ------------------------------------------

ViaConfig
tinyConfig()
{
    ViaConfig cfg;
    cfg.sspmBytes = 256; // 64 entries
    cfg.camBytes = 64;   // 16 CAM entries
    return cfg;
}

TEST(Sspm, DirectWriteReadRoundTrip)
{
    Sspm s(tinyConfig());
    s.writeDirect(5, 0xdeadbeef);
    EXPECT_EQ(s.readDirect(5), 0xdeadbeefull);
    EXPECT_TRUE(s.validAt(5));
}

TEST(Sspm, UnwrittenEntriesReadZero)
{
    Sspm s(tinyConfig());
    EXPECT_EQ(s.readDirect(9), 0u);
    EXPECT_EQ(s.stats().invalidReads, 1u);
}

TEST(Sspm, ClearSegmentOnlyAffectsRange)
{
    Sspm s(tinyConfig());
    s.writeDirect(3, 1);
    s.writeDirect(10, 2);
    s.clearSegment(0, 8);
    EXPECT_FALSE(s.validAt(3));
    EXPECT_TRUE(s.validAt(10));
    EXPECT_EQ(s.readDirect(3), 0u);
    EXPECT_EQ(s.readDirect(10), 2u);
}

TEST(Sspm, CamWriteReadAndUpdate)
{
    Sspm s(tinyConfig());
    EXPECT_EQ(s.camWrite(42, 7), 0);
    bool found = false;
    EXPECT_EQ(s.camRead(42, found), 7u);
    EXPECT_TRUE(found);
    s.camRead(43, found);
    EXPECT_FALSE(found);

    // Update combines matches, inserts misses.
    auto add = [](std::uint64_t a, std::uint64_t b) { return a + b; };
    s.camUpdate(42, 3, add);
    s.camUpdate(99, 5, add);
    s.camRead(42, found);
    EXPECT_EQ(s.camRead(42, found), 10u);
    EXPECT_EQ(s.camRead(99, found), 5u);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_EQ(s.keyAt(1), 99);
    EXPECT_EQ(s.valueAt(1), 5u);
}

TEST(Sspm, ClearAllResetsCamAndBitmap)
{
    Sspm s(tinyConfig());
    s.writeDirect(1, 11);
    s.camWrite(5, 55);
    s.clearAll();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_FALSE(s.validAt(1));
    bool found = true;
    s.camRead(5, found);
    EXPECT_FALSE(found);
}

TEST(SspmDeathTest, OutOfRangeIndexPanics)
{
    Sspm s(tinyConfig());
    EXPECT_DEATH(s.writeDirect(64, 0), "out of range");
    EXPECT_DEATH(s.readDirect(1000), "out of range");
}

TEST(SspmDeathTest, OutOfRangeMessageIsTheBoundsAssertion)
{
    // The direct-mode accessors are inline, with the bounds check's
    // panic out of line; the abort message is unchanged, in full.
    const char *msg =
        "panic: assertion 'idx < _sram.size\\(\\)' failed: SSPM "
        "index 64 out of range \\(64 entries\\); the kernel must "
        "tile its working set to the scratchpad\n";
    Sspm s(tinyConfig());
    EXPECT_DEATH(s.writeDirect(64, 0), msg);
    EXPECT_DEATH(s.readDirect(64), msg);
    EXPECT_DEATH(s.validAt(64), msg);
}

TEST(SspmDeathTest, CamLargerThanSramRejected)
{
    ViaConfig cfg = tinyConfig();
    cfg.camBytes = cfg.sspmBytes * 2;
    EXPECT_DEATH(Sspm s(cfg), "CAM cannot track");
}

// ---------------- Fivu ------------------------------------------

Inst
viaInst(Op op, std::uint16_t reads, std::uint16_t writes)
{
    Inst i;
    i.op = op;
    i.vl = 8;
    i.sspmReads = reads;
    i.sspmWrites = writes;
    return i;
}

TEST(Fivu, PortCyclesCeilDivide)
{
    ViaConfig cfg;
    cfg.ports = 2;
    Fivu f(cfg);
    EXPECT_EQ(f.portCycles(0), 0u);
    EXPECT_EQ(f.portCycles(1), 1u);
    EXPECT_EQ(f.portCycles(8), 4u);
    EXPECT_EQ(f.portCycles(9), 5u);
}

TEST(Fivu, ReadPhaseDelaysCompletion)
{
    ViaConfig cfg;
    cfg.ports = 2;
    Fivu f(cfg);
    OpLatencies lat;
    auto t = f.dispatch(viaInst(Op::VidxMov, 8, 0), 0, lat);
    EXPECT_EQ(t.start, 0u);
    // 4 port cycles + viaOp latency.
    EXPECT_EQ(t.complete, 4 + lat.latencyOf(Op::VidxMov));
}

TEST(Fivu, MorePortsShortenTheInstruction)
{
    OpLatencies lat;
    ViaConfig c2;
    c2.ports = 2;
    ViaConfig c8;
    c8.ports = 8;
    Fivu f2(c2), f8(c8);
    auto t2 = f2.dispatch(viaInst(Op::VidxBlkMulD, 16, 8), 0, lat);
    auto t8 = f8.dispatch(viaInst(Op::VidxBlkMulD, 16, 8), 0, lat);
    EXPECT_LT(t8.complete, t2.complete);
}

TEST(Fivu, BackToBackInstructionsPipelineOnPorts)
{
    ViaConfig cfg;
    cfg.ports = 2;
    Fivu f(cfg);
    OpLatencies lat;
    auto t1 = f.dispatch(viaInst(Op::VidxMov, 8, 0), 0, lat);
    auto t2 = f.dispatch(viaInst(Op::VidxMov, 8, 0), 0, lat);
    // The second instruction starts 1 cycle later (issue stage) and
    // its ports queue behind the first: 8 cycles of port time
    // total across both.
    EXPECT_EQ(t2.start, 1u);
    EXPECT_EQ(t2.complete, t1.complete + 4);
}

TEST(Fivu, InOrderIssue)
{
    ViaConfig cfg;
    Fivu f(cfg);
    OpLatencies lat;
    f.dispatch(viaInst(Op::VidxMov, 8, 0), 100, lat);
    // Even with earlier-ready operands, issue order holds.
    auto t = f.dispatch(viaInst(Op::VidxMov, 8, 0), 0, lat);
    EXPECT_GE(t.start, 101u);
}

TEST(FivuDeathTest, NonViaInstRejected)
{
    Fivu f(ViaConfig{});
    OpLatencies lat;
    Inst i;
    i.op = Op::VAddF;
    EXPECT_DEATH(f.dispatch(i, 0, lat), "non-VIA");
}

} // namespace
} // namespace via
