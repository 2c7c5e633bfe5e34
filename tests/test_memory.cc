/**
 * @file
 * Unit tests for the memory substrate: set-associative cache (LRU,
 * writebacks, multi-line requests), banked DRAM, and the TileLink
 * bus (tag limiting, out-of-order responses).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/tilelink.hh"

using namespace qtenon::memory;
using namespace qtenon::sim;

namespace {

/** A downstream device with fixed (or per-request varying) latency. */
class FakeMem : public MemDevice
{
  public:
    explicit FakeMem(EventQueue &eq, Tick latency = 100 * nsTicks)
        : _eq(eq), _latency(latency)
    {}

    void
    access(const MemPacket &pkt, MemCallback cb) override
    {
        ++accesses;
        if (pkt.isWrite())
            ++writes;
        Tick lat = _latency;
        if (varying) {
            // Alternate fast/slow to force response reordering.
            lat = (accesses % 2 == 0) ? _latency * 4 : _latency;
        }
        const Tick done = _eq.curTick() + lat;
        _eq.scheduleLambda(done, [cb, done] { cb(done); });
    }

    EventQueue &_eq;
    Tick _latency;
    bool varying = false;
    int accesses = 0;
    int writes = 0;
};

Tick
syncAccess(EventQueue &eq, MemDevice &dev, std::uint64_t addr,
           bool write = false, std::uint32_t size = 8)
{
    MemPacket p;
    p.cmd = write ? MemCmd::Write : MemCmd::Read;
    p.addr = addr;
    p.size = size;
    Tick done = 0;
    dev.access(p, [&](Tick t) { done = t; });
    eq.run();
    return done;
}

} // namespace

TEST(Cache, MissThenHit)
{
    EventQueue eq;
    FakeMem mem(eq);
    Cache c(eq, "l1", ClockDomain(1000), CacheConfig{}, &mem);

    const Tick t_miss = syncAccess(eq, c, 0x1000);
    EXPECT_EQ(c.misses.value(), 1u);
    EXPECT_GE(t_miss, 100 * nsTicks);

    const Tick t0 = eq.curTick();
    const Tick t_hit = syncAccess(eq, c, 0x1008); // same line
    EXPECT_EQ(c.hits.value(), 1u);
    EXPECT_EQ(t_hit - t0, 2000u); // 2-cycle hit latency
    EXPECT_EQ(mem.accesses, 1);
}

TEST(Cache, ProbeDoesNotAllocate)
{
    EventQueue eq;
    FakeMem mem(eq);
    Cache c(eq, "l1", ClockDomain(1000), CacheConfig{}, &mem);
    EXPECT_FALSE(c.probe(0x40));
    syncAccess(eq, c, 0x40);
    EXPECT_TRUE(c.probe(0x40));
    c.flush();
    EXPECT_FALSE(c.probe(0x40));
}

TEST(Cache, LruEvictsOldest)
{
    EventQueue eq;
    FakeMem mem(eq);
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 64; // 4 lines
    cfg.associativity = 4;  // one set
    Cache c(eq, "l1", ClockDomain(1000), cfg, &mem);

    for (int i = 0; i < 4; ++i)
        syncAccess(eq, c, i * 64);
    syncAccess(eq, c, 0); // touch line 0 so line 1 is LRU
    syncAccess(eq, c, 4 * 64); // evicts line 1
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(64));
    EXPECT_TRUE(c.probe(4 * 64));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    EventQueue eq;
    FakeMem mem(eq);
    CacheConfig cfg;
    cfg.sizeBytes = 2 * 64;
    cfg.associativity = 2;
    Cache c(eq, "l1", ClockDomain(1000), cfg, &mem);

    syncAccess(eq, c, 0, true); // dirty line 0
    syncAccess(eq, c, 64);
    syncAccess(eq, c, 128); // evicts dirty line 0
    EXPECT_EQ(c.writebacks.value(), 1u);
    EXPECT_GE(mem.writes, 1);
}

TEST(Cache, MultiLineRequestTouchesEveryLine)
{
    EventQueue eq;
    FakeMem mem(eq);
    Cache c(eq, "l1", ClockDomain(1000), CacheConfig{}, &mem);
    MemPacket p;
    p.addr = 0;
    p.size = 256; // 4 lines
    Tick done = 0;
    c.access(p, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(c.misses.value(), 4u);
    EXPECT_GT(done, 0u);
}

TEST(Cache, MissRate)
{
    EventQueue eq;
    FakeMem mem(eq);
    Cache c(eq, "l1", ClockDomain(1000), CacheConfig{}, &mem);
    syncAccess(eq, c, 0);
    syncAccess(eq, c, 0);
    syncAccess(eq, c, 0);
    syncAccess(eq, c, 0);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.25);
}

TEST(Dram, BankInterleaving)
{
    EventQueue eq;
    Dram d(eq, "dram", DramConfig{});
    EXPECT_EQ(d.bankOf(0), 0u);
    EXPECT_EQ(d.bankOf(64), 1u);
    EXPECT_EQ(d.bankOf(128), 2u);
    EXPECT_EQ(d.bankOf(256), 0u);
}

TEST(Dram, FixedLatencyWhenIdle)
{
    EventQueue eq;
    DramConfig cfg;
    Dram d(eq, "dram", cfg);
    const Tick done = syncAccess(eq, d, 0x100);
    EXPECT_EQ(done, cfg.accessLatency);
}

TEST(Dram, BankConflictsSerialize)
{
    EventQueue eq;
    DramConfig cfg;
    Dram d(eq, "dram", cfg);
    std::vector<Tick> done(2, 0);
    MemPacket p;
    p.addr = 0x0; // same bank
    d.access(p, [&](Tick t) { done[0] = t; });
    p.addr = 0x100; // bank 0 again (256 % 4banks*64)
    d.access(p, [&](Tick t) { done[1] = t; });
    eq.run();
    EXPECT_EQ(done[1] - done[0], cfg.bankBusy);
    EXPECT_EQ(d.reads.value(), 2u);
}

TEST(Dram, DifferentBanksOverlap)
{
    EventQueue eq;
    DramConfig cfg;
    Dram d(eq, "dram", cfg);
    std::vector<Tick> done(2, 0);
    MemPacket p;
    p.addr = 0x0;
    d.access(p, [&](Tick t) { done[0] = t; });
    p.addr = 0x40; // bank 1
    d.access(p, [&](Tick t) { done[1] = t; });
    eq.run();
    EXPECT_EQ(done[0], done[1]);
}

TEST(TileLink, BeatsArithmetic)
{
    EventQueue eq;
    FakeMem mem(eq);
    TileLinkBus bus(eq, "bus", ClockDomain(1000), TileLinkConfig{},
                    &mem);
    EXPECT_EQ(bus.beatsFor(1), 1u);
    EXPECT_EQ(bus.beatsFor(32), 1u);
    EXPECT_EQ(bus.beatsFor(33), 2u);
    EXPECT_EQ(bus.beatsFor(256), 8u);
    EXPECT_EQ(bus.numTags(), 32u);
}

TEST(TileLink, CompletesAndFreesTags)
{
    EventQueue eq;
    FakeMem mem(eq);
    TileLinkBus bus(eq, "bus", ClockDomain(1000), TileLinkConfig{},
                    &mem);
    const Tick done = syncAccess(eq, bus, 0x0, false, 64);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(bus.freeTags(), 32u);
    EXPECT_EQ(bus.transactions.value(), 1u);
}

TEST(TileLink, TagPoolLimitsOutstanding)
{
    EventQueue eq;
    FakeMem mem(eq, 10 * usTicks); // slow downstream
    TileLinkBus bus(eq, "bus", ClockDomain(1000), TileLinkConfig{},
                    &mem);
    int completed = 0;
    MemPacket p;
    p.size = 8;
    for (int i = 0; i < 40; ++i) {
        p.addr = i * 64;
        bus.access(p, [&](Tick) { ++completed; });
    }
    // More requests than tags: 8 must wait.
    EXPECT_GE(bus.tagStalls.value(), 8u);
    eq.run();
    EXPECT_EQ(completed, 40);
    EXPECT_EQ(bus.freeTags(), 32u);
}

TEST(TileLink, ResponsesArriveOutOfOrder)
{
    EventQueue eq;
    FakeMem mem(eq);
    mem.varying = true; // alternate slow/fast downstream
    TileLinkBus bus(eq, "bus", ClockDomain(1000), TileLinkConfig{},
                    &mem);
    std::vector<int> completion_order;
    MemPacket p;
    p.size = 8;
    for (int i = 0; i < 6; ++i) {
        p.addr = i * 64;
        bus.accessTagged(p, [&, i](const BusResponse &) {
            completion_order.push_back(i);
        });
    }
    eq.run();
    ASSERT_EQ(completion_order.size(), 6u);
    EXPECT_NE(completion_order,
              (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(TileLink, IssueCallbackReportsUniqueTags)
{
    EventQueue eq;
    FakeMem mem(eq, 10 * usTicks);
    TileLinkBus bus(eq, "bus", ClockDomain(1000), TileLinkConfig{},
                    &mem);
    std::set<std::uint8_t> tags;
    std::vector<std::uint64_t> issued_addrs;
    MemPacket p;
    p.size = 8;
    for (int i = 0; i < 16; ++i) {
        p.addr = i * 64;
        bus.accessTagged(
            p, [](const BusResponse &) {},
            [&](std::uint8_t tag, Tick, const MemPacket &pkt) {
                tags.insert(tag);
                issued_addrs.push_back(pkt.addr);
            });
    }
    EXPECT_EQ(tags.size(), 16u); // all outstanding, all distinct
    // Each observer sees its own request, in issue order.
    ASSERT_EQ(issued_addrs.size(), 16u);
    for (std::size_t i = 0; i < issued_addrs.size(); ++i)
        EXPECT_EQ(issued_addrs[i], i * 64);
    eq.run();
}
