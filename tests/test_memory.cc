/**
 * @file
 * Unit tests for the memory substrate: set-associative cache (LRU,
 * writebacks, multi-line requests), banked DRAM, and the TileLink
 * bus (tag limiting, out-of-order responses).
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/tilelink.hh"
#include "sim/random.hh"

using namespace qtenon::memory;
using namespace qtenon::sim;

namespace {

/** A downstream device with fixed (or per-request varying) latency. */
class FakeMem : public MemDevice
{
  public:
    explicit FakeMem(Tick latency = 100 * nsTicks) : _latency(latency) {}

    MemTiming
    access(const MemPacket &pkt, Tick now) override
    {
        ++accesses;
        if (pkt.isWrite())
            ++writes;
        Tick lat = _latency;
        if (varying) {
            // Alternate fast/slow to force response reordering.
            lat = (accesses % 2 == 0) ? _latency * 4 : _latency;
        }
        return {now + lat, now};
    }

    Tick _latency;
    bool varying = false;
    int accesses = 0;
    int writes = 0;
};

MemPacket
packet(std::uint64_t addr, bool write, std::uint32_t size)
{
    MemPacket p;
    p.cmd = write ? MemCmd::Write : MemCmd::Read;
    p.addr = addr;
    p.size = size;
    return p;
}

/** Time one device access at the current tick and advance to it. */
Tick
syncAccess(EventQueue &eq, MemDevice &dev, std::uint64_t addr,
           bool write = false, std::uint32_t size = 8)
{
    const Tick done =
        dev.access(packet(addr, write, size), eq.curTick()).done;
    eq.run(done);
    return done;
}

/** One bus transaction, run to completion. */
Tick
syncAccess(EventQueue &eq, TileLinkBus &bus, std::uint64_t addr,
           bool write = false, std::uint32_t size = 8)
{
    Tick done = 0;
    bus.accessTagged(packet(addr, write, size),
                     [&](const BusResponse &r) { done = r.completed; });
    eq.run();
    return done;
}

} // namespace

TEST(Cache, MissThenHit)
{
    EventQueue eq;
    FakeMem mem;
    Cache c("l1", ClockDomain(1000), CacheConfig{}, &mem);

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
    FakeMem mem;
    Cache c("l1", ClockDomain(1000), CacheConfig{}, &mem);
    EXPECT_FALSE(c.probe(0x40));
    syncAccess(eq, c, 0x40);
    EXPECT_TRUE(c.probe(0x40));
    c.flush();
    EXPECT_FALSE(c.probe(0x40));
}

TEST(Cache, LruEvictsOldest)
{
    EventQueue eq;
    FakeMem mem;
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 64; // 4 lines
    cfg.associativity = 4;  // one set
    Cache c("l1", ClockDomain(1000), cfg, &mem);

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
    FakeMem mem;
    CacheConfig cfg;
    cfg.sizeBytes = 2 * 64;
    cfg.associativity = 2;
    Cache c("l1", ClockDomain(1000), cfg, &mem);

    syncAccess(eq, c, 0, true); // dirty line 0
    syncAccess(eq, c, 64);
    syncAccess(eq, c, 128); // evicts dirty line 0
    EXPECT_EQ(c.writebacks.value(), 1u);
    EXPECT_GE(mem.writes, 1);
}

TEST(Cache, MultiLineRequestTouchesEveryLine)
{
    EventQueue eq;
    FakeMem mem;
    Cache c("l1", ClockDomain(1000), CacheConfig{}, &mem);
    MemPacket p;
    p.addr = 0;
    p.size = 256; // 4 lines
    const Tick done = c.access(p, eq.curTick()).done;
    EXPECT_EQ(c.misses.value(), 4u);
    EXPECT_GT(done, 0u);
}

TEST(Cache, MultiLineTimingIsItsSlowestLineKnownLast)
{
    // Lines 0-3 hit and line 4 misses; the last hit (port start +3,
    // 2-cycle hit) and the miss (2-cycle fill, then 3 cycles) both
    // complete 5 cycles in. Of the two, the miss became known last.
    EventQueue eq;
    FakeMem mem(2000);
    Cache c("l1", ClockDomain(1000), CacheConfig{}, &mem);
    for (std::uint64_t line = 0; line < 4; ++line)
        syncAccess(eq, c, line * 64);
    const Tick now = eq.curTick();
    const MemTiming t = c.access(packet(0, false, 5 * 64), now);
    EXPECT_EQ(t.done, now + 5000);
    EXPECT_EQ(t.known, now + 2000);
}

TEST(Cache, MissRate)
{
    EventQueue eq;
    FakeMem mem;
    Cache c("l1", ClockDomain(1000), CacheConfig{}, &mem);
    syncAccess(eq, c, 0);
    syncAccess(eq, c, 0);
    syncAccess(eq, c, 0);
    syncAccess(eq, c, 0);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.25);
}

TEST(Dram, BankInterleaving)
{
    Dram d(DramConfig{});
    EXPECT_EQ(d.bankOf(0), 0u);
    EXPECT_EQ(d.bankOf(64), 1u);
    EXPECT_EQ(d.bankOf(128), 2u);
    EXPECT_EQ(d.bankOf(256), 0u);
}

TEST(Dram, FixedLatencyWhenIdle)
{
    EventQueue eq;
    DramConfig cfg;
    Dram d(cfg);
    const Tick done = syncAccess(eq, d, 0x100);
    EXPECT_EQ(done, cfg.accessLatency);
}

TEST(Dram, BankConflictsSerialize)
{
    EventQueue eq;
    DramConfig cfg;
    Dram d(cfg);
    std::vector<Tick> done(2, 0);
    MemPacket p;
    p.addr = 0x0; // same bank
    done[0] = d.access(p, eq.curTick()).done;
    p.addr = 0x100; // bank 0 again (256 % 4banks*64)
    done[1] = d.access(p, eq.curTick()).done;
    EXPECT_EQ(done[1] - done[0], cfg.bankBusy);
    EXPECT_EQ(d.reads.value(), 2u);
}

TEST(Dram, DifferentBanksOverlap)
{
    EventQueue eq;
    DramConfig cfg;
    Dram d(cfg);
    std::vector<Tick> done(2, 0);
    MemPacket p;
    p.addr = 0x0;
    done[0] = d.access(p, eq.curTick()).done;
    p.addr = 0x40; // bank 1
    done[1] = d.access(p, eq.curTick()).done;
    EXPECT_EQ(done[0], done[1]);
}

TEST(TileLink, BeatsArithmetic)
{
    EventQueue eq;
    FakeMem mem;
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
    FakeMem mem;
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
    FakeMem mem(10 * usTicks); // slow downstream
    TileLinkBus bus(eq, "bus", ClockDomain(1000), TileLinkConfig{},
                    &mem);
    int completed = 0;
    MemPacket p;
    p.size = 8;
    for (int i = 0; i < 40; ++i) {
        p.addr = i * 64;
        bus.accessTagged(p, [&](const BusResponse &) { ++completed; });
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
    FakeMem mem;
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
    FakeMem mem(10 * usTicks);
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

namespace {

/** One request of the bus + L2 + DRAM golden corpus. */
struct GoldenReq {
    /** Tick it is handed to the bus (ignored when `after` is set). */
    Tick at;
    MemCmd cmd;
    std::uint64_t addr;
    std::uint32_t size;
    /** Issue from the response callback of this request instead. */
    int after = -1;
    /**
     * Priority of the event that issues it at `at`; a request at
     * tick 0 is issued before the run starts.
     */
    int priority = Event::defaultPrio;
};

/**
 * Requests over a 1 KB, 2-way L2 (8 sets of 64-byte lines) in front
 * of the default DRAM: a burst of 36 at tick 0 (32 take every tag,
 * 4 wait for one), a burst of 12 at 3 us, 2 issued from response
 * callbacks, and 24 from a seeded stream between 6 and 6.4 us.
 * Every fifth request of the first burst and every fourth of the
 * second spans two lines; 24 and 32 distinct lines over 16 slots,
 * with a third and a half of the requests writes, force dirty
 * victims. The seeded requests mix
 * sizes and line offsets, a third of them issued by events in the
 * release band (as a q_run PUT is) and some from response
 * callbacks; with this seed some of their hits complete at the tick
 * of an earlier miss, and must respond ahead of it.
 */
std::vector<GoldenReq>
goldenCorpus(std::uint64_t seed)
{
    std::vector<GoldenReq> reqs;
    for (std::uint64_t i = 0; i < 36; ++i) {
        const bool two_lines = i % 5 == 0;
        reqs.push_back({0, i % 3 == 0 ? MemCmd::Write : MemCmd::Read,
                        (i * 7 % 24) * 64 + (two_lines ? 32 : 0),
                        two_lines ? 64u : 32u});
    }
    for (std::uint64_t i = 0; i < 12; ++i) {
        const bool two_lines = i % 4 == 1;
        reqs.push_back({3 * usTicks,
                        i % 2 == 0 ? MemCmd::Write : MemCmd::Read,
                        (i * 5 + 3) % 32 * 64 + (two_lines ? 48 : 0),
                        two_lines ? 32u : 16u});
    }
    reqs.push_back({0, MemCmd::Write, 17 * 64, 8, 5});
    reqs.push_back({0, MemCmd::Read, 40 * 64 + 60, 8, 40});

    Rng rng(seed);
    const std::uint32_t sizes[] = {8, 16, 32, 64};
    for (int i = 0; i < 24; ++i) {
        GoldenReq r{6 * usTicks + rng.index(400) * nsTicks,
                    rng.coin(0.5) ? MemCmd::Write : MemCmd::Read, 0,
                    sizes[rng.index(4)]};
        r.addr = rng.index(40) * 64 +
            (rng.coin(0.4) ? 64 - r.size / 2 : 0);
        if (i > 4 && rng.coin(0.15))
            r.after = static_cast<int>(50 + rng.index(i));
        r.priority = rng.coin(0.3) ? Event::releasePrio
                                   : Event::defaultPrio;
        reqs.push_back(r);
    }
    return reqs;
}

struct GoldenOutcome {
    std::vector<int> tags;
    std::vector<Tick> done;
    /** Request indices in response order. */
    std::vector<int> order;
    std::uint64_t l2Hits, l2Misses, l2Writebacks;
    std::uint64_t dramReads, dramWrites;
    Tick end;
    std::map<std::string, double> faults;
};

/** Run the corpus, with `bus` faults from @p faults when it is set. */
GoldenOutcome
runGoldenCorpus(std::uint64_t seed, const char *faults = nullptr)
{
    EventQueue eq;
    const auto core = ClockDomain::fromHz(1'000'000'000);
    Dram dram;
    CacheConfig l2_cfg;
    l2_cfg.sizeBytes = 1024;
    l2_cfg.associativity = 2;
    Cache l2("l2", core, l2_cfg, &dram);
    TileLinkBus bus(eq, "bus", core, TileLinkConfig{}, &l2);
    std::unique_ptr<qtenon::fault::FaultInjector> inj;
    if (faults) {
        inj = std::make_unique<qtenon::fault::FaultInjector>(
            qtenon::fault::FaultSpec::parse(faults), seed);
        qtenon::fault::RetryPolicy retry;
        retry.maxAttempts = 3;
        retry.backoff = 5 * nsTicks;
        bus.attachInjector(inj.get(), retry);
    }

    const auto reqs = goldenCorpus(seed);
    GoldenOutcome out;
    out.tags.assign(reqs.size(), -1);
    out.done.assign(reqs.size(), 0);
    std::function<void(std::size_t)> issue = [&](std::size_t i) {
        MemPacket p;
        p.cmd = reqs[i].cmd;
        p.addr = reqs[i].addr;
        p.size = reqs[i].size;
        bus.accessTagged(p,
            [&, i](const BusResponse &r) {
                out.done[i] = r.completed;
                out.order.push_back(static_cast<int>(i));
                for (std::size_t j = 0; j < reqs.size(); ++j)
                    if (reqs[j].after == static_cast<int>(i))
                        issue(j);
            },
            [&, i](std::uint8_t tag, Tick, const MemPacket &) {
                out.tags[i] = tag;
            });
    };
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (reqs[i].after >= 0)
            continue;
        if (reqs[i].at == 0)
            issue(i);
        else
            eq.scheduleLambda(reqs[i].at, [&issue, i] { issue(i); },
                              "client", reqs[i].priority);
    }
    eq.run();
    out.l2Hits = l2.hits.value();
    out.l2Misses = l2.misses.value();
    out.l2Writebacks = l2.writebacks.value();
    out.dramReads = dram.reads.value();
    out.dramWrites = dram.writes.value();
    out.end = eq.curTick();
    if (inj)
        inj->exportCounters(out.faults);
    return out;
}

} // namespace

TEST(BusL2DramGolden, TransactionsMatchTheEventDrivenModel)
{
    // Recorded on the event-driven model, in which the bus handed a
    // request to the L2 in an event at its arrival tick and every
    // cache hit, DRAM completion and line fill was an event of its
    // own. Timing a transaction when it is issued must give every
    // tag, completion tick and count, and the response order, as
    // that model did.
    const auto got = runGoldenCorpus(26);
    const std::vector<int> tags = {
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
        18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 7, 12,
        17, 22, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 0, 4, 2, 0,
        2, 3, 1, 0, 1, 0, 0, 1, 0, 4, 0, 4, 1, 3, 2, 3, 2, 2, 1, 0, 1};
    const std::vector<Tick> done = {
        49000, 50000, 51000, 64000, 64000, 79000, 66000, 17000, 94000,
        80000, 95000, 79000, 23000, 110000, 96000, 126000, 124000,
        29000, 141000, 124000, 139000, 125000, 35000, 169000, 154000,
        169000, 156000, 41000, 199000, 170000, 200000, 199000, 47000,
        215000, 201000, 216000, 3048000, 3049000, 3079000, 3011000,
        3063000, 3094000, 3124000, 3016000, 3093000, 3139000, 3169000,
        3074000, 86000, 3199000, 6312000, 6298000, 6184000, 6082000,
        6261000, 6147000, 6129000, 6205000, 6361000, 6432000, 6329000,
        6233000, 6117000, 6050000, 6208000, 6404000, 6156000, 6321000,
        6087000, 6164000, 6447000, 6261000, 6297000, 6053000};
    const std::vector<int> order = {
        7, 12, 17, 22, 27, 32, 0, 1, 2, 3, 4, 6, 5, 11, 9, 48, 8, 10,
        14, 13, 16, 19, 21, 15, 20, 18, 24, 26, 23, 25, 29, 28, 31,
        30, 34, 33, 35, 39, 43, 36, 37, 40, 47, 38, 44, 41, 42, 45,
        46, 49, 63, 73, 53, 68, 62, 56, 55, 66, 69, 52, 57, 64, 61,
        54, 71, 72, 51, 50, 67, 60, 58, 65, 59, 70};
    EXPECT_EQ(got.tags, tags);
    EXPECT_EQ(got.done, done);
    EXPECT_EQ(got.order, order);
    EXPECT_EQ(got.l2Hits, 22u);
    EXPECT_EQ(got.l2Misses, 76u);
    EXPECT_EQ(got.l2Writebacks, 25u);
    EXPECT_EQ(got.dramReads, 76u);
    EXPECT_EQ(got.dramWrites, 25u);
    EXPECT_EQ(got.end, 6'447'000u);
}

TEST(BusL2DramGolden, FaultPathMatchesTheEventDrivenModel)
{
    // The same corpus with response errors and retries: each request
    // keeps an event per hop, so every error draw falls on the same
    // transaction as before and the responses keep their order.
    const auto got = runGoldenCorpus(26, "bus.error=0.3");
    const std::vector<int> order = {
        7, 12, 22, 17, 0, 1, 3, 4, 6, 27, 32, 5, 9, 48, 10, 14, 11, 8,
        16, 19, 15, 13, 20, 18, 26, 29, 24, 23, 28, 31, 30, 33, 35,
        21, 25, 2, 34, 36, 39, 37, 43, 40, 38, 41, 47, 44, 42, 45, 46,
        49, 63, 73, 68, 53, 62, 56, 55, 64, 66, 69, 52, 57, 61, 54,
        71, 72, 51, 50, 67, 60, 58, 65, 59, 70};
    EXPECT_EQ(got.order, order);
    EXPECT_EQ(got.l2Hits, 67u);
    EXPECT_EQ(got.l2Misses, 79u);
    EXPECT_EQ(got.dramWrites, 26u);
    EXPECT_EQ(got.end, 6'457'000u);
    EXPECT_EQ(got.faults, (std::map<std::string, double>{
                              {"fault.bus.error", 39},
                              {"fault.bus.retries", 39}}));
}

TEST(BusL2DramGolden, SingleLineHitCostsOneEvent)
{
    // A single-line L2 hit is timed when the bus issues it: the only
    // event left is the bus response.
    EventQueue eq;
    const auto core = ClockDomain::fromHz(1'000'000'000);
    Dram dram;
    Cache l2("l2", core, CacheConfig{}, &dram);
    TileLinkBus bus(eq, "bus", core, TileLinkConfig{}, &l2);
    syncAccess(eq, bus, 0x80);
    ASSERT_TRUE(l2.probe(0x80));

    const auto hits = l2.hits.value();
    const auto events = eq.eventsProcessed();
    const Tick issued = eq.curTick();
    const Tick done = syncAccess(eq, bus, 0x88);
    EXPECT_EQ(l2.hits.value(), hits + 1);
    EXPECT_EQ(eq.eventsProcessed() - events, 1u);
    // One request beat, the channel both ways and the 2-cycle hit.
    EXPECT_EQ(done - issued, 7 * core.period());
}

namespace {

/** Who issues the hit in tieResponseOrder(). */
enum class HitIssuer {
    /** A released-PUT-band event, scheduled after the miss issued. */
    ReleaseBandEvent,
    /** A default-band event scheduled before the miss issued. */
    EarlierEvent,
    /** A default-band event scheduled after the miss issued. */
    LaterEvent,
    /** The callback of a response that fires at that tick. */
    Response,
    /** A call from outside the run, once it reached that tick. */
    OutsideTheRun,
};

/**
 * A miss Y and a hit X that complete at one tick, with X issued at
 * the tick Y reaches the L2 and reaching it when Y's fill returns:
 * 19 requests ahead of X hold the request channel for 37 cycles,
 * and the last of them spans two lines, so X waits one cycle for
 * the L2 port. Returns the responses in order ('X', 'Y') and their
 * shared completion tick, relative to Y's issue.
 */
std::pair<std::string, Tick>
tieResponseOrder(HitIssuer issuer)
{
    EventQueue eq;
    const auto core = ClockDomain::fromHz(1'000'000'000);
    Dram dram;
    Cache l2("l2", core, CacheConfig{}, &dram);
    TileLinkBus bus(eq, "bus", core, TileLinkConfig{}, &l2);
    for (std::uint64_t line = 0; line < 24; ++line)
        syncAccess(eq, bus, line * 64);

    std::string order;
    Tick y_done = 0, x_done = 0;
    const auto send = [&](std::uint64_t addr, std::uint32_t size,
                          char name, Tick *done) {
        bus.accessTagged(packet(addr, false, size),
                         [&order, name, done](const BusResponse &r) {
                             if (name == 0)
                                 return;
                             order.push_back(name);
                             *done = r.completed;
                         });
    };
    const auto hit_burst = [&] {
        send(0, 32, 0, nullptr);
        for (std::uint64_t i = 1; i < 18; ++i)
            send(i * 64, 64, 0, nullptr);
        send(18 * 64 + 32, 64, 0, nullptr);
        send(21 * 64, 8, 'X', &x_done);
    };

    const Tick t0 = eq.curTick() + 10 * core.period();
    const Tick t_hit = t0 + 3 * core.period(); // Y reaches the L2
    if (issuer == HitIssuer::EarlierEvent)
        eq.scheduleLambda(t_hit, hit_burst);
    if (issuer == HitIssuer::Response)
        eq.scheduleLambda(t_hit - 7 * core.period(), [&] {
            // A 7-cycle hit: it responds as Y reaches the L2.
            bus.accessTagged(packet(22 * 64, false, 8),
                             [&](const BusResponse &) { hit_burst(); });
        });
    eq.scheduleLambda(t0, [&] {
        send(100 * 64, 8, 'Y', &y_done);
        if (issuer == HitIssuer::ReleaseBandEvent)
            eq.scheduleLambda(t_hit, hit_burst, "put",
                              Event::releasePrio);
        if (issuer == HitIssuer::LaterEvent)
            eq.scheduleLambda(t_hit, hit_burst);
    });
    if (issuer == HitIssuer::OutsideTheRun) {
        eq.run(t_hit);
        hit_burst();
    }
    eq.run();
    EXPECT_EQ(x_done, y_done);
    return {order, y_done - t0};
}

} // namespace

TEST(BusL2DramGolden, TiedHitAndMissRespondInTheRecordedOrder)
{
    // Recorded on the event-driven model: its request event for Y
    // fired at the tick X was issued, so X went first only when the
    // event issuing X fired ahead of that request event.
    using Issuer = HitIssuer;
    const std::pair<std::string, Tick> x_first{"XY", 48'000};
    const std::pair<std::string, Tick> y_first{"YX", 48'000};
    EXPECT_EQ(tieResponseOrder(Issuer::ReleaseBandEvent), x_first);
    EXPECT_EQ(tieResponseOrder(Issuer::EarlierEvent), x_first);
    EXPECT_EQ(tieResponseOrder(Issuer::LaterEvent), y_first);
    EXPECT_EQ(tieResponseOrder(Issuer::Response), y_first);
    EXPECT_EQ(tieResponseOrder(Issuer::OutsideTheRun), y_first);
}
