/**
 * @file
 * Fault-injection layer tests: --fault-spec parsing and round-trips,
 * per-site deterministic decision streams, the unified link::Channel
 * semantics (drop / duplicate / corrupt / reorder / jitter), retry
 * backoff schedules, the baseline's UDP ack/retransmit exchange, and
 * the TileLink tag-retry path.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <stdexcept>
#include <vector>

#include "baseline/ethernet.hh"
#include "baseline/udp.hh"
#include "fault/fault.hh"
#include "link/channel.hh"
#include "memory/tilelink.hh"
#include "service/results_store.hh"

using namespace qtenon;
using namespace qtenon::fault;

namespace {

/** A link::Channel with a trivial latency model for unit tests. */
class TestChannel : public link::Channel
{
  public:
    explicit TestChannel(sim::Tick per_byte = sim::nsTicks,
                         sim::Tick fixed = 100 * sim::nsTicks)
        : link::Channel("test"), _perByte(per_byte), _fixed(fixed)
    {}

    sim::Tick
    transferLatency(std::uint64_t bytes) const override
    {
        return _fixed + bytes * _perByte;
    }

  private:
    sim::Tick _perByte;
    sim::Tick _fixed;
};

FaultSpec
specOf(const std::string &text)
{
    return FaultSpec::parse(text);
}

} // namespace

TEST(FaultSpec, ParsesSitesKindsAndSeed)
{
    const auto spec = specOf(
        "eth.drop=0.01,eth.jitter=200,bus.error=0.001,"
        "readout.flip=0.05,adi.stall_ns=250,seed=42");
    ASSERT_EQ(spec.sites.size(), 4u);
    EXPECT_DOUBLE_EQ(spec.sites.at("eth").drop, 0.01);
    EXPECT_EQ(spec.sites.at("eth").jitter, 200 * sim::nsTicks);
    EXPECT_DOUBLE_EQ(spec.sites.at("bus").error, 0.001);
    EXPECT_DOUBLE_EQ(spec.sites.at("readout").flip, 0.05);
    EXPECT_EQ(spec.sites.at("adi").stallTicks, 250 * sim::nsTicks);
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_FALSE(spec.empty());
    EXPECT_TRUE(FaultSpec{}.empty());
}

TEST(FaultSpec, CanonicalFormRoundTrips)
{
    const auto spec = specOf(
        "eth.drop=0.01,eth.dup=0.5,bus.error=0.25,adi.jitter=100,"
        "seed=7");
    const auto again = specOf(spec.toString());
    EXPECT_EQ(again.toString(), spec.toString());
    EXPECT_EQ(again.seed, spec.seed);
    EXPECT_DOUBLE_EQ(again.sites.at("eth").dup, 0.5);
}

TEST(FaultSpec, RejectsMalformedInput)
{
    EXPECT_THROW(specOf("eth.drop=2"), std::invalid_argument);
    EXPECT_THROW(specOf("eth.drop=-0.1"), std::invalid_argument);
    EXPECT_THROW(specOf("eth.drop=zap"), std::invalid_argument);
    EXPECT_THROW(specOf("eth.frobnicate=0.1"),
                 std::invalid_argument);
    EXPECT_THROW(specOf("nodot=0.1"), std::invalid_argument);
    EXPECT_THROW(specOf("eth.drop"), std::invalid_argument);
    EXPECT_THROW(specOf("eth.jitter=-5"), std::invalid_argument);
    // Empty entries (stray commas) are tolerated.
    EXPECT_TRUE(specOf(",,").empty());
}

TEST(FaultInjector, DecisionStreamIsSeedDeterministic)
{
    const auto spec = specOf("eth.drop=0.3");
    FaultInjector a(spec, 11);
    FaultInjector b(spec, 11);
    FaultInjector c(spec, 12);
    const SiteId sa = a.site("eth");
    const SiteId sb = b.site("eth");
    const SiteId sc = c.site("eth");

    std::vector<bool> seq_a, seq_b, seq_c;
    for (int i = 0; i < 200; ++i) {
        seq_a.push_back(a.shouldDrop(sa));
        seq_b.push_back(b.shouldDrop(sb));
        seq_c.push_back(c.shouldDrop(sc));
    }
    EXPECT_EQ(seq_a, seq_b);
    EXPECT_NE(seq_a, seq_c);
    EXPECT_GT(a.injections(), 0u);
    EXPECT_EQ(a.injections(), b.injections());
}

TEST(FaultInjector, SiteStreamsAreIndependent)
{
    const auto spec = specOf("eth.drop=0.5,adi.drop=0.5");
    FaultInjector solo(spec, 3);
    FaultInjector mixed(spec, 3);
    const SiteId eth_solo = solo.site("eth");
    const SiteId eth_mixed = mixed.site("eth");
    const SiteId adi_mixed = mixed.site("adi");

    // Interleaving draws on "adi" must not perturb "eth"'s stream.
    std::vector<bool> seq_solo, seq_mixed;
    for (int i = 0; i < 100; ++i) {
        seq_solo.push_back(solo.shouldDrop(eth_solo));
        mixed.shouldDrop(adi_mixed);
        seq_mixed.push_back(mixed.shouldDrop(eth_mixed));
    }
    EXPECT_EQ(seq_solo, seq_mixed);
}

TEST(FaultInjector, AbsentSiteNeverFaults)
{
    FaultInjector inj(specOf("eth.drop=1"), 1);
    const SiteId ghost = inj.site("ghost");
    EXPECT_FALSE(inj.active(ghost));
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(inj.shouldDrop(ghost));
        EXPECT_FALSE(inj.shouldError(ghost));
    }
    EXPECT_EQ(inj.jitterTicks(ghost), 0u);
    EXPECT_EQ(inj.injections(), 0u);
}

TEST(FaultInjector, CorruptWordFlipsExactlyOneBit)
{
    FaultInjector inj(specOf("eth.corrupt=1"), 5);
    const SiteId s = inj.site("eth");
    for (std::uint64_t word : {0ull, ~0ull, 0xdeadbeefull}) {
        const std::uint64_t bad = inj.corruptWord(s, word);
        EXPECT_EQ(std::popcount(word ^ bad), 1) << word;
    }
}

TEST(FaultInjector, ExportsCountersAsFaultSiteKind)
{
    FaultInjector inj(specOf("eth.drop=1"), 1);
    const SiteId s = inj.site("eth");
    EXPECT_TRUE(inj.shouldDrop(s));
    EXPECT_TRUE(inj.shouldDrop(s));
    inj.count(s, "retransmits", 3);

    std::map<std::string, double> out;
    inj.exportCounters(out);
    EXPECT_DOUBLE_EQ(out.at("fault.eth.drop"), 2.0);
    EXPECT_DOUBLE_EQ(out.at("fault.eth.retransmits"), 3.0);
    EXPECT_EQ(out.size(), 2u);
}

TEST(RetryPolicy, BackoffGrowsGeometricallyAndCaps)
{
    RetryPolicy p;
    p.maxAttempts = 5;
    p.backoff = 100;
    p.multiplier = 2.0;
    p.maxBackoff = 300;
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.backoffBefore(1, 0), 100u);
    EXPECT_EQ(p.backoffBefore(2, 0), 200u);
    EXPECT_EQ(p.backoffBefore(3, 0), 300u); // capped
    EXPECT_EQ(p.backoffBefore(4, 0), 300u);

    RetryPolicy none;
    EXPECT_FALSE(none.enabled());
    EXPECT_EQ(none.backoffBefore(1, 0), 0u);
}

TEST(RetryPolicy, JitteredBackoffIsDeterministicAndBounded)
{
    RetryPolicy p;
    p.backoff = 1000;
    p.multiplier = 1.0;
    p.jitter = 0.5;
    std::set<std::uint64_t> values;
    for (std::uint32_t attempt = 1; attempt <= 8; ++attempt) {
        const auto b = p.backoffBefore(attempt, 99);
        EXPECT_EQ(b, p.backoffBefore(attempt, 99));
        EXPECT_GE(b, 500u);
        EXPECT_LT(b, 1500u);
        values.insert(b);
    }
    EXPECT_GT(values.size(), 1u) << "jitter never varied";
    // A different seed yields a different schedule somewhere.
    bool differs = false;
    for (std::uint32_t attempt = 1; attempt <= 8; ++attempt)
        differs |= p.backoffBefore(attempt, 99) !=
            p.backoffBefore(attempt, 100);
    EXPECT_TRUE(differs);
}

TEST(Channel, PerfectChannelDeliversInOrder)
{
    TestChannel ch;
    const auto a = ch.send(8, 0);
    const auto b = ch.send(16, 10);
    EXPECT_FALSE(a.dropped);
    EXPECT_EQ(a.deliverAt, ch.transferLatency(8));
    EXPECT_EQ(ch.inFlight(), 2u);
    EXPECT_EQ(ch.nextDeliveryAt(), a.deliverAt);

    const auto none = ch.deliver(a.deliverAt - 1);
    EXPECT_TRUE(none.empty());
    const auto got = ch.deliver(b.deliverAt);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].seq, 0u);
    EXPECT_EQ(got[1].seq, 1u);
    EXPECT_TRUE(ch.idle());
    EXPECT_EQ(ch.stats().sent, 2u);
    EXPECT_EQ(ch.stats().delivered, 2u);
}

TEST(Channel, DropLosesTheMessage)
{
    TestChannel ch;
    FaultInjector inj(specOf("test.drop=1"), 1);
    ch.attachInjector(&inj);
    const auto out = ch.send(8, 0);
    EXPECT_TRUE(out.dropped);
    EXPECT_TRUE(ch.idle());
    EXPECT_EQ(ch.stats().dropped, 1u);
}

TEST(Channel, DuplicateDeliversTwoCopies)
{
    TestChannel ch;
    FaultInjector inj(specOf("test.dup=1"), 1);
    ch.attachInjector(&inj);
    const auto out = ch.send(8, 0, /*payload=*/0xab);
    EXPECT_FALSE(out.dropped);
    const auto got = ch.deliver(sim::maxTick - 1);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].seq, got[1].seq);
    EXPECT_NE(got[0].duplicate, got[1].duplicate);
    EXPECT_EQ(got[0].payload, 0xabu);
    EXPECT_EQ(got[1].payload, 0xabu);
    EXPECT_EQ(ch.stats().duplicated, 1u);
}

TEST(Channel, CorruptionFlipsOnePayloadBit)
{
    TestChannel ch;
    FaultInjector inj(specOf("test.corrupt=1"), 1);
    ch.attachInjector(&inj);
    ch.send(8, 0, /*payload=*/0xff00);
    const auto got = ch.deliver(sim::maxTick - 1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_TRUE(got[0].corrupted);
    EXPECT_EQ(std::popcount(got[0].payload ^ 0xff00ull), 1);
    EXPECT_EQ(ch.stats().corrupted, 1u);
}

TEST(Channel, ReorderedMessageIsOvertakenBySuccessor)
{
    TestChannel ch;
    FaultInjector inj(specOf("test.reorder=1"), 1);
    ch.attachInjector(&inj);
    const auto slow = ch.send(8, 0); // reordered: +1 transfer latency
    ch.attachInjector(nullptr);
    const auto fast = ch.send(8, 0);
    EXPECT_GT(slow.deliverAt, fast.deliverAt);
    const auto got = ch.deliver(slow.deliverAt);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].seq, 1u); // the later send lands first
    EXPECT_EQ(got[1].seq, 0u);
    EXPECT_EQ(ch.stats().reordered, 1u);
}

TEST(Channel, JitterIsBoundedByTheSpec)
{
    TestChannel ch;
    FaultInjector inj(specOf("test.jitter=200"), 9);
    ch.attachInjector(&inj);
    const sim::Tick base = ch.transferLatency(8);
    sim::Tick total_extra = 0;
    for (int i = 0; i < 50; ++i) {
        const auto out = ch.send(8, 0);
        const sim::Tick extra = out.deliverAt - base;
        EXPECT_LE(extra, 200 * sim::nsTicks);
        total_extra += extra;

        const sim::Tick sampled = ch.sampleLatency(8);
        EXPECT_GE(sampled, base);
        EXPECT_LE(sampled, base + 200 * sim::nsTicks);
    }
    EXPECT_GT(total_extra, 0u) << "jitter never fired";
    EXPECT_EQ(ch.stats().jitterTicks > 0, true);
    ch.tick(sim::maxTick - 1);
    EXPECT_TRUE(ch.idle());
}

TEST(UdpExchange, FaultFreeTransferIsDataPlusAck)
{
    baseline::EthernetChannel ch;
    baseline::UdpExchange udp(ch, RetryPolicy{});
    const auto out = udp.transfer(1024, 0);
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(out.elapsed,
              ch.transferLatency(1024) +
                  ch.transferLatency(baseline::UdpExchange::ackBytes));
}

TEST(UdpExchange, ExhaustsBudgetOnTotalLoss)
{
    baseline::EthernetChannel ch;
    FaultInjector inj(specOf("eth.drop=1"), 1);
    ch.attachInjector(&inj);
    RetryPolicy retry;
    retry.maxAttempts = 3;
    baseline::UdpExchange udp(ch, retry);

    const auto out = udp.transfer(1024, 0);
    EXPECT_FALSE(out.delivered);
    EXPECT_EQ(out.attempts, 3u);
    // Default per-attempt timeout: twice the data+ack round.
    const sim::Tick timeout = 2 *
        (ch.transferLatency(1024) +
         ch.transferLatency(baseline::UdpExchange::ackBytes));
    EXPECT_EQ(out.elapsed, 3 * timeout);

    std::map<std::string, double> counters;
    inj.exportCounters(counters);
    EXPECT_DOUBLE_EQ(counters.at("fault.eth.retransmits"), 2.0);
    EXPECT_DOUBLE_EQ(counters.at("fault.eth.exhausted"), 1.0);
}

TEST(UdpExchange, RecoversFromPartialLossDeterministically)
{
    RetryPolicy retry;
    retry.maxAttempts = 16;
    retry.backoff = 10 * sim::usTicks;

    auto run = [&retry] {
        baseline::EthernetChannel ch;
        FaultInjector inj(FaultSpec::parse("eth.drop=0.5"), 21);
        ch.attachInjector(&inj);
        baseline::UdpExchange udp(ch, retry);
        return udp.transfer(4096, 0);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_TRUE(a.delivered);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.elapsed, b.elapsed);
    if (a.attempts > 1) {
        // Every retransmission costs at least one timeout round.
        EXPECT_GT(a.elapsed,
                  2 * baseline::EthernetChannel{}.transferLatency(
                          4096));
    }
}

namespace {

/** Fixed-latency downstream device for bus tests. */
class FixedMem : public memory::MemDevice
{
  public:
    explicit FixedMem(sim::Tick latency = 100 * sim::nsTicks)
        : _latency(latency)
    {}

    memory::MemTiming
    access(const memory::MemPacket &pkt, sim::Tick now) override
    {
        ++accesses;
        (void)pkt;
        return {now + _latency, now};
    }

    sim::Tick _latency;
    int accesses = 0;
};

sim::Tick
busAccess(sim::EventQueue &eq, memory::TileLinkBus &bus)
{
    memory::MemPacket p;
    p.cmd = memory::MemCmd::Read;
    p.addr = 0x40;
    p.size = 64;
    sim::Tick done = 0;
    bus.accessTagged(p, [&](const memory::BusResponse &r) {
        done = r.completed;
    });
    eq.run();
    return done;
}

} // namespace

TEST(BusRetry, InjectedErrorsAreRetriedWithBackoff)
{
    sim::EventQueue plain_eq;
    FixedMem plain_mem;
    memory::TileLinkBus plain(plain_eq, "bus", sim::ClockDomain(1000),
                              memory::TileLinkConfig{}, &plain_mem);
    const sim::Tick clean = busAccess(plain_eq, plain);

    sim::EventQueue eq;
    FixedMem mem;
    memory::TileLinkBus bus(eq, "bus", sim::ClockDomain(1000),
                            memory::TileLinkConfig{}, &mem);
    FaultInjector inj(FaultSpec::parse("bus.error=1"), 1);
    RetryPolicy retry;
    retry.maxAttempts = 3;
    retry.backoff = 10 * sim::nsTicks;
    bus.attachInjector(&inj, retry);

    const sim::Tick faulty = busAccess(eq, bus);
    // Every response errored: 2 retries, then the exhausted response
    // is delivered anyway — later than the clean bus by at least the
    // two extra downstream rounds.
    EXPECT_GT(faulty, clean + 2 * (100 * sim::nsTicks));
    EXPECT_EQ(mem.accesses, 3);
    EXPECT_EQ(bus.freeTags(), bus.numTags());

    std::map<std::string, double> counters;
    inj.exportCounters(counters);
    EXPECT_DOUBLE_EQ(counters.at("fault.bus.retries"), 2.0);
    EXPECT_DOUBLE_EQ(counters.at("fault.bus.retry_exhausted"), 1.0);
    EXPECT_DOUBLE_EQ(counters.at("fault.bus.error"), 3.0);
}

TEST(BusRetry, InjectedStallDelaysTheRequestChannel)
{
    sim::EventQueue plain_eq;
    FixedMem plain_mem;
    memory::TileLinkBus plain(plain_eq, "bus", sim::ClockDomain(1000),
                              memory::TileLinkConfig{}, &plain_mem);
    const sim::Tick clean = busAccess(plain_eq, plain);

    sim::EventQueue eq;
    FixedMem mem;
    memory::TileLinkBus bus(eq, "bus", sim::ClockDomain(1000),
                            memory::TileLinkConfig{}, &mem);
    FaultInjector inj(
        FaultSpec::parse("bus.stall=1,bus.stall_ns=500"), 1);
    bus.attachInjector(&inj);

    const sim::Tick stalled = busAccess(eq, bus);
    EXPECT_GE(stalled, clean + 500 * sim::nsTicks);

    std::map<std::string, double> counters;
    inj.exportCounters(counters);
    EXPECT_GE(counters.at("fault.bus.stall"), 1.0);
}
