/**
 * @file
 * Integration tests of the assembled quantum controller: RoCC writes
 * with dependency invalidation, q_set DMA through the bus/RBQ/WBQ,
 * q_acquire with barrier synchronization, and q_gen.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>

#include "config_error.hh"
#include "controller/controller.hh"
#include "memory/dram.hh"

using namespace qtenon::controller;
using namespace qtenon::memory;
using namespace qtenon::sim;

namespace {

struct ControllerFixture : public ::testing::Test {
    ControllerFixture()
    {
        dram = std::make_unique<Dram>(DramConfig{});
        bus = std::make_unique<TileLinkBus>(
            eq, "bus", ClockDomain::fromHz(1'000'000'000),
            TileLinkConfig{}, dram.get());
        ControllerConfig cfg;
        cfg.layout.numQubits = 8;
        ctrl = std::make_unique<QuantumController>(eq, "qc", cfg,
                                                   bus.get());
    }

    std::vector<ProgramEntry>
    makeEntries(std::uint32_t count, bool reg_flag = false)
    {
        std::vector<ProgramEntry> es;
        for (std::uint32_t i = 0; i < count; ++i) {
            ProgramEntry e;
            e.type = 0x8;
            e.regFlag = reg_flag;
            e.data = reg_flag ? i % 4 : (i << 14);
            e.status = EntryStatus::Invalid;
            es.push_back(e);
        }
        return es;
    }

    EventQueue eq;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<TileLinkBus> bus;
    std::unique_ptr<QuantumController> ctrl;
};

/** Death tests build the fixture's controller too. */
using ControllerDeath = ControllerFixture;

/**
 * q_set @p entries on @p qubit of @p ctrl and wait for the transfer:
 * drain the bus, then advance to its finish, which is returned.
 */
Tick
setProgram(EventQueue &eq, QuantumController &ctrl,
           std::uint64_t host_addr, std::uint32_t qubit,
           const std::vector<ProgramEntry> &entries)
{
    SetTally set;
    ctrl.dmaSetProgram(host_addr, qubit, entries, set);
    eq.run();
    EXPECT_EQ(set.remaining, 0u);
    eq.run(set.done);
    return set.done;
}

} // namespace

TEST_F(ControllerFixture, RoccWriteToRegfileTakesOneCycle)
{
    const auto &layout = ctrl->config().layout;
    const Tick done = ctrl->roccWrite(layout.regfileAddr(3), 0x42);
    EXPECT_LE(done, 2u * ctrl->clockPeriod());
    EXPECT_EQ(ctrl->qcc().readRegfile(3), 0x42u);
    EXPECT_EQ(ctrl->roccTransfers.value(), 1u);
}

TEST_F(ControllerFixture, RegfileWriteInvalidatesDependents)
{
    const auto &layout = ctrl->config().layout;
    // Entry on qubit 2 depends on regfile slot 7.
    ProgramEntry e;
    e.type = 0x9;
    e.regFlag = true;
    e.data = 7;
    e.status = EntryStatus::Valid;
    const auto pq = layout.programAddr(2, 0);
    ctrl->qcc().writeProgram(pq, e);
    ctrl->linkRegfile(7, pq);

    ctrl->roccWrite(layout.regfileAddr(7), 0x1111);
    EXPECT_EQ(ctrl->qcc().readProgram(pq).status,
              EntryStatus::Invalid);
    auto stale = ctrl->staleProgramEntries();
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0], pq);
}

TEST_F(ControllerFixture, RoccReadBack)
{
    const auto &layout = ctrl->config().layout;
    ctrl->recordMeasurement(5, 0xDEAD);
    std::uint64_t v = 0;
    ctrl->roccRead(layout.measureAddr(5), v);
    EXPECT_EQ(v, 0xDEADu);
}

TEST_F(ControllerFixture, DmaSetInstallsProgram)
{
    auto entries = makeEntries(100);
    const Tick done = setProgram(eq, *ctrl, 0x10000, 3, entries);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(ctrl->qcc().programLength(3), 100u);
    const auto &layout = ctrl->config().layout;
    EXPECT_EQ(ctrl->qcc().readProgram(layout.programAddr(3, 42)),
              entries[42]);
    // 100 entries x 12 bytes = 1200 bytes moved.
    EXPECT_EQ(ctrl->setBytes.value(), 1200u);
    EXPECT_GE(bus->transactions.value(), 19u); // 64-byte chunks
}

TEST_F(ControllerFixture, DmaSetLargerProgramsTakeLonger)
{
    auto small = makeEntries(10);
    const Tick t_small = setProgram(eq, *ctrl, 0x10000, 0, small);
    const Tick start = eq.curTick();
    auto big = makeEntries(500);
    const Tick t_big = setProgram(eq, *ctrl, 0x40000, 1, big);
    EXPECT_GT(t_big - start, t_small);
}

TEST_F(ControllerFixture, DmaAcquireSyncsBarrier)
{
    EXPECT_FALSE(ctrl->barrierQuery(0x20000, 8));
    AcquireTally acquire;
    ctrl->dmaAcquire(0x20000, 16, acquire);
    eq.run();
    const Tick done = acquire.done;
    EXPECT_GT(done, 0u);
    // All 16 x 8 bytes marked synced once PUTs left on the bus.
    EXPECT_TRUE(ctrl->barrierQuery(0x20000, 128));
    EXPECT_FALSE(ctrl->barrierQuery(0x20000 + 128, 8));
    EXPECT_EQ(ctrl->acquireBytes.value(), 128u);
}

TEST_F(ControllerFixture, GenerateProducesPulses)
{
    const auto &layout = ctrl->config().layout;
    auto entries = makeEntries(20);
    setProgram(eq, *ctrl, 0x10000, 0, entries);

    const Tick done = ctrl->generateAll();
    eq.run(done);
    const auto &res = ctrl->qgenResult();
    EXPECT_EQ(res.pulsesGenerated, 20u);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(ctrl->pulsesGenerated.value(), 20u);
    // Program entries now carry valid pulse QAddresses.
    const auto e = ctrl->qcc().readProgram(layout.programAddr(0, 0));
    EXPECT_EQ(e.status, EntryStatus::Valid);
    EXPECT_TRUE(ctrl->qcc().pulseValid(e.qaddr));
}

TEST_F(ControllerFixture, GenerateOnlyStaleAfterUpdate)
{
    const auto &layout = ctrl->config().layout;
    auto entries = makeEntries(10, /*reg_flag=*/true);
    setProgram(eq, *ctrl, 0x10000, 0, entries);
    for (std::uint32_t i = 0; i < 10; ++i)
        ctrl->linkRegfile(i % 4, layout.programAddr(0, i));
    for (std::uint32_t r = 0; r < 4; ++r)
        ctrl->roccWrite(layout.regfileAddr(r), 100 + r);

    // Initial full generation.
    eq.run(ctrl->generateAll());

    // One register update -> only its dependents regenerate.
    ctrl->roccWrite(layout.regfileAddr(2), 0xBEEF);
    auto stale = ctrl->staleProgramEntries();
    EXPECT_EQ(stale.size(), 2u); // entries 2 and 6 (i % 4 == 2)
    eq.run(ctrl->generate(stale));
    const auto &res = ctrl->qgenResult();
    EXPECT_EQ(res.entriesProcessed, stale.size());
    // Same new value on the same qubit: one fresh pulse, rest SLT.
    EXPECT_EQ(res.pulsesGenerated, 1u);
}

TEST_F(ControllerFixture, UserCannotTouchPrivateSegments)
{
    const auto &layout = ctrl->config().layout;
    EXPECT_CONFIG_ERROR(ctrl->roccWrite(layout.pulseAddr(0, 0), 1),
                        "non-public");
    std::uint64_t v;
    EXPECT_CONFIG_ERROR(ctrl->roccRead(layout.pulseAddr(0, 0), v),
                        "non-public");
}

TEST_F(ControllerFixture, MeasurementRoundTrip)
{
    ctrl->recordMeasurement(0, 0xAB);
    ctrl->recordMeasurement(1, 0xCD);
    EXPECT_EQ(ctrl->qcc().readMeasure(0), 0xABu);
    EXPECT_EQ(ctrl->qcc().readMeasure(1), 0xCDu);
}

namespace {

/**
 * Drive seeded random link / write / q_gen sequences through @p ctrl
 * and check its stale list against the sorted, deduplicated list of
 * every invalidation. @p regs regfile slots are linked to program
 * entries on any qubit.
 */
void
checkStaleListAgainstReference(EventQueue &eq, QuantumController &ctrl,
                               std::uint32_t regs, int ops)
{
    const auto &layout = ctrl.config().layout;
    const auto random_pq = [&](std::mt19937_64 &rng) {
        // Bias toward chunk edges and word boundaries.
        const std::uint32_t q = rng() % layout.numQubits;
        const std::uint32_t picks[] = {
            0, 63, 64, layout.programEntriesPerQubit - 1,
            static_cast<std::uint32_t>(
                rng() % layout.programEntriesPerQubit)};
        return layout.programAddr(q, picks[rng() % 5]);
    };
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::mt19937_64 rng(seed);
        std::map<std::uint32_t, std::vector<std::uint64_t>> links;
        std::vector<std::uint64_t> ref;
        ctrl.clearRegfileLinks();
        for (int op = 0; op < ops; ++op) {
            const auto r = rng() % 100;
            const auto reg = static_cast<std::uint32_t>(rng() % regs);
            if (r < 30) {
                const auto pq = random_pq(rng);
                ctrl.linkRegfile(reg, pq);
                links[reg].push_back(pq);
            } else if (r < 60) {
                ctrl.roccWrite(layout.regfileAddr(reg), rng() % 4);
                for (auto pq : links[reg])
                    ref.push_back(pq);
            } else if (r < 75) {
                // q_update.v with stride 2 over lanes inside the
                // linked range; only changed lanes invalidate.
                std::vector<std::uint32_t> values(1 + rng() % 4);
                const auto base = static_cast<std::uint32_t>(
                    reg % (regs - 2 * (values.size() - 1)));
                for (std::size_t i = 0; i < values.size(); ++i) {
                    values[i] = rng() % 4;
                    const auto lane = base + 2 * i;
                    if (ctrl.qcc().readRegfile(lane) != values[i]) {
                        for (auto pq : links[lane])
                            ref.push_back(pq);
                    }
                }
                ctrl.roccWriteVector(layout.regfileAddr(base), 2,
                                     values);
            } else if (r < 85) {
                const auto pq = random_pq(rng);
                ctrl.roccWrite(pq, rng());
                ref.push_back(pq);
            } else if (r < 95) {
                eq.run(ctrl.generate({}));
                ref.clear();
            } else {
                ctrl.clearRegfileLinks();
                links.clear();
                ref.clear();
            }
            auto expect = ref;
            std::sort(expect.begin(), expect.end());
            expect.erase(std::unique(expect.begin(), expect.end()),
                         expect.end());
            ASSERT_EQ(ctrl.staleProgramEntries(), expect)
                << "seed " << seed << " op " << op;
        }
    }
}

} // namespace

TEST_F(ControllerFixture, StaleListMatchesSortUniqueReference)
{
    // The stale list is kept as per-entry marks under a per-64-word
    // summary; check it against the reference on the 8-qubit fixture
    // and on a 320-qubit layout, where few marks spread over every
    // qubit's chunk and most summary words stay empty.
    checkStaleListAgainstReference(eq, *ctrl, 16, 1500);
    ASSERT_FALSE(HasFatalFailure());

    ControllerConfig wide;
    wide.layout.numQubits = 320;
    QuantumController ctrl320(eq, "qc320", wide, bus.get());
    checkStaleListAgainstReference(eq, ctrl320, 64, 400);
}

namespace {

/**
 * Install ten reg-flagged entries on qubit 0 of @p ctrl (entry i
 * reads regfile slot i % 4), q_gen them all, then change slot
 * @p reg and q_gen its two dependents. Returns the last result.
 */
PipelineResult
installThenUpdate(EventQueue &eq, QuantumController &ctrl,
                  const std::vector<ProgramEntry> &entries,
                  std::uint32_t reg)
{
    const auto &layout = ctrl.config().layout;
    setProgram(eq, ctrl, 0x10000, 0, entries);
    for (std::uint32_t i = 0; i < entries.size(); ++i)
        ctrl.linkRegfile(i % 4, layout.programAddr(0, i));
    for (std::uint32_t r = 0; r < 4; ++r)
        ctrl.roccWrite(layout.regfileAddr(r), 100 + r);
    eq.run(ctrl.generateAll());
    ctrl.roccWrite(layout.regfileAddr(reg), 0xBEEF);
    eq.run(ctrl.generate(ctrl.staleProgramEntries()));
    return ctrl.qgenResult();
}

} // namespace

TEST_F(ControllerFixture, QgenFollowerRecallsTheLeadersResults)
{
    // The first controller sharing a log runs the pipeline; a second
    // one fed the same updates recalls the results and ends with the
    // same counts, though its own .pulse segment is never written.
    QgenLog log;
    const auto entries = makeEntries(10, /*reg_flag=*/true);
    ctrl->shareQgen(&log);
    const auto lead = installThenUpdate(eq, *ctrl, entries, 2);
    ASSERT_EQ(log.size(), 2u);

    QuantumController follower(eq, "qc2", ctrl->config(), bus.get());
    follower.shareQgen(&log);
    const auto recalled = installThenUpdate(eq, follower, entries, 2);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(recalled.cycles, lead.cycles);
    EXPECT_EQ(recalled.pulsesGenerated, lead.pulsesGenerated);
    EXPECT_EQ(recalled.dispatchesAtOccupancy, lead.dispatchesAtOccupancy);
    EXPECT_EQ(follower.pulsesGenerated.value(),
              ctrl->pulsesGenerated.value());
    EXPECT_EQ(follower.slt().hits, ctrl->slt().hits);
    EXPECT_EQ(follower.slt().misses, ctrl->slt().misses);
    EXPECT_EQ(follower.qcc().programReads.value(),
              ctrl->qcc().programReads.value());
    EXPECT_EQ(follower.qcc().programWrites.value(),
              ctrl->qcc().programWrites.value());
    EXPECT_EQ(follower.qcc().pulseWrites.value(),
              ctrl->qcc().pulseWrites.value());
    const auto pq = ctrl->config().layout.programAddr(0, 0);
    const auto pulse = ctrl->qcc().readProgram(pq).qaddr;
    EXPECT_TRUE(ctrl->qcc().pulseValid(pulse));
    EXPECT_FALSE(follower.qcc().pulseValid(pulse));
    EXPECT_EQ(follower.qcc().readProgram(pq).status, EntryStatus::Valid);
}

TEST_F(ControllerFixture, QgenRecallOfAnotherWorkListPanics)
{
    // A follower fed another update has another stale list (entries
    // 3 and 7, not 2 and 6): same length, different addresses. Its
    // recall must not hand it the leader's result.
    QgenLog log;
    const auto entries = makeEntries(10, /*reg_flag=*/true);
    ctrl->shareQgen(&log);
    installThenUpdate(eq, *ctrl, entries, 2);

    QuantumController follower(eq, "qc2", ctrl->config(), bus.get());
    follower.shareQgen(&log);
    EXPECT_DEATH(installThenUpdate(eq, follower, entries, 3),
                 "q_gen recall 1 of 2 does not match the logged work "
                 "list");
}

TEST_F(ControllerDeath, GenerateWithPendingEventPanics)
{
    // Returning q_gen's finish tick is exact only when nothing else
    // can fire before it: a q_set still on the bus is refused.
    const auto entries = makeEntries(10);
    SetTally set;
    ctrl->dmaSetProgram(0x10000, 0, entries, set);
    EXPECT_DEATH(ctrl->generateAll(), "q_gen with [0-9]+ events pending");
    eq.run();
    EXPECT_EQ(set.remaining, 0u);
}
