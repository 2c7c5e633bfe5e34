/**
 * @file
 * Tests of the Qtenon runtime executor: software-policy ablations
 * (FENCE vs fine-grained, immediate vs batched, full vs incremental
 * compile), overlap behaviour, and breakdown accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/qtenon_system.hh"
#include "runtime/report.hh"
#include "quantum/ansatz.hh"
#include "quantum/graph.hh"

using namespace qtenon;
using namespace qtenon::runtime;
using qtenon::sim::Tick;
using qtenon::sim::usTicks;

namespace {

/** Build a small deterministic trace (no functional sampling). */
VqaTrace
makeTrace(std::uint32_t n, std::uint32_t rounds,
          std::uint32_t updates_per_round, std::uint64_t shots = 200)
{
    auto g = quantum::Graph::threeRegular(n);
    auto c = quantum::ansatz::qaoaMaxCut(g, 2);
    isa::QtenonCompiler comp;

    VqaTrace trace;
    trace.numQubits = n;
    trace.image = comp.compile(c);

    auto params = c.parameters();
    for (std::uint32_t r = 0; r < rounds; ++r) {
        auto next = params;
        for (std::uint32_t u = 0;
             u < updates_per_round && u < next.size(); ++u) {
            next[u] += 0.01 * (r + 1);
        }
        RoundRecord round;
        round.updates = comp.planUpdates(trace.image, params, next);
        round.shots = shots;
        round.postOpsPerShot = 40;
        round.optimizerOps = 100;
        params = next;
        trace.rounds.push_back(std::move(round));
    }
    return trace;
}

Tick
shotDur(std::uint32_t n)
{
    auto g = quantum::Graph::threeRegular(n);
    auto c = quantum::ansatz::qaoaMaxCut(g, 2);
    return quantum::QuantumTimingModel{}.schedule(c).duration;
}

ExecutionResult
runWith(SoftwareConfig sw, std::uint32_t n = 8,
        std::uint32_t rounds = 4, std::uint32_t updates = 2)
{
    core::QtenonConfig cfg;
    cfg.numQubits = n;
    cfg.software = sw;
    core::QtenonSystem sys(cfg);
    auto trace = makeTrace(n, rounds, updates);
    return sys.executor().execute(trace, shotDur(n));
}

} // namespace

TEST(Executor, InstallChargesSetAndGen)
{
    core::QtenonConfig cfg;
    cfg.numQubits = 8;
    core::QtenonSystem sys(cfg);
    auto trace = makeTrace(8, 0, 0);
    auto res = sys.executor().execute(trace, shotDur(8));
    EXPECT_GT(res.setup.commSet, 0u);
    EXPECT_GT(res.setup.pulseGen, 0u);
    EXPECT_GT(res.setup.host, 0u);
    EXPECT_GT(res.setup.wall, 0u);
}

TEST(Executor, RoundsAccumulateQuantumTime)
{
    auto res = runWith(SoftwareConfig::full());
    EXPECT_EQ(res.rounds.quantum, 4u * 200u * shotDur(8));
}

TEST(Executor, FenceIsSlowerThanFineGrained)
{
    auto fence_cfg = SoftwareConfig::full();
    fence_cfg.sync = SyncPolicy::Fence;
    auto fine = runWith(SoftwareConfig::full());
    auto fence = runWith(fence_cfg);
    EXPECT_GT(fence.rounds.wall, fine.rounds.wall);
    // Fine-grained hides post-processing behind quantum execution.
    EXPECT_LT(fine.rounds.host, fence.rounds.host);
    EXPECT_EQ(fine.rounds.hostBusy, fence.rounds.hostBusy);
}

TEST(Executor, BatchingReducesBusTransactions)
{
    // Algorithm 1's point: K = floor(B / N) shots share one TileLink
    // PUT, multiplying down the bus transaction count.
    auto run_and_count = [](TransmissionPolicy tx) {
        core::QtenonConfig cfg;
        cfg.numQubits = 8;
        cfg.software = SoftwareConfig::full();
        cfg.software.transmission = tx;
        core::QtenonSystem sys(cfg);
        auto trace = makeTrace(8, 2, 2);
        sys.executor().execute(trace, shotDur(8));
        return sys.bus().transactions.value();
    };
    const std::uint64_t batched =
        run_and_count(TransmissionPolicy::Batched);
    const std::uint64_t immediate =
        run_and_count(TransmissionPolicy::Immediate);
    EXPECT_LT(batched * 4, immediate);
}

TEST(Executor, BatchingShrinksExposedCommUnderFence)
{
    auto fence_batched = SoftwareConfig::full();
    fence_batched.sync = SyncPolicy::Fence;
    auto fence_immediate = fence_batched;
    fence_immediate.transmission = TransmissionPolicy::Immediate;
    auto batched = runWith(fence_batched);
    auto immediate = runWith(fence_immediate);
    EXPECT_LT(batched.rounds.commAcquire,
              immediate.rounds.commAcquire);
    // Wall times stay within a whisker of each other at this small,
    // uncontended scale: the last batch's PUT is larger (finishes a
    // touch later) while the immediate path pays per-shot latency.
    const double ratio = static_cast<double>(batched.rounds.wall) /
        static_cast<double>(immediate.rounds.wall);
    EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(Executor, IncrementalBeatsFullRecompile)
{
    auto full_cfg = SoftwareConfig::full();
    full_cfg.compile = CompileMode::FullRecompile;
    auto inc = runWith(SoftwareConfig::full());
    auto full = runWith(full_cfg);
    EXPECT_LT(inc.rounds.host, full.rounds.host);
    EXPECT_LT(inc.rounds.comm, full.rounds.comm);
    EXPECT_LT(inc.rounds.pulseGen, full.rounds.pulseGen);
    EXPECT_LT(inc.rounds.wall, full.rounds.wall);
}

TEST(Executor, HardwareOnlyMatchesPaperAblation)
{
    // "Qtenon w/o software" = FENCE + immediate + full recompile;
    // it must sit between full Qtenon and nothing.
    auto hw = runWith(SoftwareConfig::hardwareOnly());
    auto sw = runWith(SoftwareConfig::full());
    EXPECT_GT(hw.rounds.wall, sw.rounds.wall);
}

TEST(Executor, OverlapKeepsQuantumDominant)
{
    auto res = runWith(SoftwareConfig::full(), 8, 6, 2);
    const auto &bd = res.rounds;
    // Under fine-grained overlap the quantum fraction dominates.
    EXPECT_GT(bd.percent(bd.quantum), 80.0);
    // Busy host time exceeds visible host time (work was hidden).
    EXPECT_GE(bd.hostBusy, bd.host);
}

TEST(Executor, UpdateCountsDriveCommUpdate)
{
    auto few = runWith(SoftwareConfig::full(), 8, 4, 1);
    auto many = runWith(SoftwareConfig::full(), 8, 4, 8);
    EXPECT_GT(many.rounds.commUpdate, few.rounds.commUpdate);
}

TEST(Executor, WallNeverBelowQuantum)
{
    for (auto sync : {SyncPolicy::Fence, SyncPolicy::FineGrained}) {
        auto cfg = SoftwareConfig::full();
        cfg.sync = sync;
        auto res = runWith(cfg);
        EXPECT_GE(res.rounds.wall, res.rounds.quantum);
    }
}

TEST(Executor, ShotDataLandsInMeasureSegment)
{
    core::QtenonConfig cfg;
    cfg.numQubits = 8;
    core::QtenonSystem sys(cfg);
    auto trace = makeTrace(8, 1, 1, /*shots=*/4);
    trace.rounds[0].shotData = {0x11, 0x22, 0x33, 0x44};
    sys.executor().execute(trace, shotDur(8));
    EXPECT_EQ(sys.controller().qcc().readMeasure(0), 0x11u);
    EXPECT_EQ(sys.controller().qcc().readMeasure(3), 0x44u);
}

TEST(Executor, PerRoundBreakdownsRecorded)
{
    core::QtenonConfig cfg;
    cfg.numQubits = 8;
    core::QtenonSystem sys(cfg);
    auto trace = makeTrace(8, 3, 2);
    auto res = sys.executor().execute(trace, shotDur(8));
    ASSERT_EQ(res.perRound.size(), 3u);
    TimeBreakdown sum;
    for (const auto &r : res.perRound)
        sum += r;
    EXPECT_EQ(sum.wall, res.rounds.wall);
    EXPECT_EQ(sum.quantum, res.rounds.quantum);

    std::ostringstream os;
    writeBreakdownCsv(os, res.perRound);
    const auto csv = os.str();
    EXPECT_NE(csv.find("round,wall_ns"), std::string::npos);
    // Header + one line per round.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}
