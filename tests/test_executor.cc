/**
 * @file
 * Tests of the Qtenon runtime executor: software-policy ablations
 * (FENCE vs fine-grained, immediate vs batched, full vs incremental
 * compile), overlap behaviour, breakdown accounting, and goldens
 * of the q_run transmission replay.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "core/qtenon_system.hh"
#include "fault/fault.hh"
#include "obs/metrics.hh"
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

/**
 * A vector-packed trace on 8 qubits: a 20-layer hardware-efficient
 * ansatz has 160 parameters, so its regfile spans three q_update.v
 * waves, and each round changes parameters in every wave (with
 * untouched slots between them).
 */
VqaTrace
makeVectorTrace(std::uint32_t rounds)
{
    const auto c = quantum::ansatz::hardwareEfficient(8, 20);
    isa::PipelineConfig pipe;
    pipe.vectorIsa = true;
    isa::QtenonCompiler comp(isa::CompilerCostModel{}, pipe);

    VqaTrace trace;
    trace.numQubits = 8;
    trace.image = comp.compile(c);

    auto params = c.parameters();
    for (std::uint32_t r = 0; r < rounds; ++r) {
        auto next = params;
        for (std::uint32_t u : {3u, 9u, 70u, 100u, 131u, 159u})
            next[(u + 7 * r) % next.size()] += 0.01 * (r + 1);
        RoundRecord round;
        round.updates = comp.planUpdates(trace.image, params, next);
        round.shots = 200;
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

// ---- Transmission replay goldens. Each case replays three rounds on
// an 8-qubit system and compares everything the q_run drain can
// touch: the rounds' breakdown, bus, L2 and DRAM counts and the bus
// tag-occupancy histogram. The expected values were recorded on the
// replay that scheduled every batch PUT of a round up front, so they
// pin the PUT release order (tick, then batch order, ahead of every
// default-priority event at the same tick).

namespace {

struct ReplayFingerprint {
    Tick quantum, pulseGen, comm, host, hostBusy, wall;
    Tick commSet, commUpdate, commAcquire;
    std::uint64_t busTransactions, busBeats, busTagStalls;
    std::uint64_t tagOccupancyCount, tagOccupancySum;
    std::uint64_t l2Hits, l2Misses, dramReads, dramWrites;
    Tick endTick;

    bool operator==(const ReplayFingerprint &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const ReplayFingerprint &f)
{
    return os << "{" << f.quantum << ", " << f.pulseGen << ", "
              << f.comm << ", " << f.host << ", " << f.hostBusy << ", "
              << f.wall << ", " << f.commSet << ", " << f.commUpdate
              << ", " << f.commAcquire << ", " << f.busTransactions
              << ", " << f.busBeats << ", " << f.busTagStalls << ", "
              << f.tagOccupancyCount << ", " << f.tagOccupancySum
              << ", " << f.l2Hits << ", " << f.l2Misses << ", "
              << f.dramReads << ", " << f.dramWrites << ", "
              << f.endTick << "}";
}

struct ReplayCase {
    SyncPolicy sync;
    /** Shots per PUT (batchIntervalOverride); 0 = Algorithm 1. */
    std::uint64_t shotsPerPut;
    /** Max ADI readout jitter in ticks; 0 = no injector. */
    Tick adiJitter;
    /** Shot duration in ticks; 0 = the ansatz's own schedule. */
    Tick shotDuration;
    /** Bus response-error rate (retried on the same tag); 0 = none. */
    double busError = 0;
    /** Replay under SoftwareConfig::hardwareOnly() (keeps `sync`). */
    bool hardwareOnly = false;
    /** Replay makeVectorTrace under software.vectorIsa. */
    bool vectorIsa = false;
};

/** The controller's RoCC counters after a replay. */
struct RoccCounts {
    std::uint64_t transfers = 0;
    std::uint64_t vectorElements = 0;

    bool operator==(const RoccCounts &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const RoccCounts &r)
{
    return os << "{" << r.transfers << ", " << r.vectorElements << "}";
}

/**
 * Replay @p c; with @p faults, also export the injector's counters
 * (`fault.<site>.<kind>`) into it, and with @p rocc the controller's
 * RoCC counters.
 */
ReplayFingerprint
replay(const ReplayCase &c,
       std::map<std::string, double> *faults = nullptr,
       RoccCounts *rocc = nullptr)
{
    const bool metrics_were_on = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    obs::registry().reset();

    fault::FaultSpec spec;
    if (c.adiJitter)
        spec.sites["adi"].jitter = c.adiJitter;
    if (c.busError)
        spec.sites["bus"].error = c.busError;
    fault::FaultInjector inj(spec, 7);

    core::QtenonConfig cfg;
    cfg.numQubits = 8;
    if (c.hardwareOnly)
        cfg.software = SoftwareConfig::hardwareOnly();
    cfg.software.sync = c.sync;
    cfg.software.vectorIsa = c.vectorIsa;
    cfg.batchIntervalOverride = c.shotsPerPut;
    if (!spec.empty())
        cfg.injector = &inj;
    core::QtenonSystem sys(cfg);
    auto trace = c.vectorIsa ? makeVectorTrace(3) : makeTrace(8, 3, 2);
    const auto res = sys.executor().execute(
        trace, c.shotDuration ? c.shotDuration : shotDur(8));

    const auto hists = obs::registry().histogramValues();
    const auto occ = hists.find("mem.bus.tag_occupancy");
    const auto &r = res.rounds;
    ReplayFingerprint f{
        r.quantum, r.pulseGen, r.comm, r.host, r.hostBusy, r.wall,
        r.commSet, r.commUpdate, r.commAcquire,
        sys.bus().transactions.value(), sys.bus().beats.value(),
        sys.bus().tagStalls.value(),
        occ == hists.end() ? 0 : occ->second.count,
        occ == hists.end() ? 0 : occ->second.sum,
        sys.l2().hits.value(), sys.l2().misses.value(),
        sys.dram().reads.value(), sys.dram().writes.value(),
        sys.eventQueue().curTick()};
    if (faults)
        inj.exportCounters(*faults);
    if (rocc) {
        *rocc = {sys.controller().roccTransfers.value(),
                 sys.controller().roccVectorElements.value()};
    }
    obs::setMetricsEnabled(metrics_were_on);
    return f;
}

} // namespace

TEST(ExecutorReplayGolden, FineGrainedBatched)
{
    const ReplayFingerprint golden{
        900000000, 7494000, 394670,
        1782996, 27079995, 909284666,
        0, 7670, 387000,
        91, 182, 0, 91, 463,
        64, 40, 40, 0, 919935666};
    EXPECT_EQ(replay({SyncPolicy::FineGrained, 0, 0, 0}), golden);
}

TEST(ExecutorReplayGolden, FenceBatched)
{
    const ReplayFingerprint golden{
        900000000, 7494000, 490004,
        27079995, 27079995, 934964999,
        0, 7004, 483000,
        91, 182, 0, 91, 463,
        64, 40, 40, 0, 945615999};
    EXPECT_EQ(replay({SyncPolicy::Fence, 0, 0, 0}), golden);
}

TEST(ExecutorReplayGolden, FineGrainedPerShot)
{
    const ReplayFingerprint golden{
        900000000, 7494000, 349892,
        849663, 27079995, 908351555,
        0, 7892, 342000,
        616, 632, 0, 616, 736,
        589, 40, 40, 0, 919002555};
    EXPECT_EQ(replay({SyncPolicy::FineGrained, 1, 0, 0}), golden);
}

TEST(ExecutorReplayGolden, FencePerShot)
{
    const ReplayFingerprint golden{
        900000000, 7494000, 8857004,
        27079995, 27079995, 934919999,
        0, 7004, 8850000,
        616, 632, 0, 616, 736,
        589, 40, 40, 0, 945570999};
    EXPECT_EQ(replay({SyncPolicy::Fence, 1, 0, 0}), golden);
}

TEST(ExecutorReplayGolden, JitterReordersPerShotPuts)
{
    // Jitter of several shot durations: later shots' PUTs often
    // overtake earlier ones.
    const ReplayFingerprint golden{
        900000000, 7494000, 7745668,
        8334986, 27079995, 915836219,
        0, 7233, 7738435,
        616, 632, 0, 616, 741,
        589, 40, 40, 0, 926487219};
    EXPECT_EQ(replay({SyncPolicy::FineGrained, 1,
                      3 * shotDur(8), 0}),
              golden);
}

TEST(ExecutorReplayGolden, JitterTiesPutTimes)
{
    // PUTs 2 ticks apart (two 1-tick shots each) and up to 5 ticks
    // of jitter: many PUTs tie on a tick or overtake the one before,
    // and they queue for bus tags.
    const ReplayFingerprint golden{
        600, 7494000, 19777126,
        27079995, 27079995, 35256005,
        0, 6998, 19770128,
        316, 332, 204, 316, 8248,
        289, 40, 40, 0, 45907005};
    EXPECT_EQ(replay({SyncPolicy::Fence, 2, 6, 1}), golden);
}

TEST(ExecutorReplayGolden, HardwareOnly)
{
    // Full recompile: every round q_sets all eight program chunks
    // and q_gens every entry, so the round's commSet and end tick
    // include the last transfer's WBQ drain. Recorded when each q_set
    // finished through a completion event.
    const ReplayFingerprint golden{
        900000000, 7551338, 12492000,
        41666661, 41666661, 953198999,
        3642000, 0, 8850000,
        664, 728, 0, 664, 1144,
        676, 40, 40, 0, 963849999};
    EXPECT_EQ(replay({SyncPolicy::Fence, 0, 0, 0, 0, true}), golden);
}

TEST(ExecutorReplayGolden, PutSharesTickWithBusResponse)
{
    // One PUT per shot, half a bus cycle apart: the bus runs out of
    // tags and PUTs land on the ticks of earlier PUTs' responses. A
    // PUT must see the bus as it was before those responses freed
    // their tags (tag stalls and occupancy). With the PUTs released
    // at default priority instead, both counts drop.
    const ReplayFingerprint golden{
        300000, 7494000, 683680,
        27084231, 27079995, 34886411,
        0, 8180, 675500,
        616, 632, 488, 616, 17812,
        589, 40, 40, 0, 45537411};
    EXPECT_EQ(replay({SyncPolicy::FineGrained, 1, 0, 500}), golden);
}

// Batched PUTs of 8 bus chunks each, with bus response errors retried
// on the same tag: every request takes the event-per-hop fault path,
// and a PUT's chunks finish out of order. A PUT completes at its
// slowest chunk and its latency counts once (Fence sums it into
// commAcquire; fine-grained sync exposes the last completion). Both
// sync policies draw the same faults.

namespace {

const std::map<std::string, double> busRetryFaults{
    {"fault.bus.error", 33},
    {"fault.bus.retries", 32},
    {"fault.bus.retry_exhausted", 1},
};

} // namespace

TEST(ExecutorReplayGolden, FineGrainedBatchedBusRetries)
{
    const ReplayFingerprint golden{
        900000000, 7494000, 414670,
        1782996, 27079995, 909284666,
        0, 7670, 407000,
        91, 182, 0, 91, 463,
        102, 40, 40, 0, 919935666};
    std::map<std::string, double> faults;
    EXPECT_EQ(replay({SyncPolicy::FineGrained, 0, 0, 0, 0.3}, &faults),
              golden);
    EXPECT_EQ(faults, busRetryFaults);
}

TEST(ExecutorReplayGolden, FenceBatchedBusRetries)
{
    const ReplayFingerprint golden{
        900000000, 7494000, 732004,
        27079995, 27079995, 934984999,
        0, 7004, 725000,
        91, 182, 0, 91, 463,
        102, 40, 40, 0, 945635999};
    std::map<std::string, double> faults;
    EXPECT_EQ(replay({SyncPolicy::Fence, 0, 0, 0, 0.3}, &faults),
              golden);
    EXPECT_EQ(faults, busRetryFaults);
}

TEST(ExecutorReplayGolden, VectorIsa)
{
    // The install initializes the regfile with one q_update.v per
    // wave; each round's updates span all three waves, so it sends
    // three q_update.v whose interior lanes carry current values.
    const ReplayFingerprint golden{
        900000000, 3924000, 479669,
        2012997, 27309996, 906029666,
        0, 92669, 387000,
        163, 320, 56, 163, 2647,
        118, 109, 109, 0, 933726666};
    RoccCounts rocc;
    EXPECT_EQ(replay({SyncPolicy::FineGrained, 0, 0, 0, 0, false, true},
                     nullptr, &rocc),
              golden);
    EXPECT_EQ(rocc, (RoccCounts{12, 313}));
}

TEST(ExecutorDeath, RoundUpdateOutsideEveryWavePanics)
{
    core::QtenonConfig cfg;
    cfg.numQubits = 8;
    cfg.software.vectorIsa = true;
    core::QtenonSystem sys(cfg);
    auto trace = makeVectorTrace(1);
    const auto slots =
        static_cast<std::uint32_t>(trace.image.regfileInit.size());
    trace.rounds[0].updates.push_back({slots + 4, 1});
    sys.executor().installProgram(trace.image);
    EXPECT_DEATH(sys.executor().executeRound(trace.rounds[0],
                                             trace.image, shotDur(8)),
                 "outside every image wave");
}
