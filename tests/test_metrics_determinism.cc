/**
 * @file
 * Worker-count independence of the observability layer: the same
 * sweep run at jobs=1 and jobs=8 with a fixed seed must produce a
 * byte-identical deterministic ResultsStore export AND identical
 * simulation-derived metrics. Counters and histograms whose values
 * come from simulated time or event counts are commutative adds, so
 * worker count and completion order must not show through; only
 * wall-clock metrics (suffix `_ns`) and instantaneous gauges are
 * exempt (see DESIGN.md §9).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "obs/metrics.hh"
#include "service/batch_scheduler.hh"
#include "service/sweep.hh"

using namespace qtenon;
using namespace qtenon::service;

namespace {

/** Wall-clock-derived metric names are exempt from determinism. */
bool
isWallClockMetric(const std::string &name)
{
    const std::string suffix = "_ns";
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

struct SweepObservation {
    std::string resultsJson;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, obs::HistogramSnapshot> histograms;
};

/** Run the reference sweep on @p workers threads with a zeroed
 *  registry and snapshot everything it recorded. */
SweepObservation
observeSweep(unsigned workers)
{
    obs::registry().reset();

    SchedulerConfig cfg;
    cfg.workers = workers;
    BatchScheduler sched(cfg);
    sched.submitAll(Sweep("det")
                        .algorithms({vqa::Algorithm::Qaoa,
                                     vqa::Algorithm::Vqe,
                                     vqa::Algorithm::Qnn})
                        .optimizers({vqa::OptimizerKind::Spsa,
                                     vqa::OptimizerKind::
                                         GradientDescent})
                        .qubits({4, 6})
                        .shots(24)
                        .iterations(2)
                        .seed(1234)
                        .configure([](JobSpec &s) {
                            s.workload.qaoaLayers = 2;
                            s.workload.vqeLayers = 1;
                            s.workload.qnnLayers = 1;
                        })
                        .build());
    auto &store = sched.wait();

    SweepObservation seen;
    seen.resultsJson =
        store.toJsonString(/*deterministic_only=*/true);
    seen.counters = obs::registry().counterValues();
    seen.histograms = obs::registry().histogramValues();
    return seen;
}

} // namespace

class MetricsDeterminism : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::setMetricsEnabled(true);
    }

    void
    TearDown() override
    {
        obs::setMetricsEnabled(false);
        obs::registry().reset();
    }
};

TEST_F(MetricsDeterminism, SweepIsWorkerCountIndependent)
{
    const auto one = observeSweep(1);
    const auto eight = observeSweep(8);

    // 1. The functional results: byte-identical deterministic JSON.
    EXPECT_EQ(one.resultsJson, eight.resultsJson);

    // 2. The observability layer actually observed the batch.
    EXPECT_FALSE(one.counters.empty());
    EXPECT_FALSE(one.histograms.empty());
    EXPECT_GT(one.counters.at("service.jobs.completed"), 0u);
    EXPECT_GT(one.counters.at("controller.pipeline.pulses_generated"),
              0u);

    // 3. Every simulation-derived counter matches exactly.
    ASSERT_EQ(one.counters.size(), eight.counters.size());
    for (const auto &[name, value] : one.counters) {
        if (isWallClockMetric(name))
            continue;
        ASSERT_TRUE(eight.counters.count(name)) << name;
        EXPECT_EQ(value, eight.counters.at(name)) << name;
    }

    // 4. Every simulation-derived histogram matches in full:
    //    count, exact sum, extrema, and the whole bucket vector.
    ASSERT_EQ(one.histograms.size(), eight.histograms.size());
    for (const auto &[name, snap] : one.histograms) {
        if (isWallClockMetric(name))
            continue;
        ASSERT_TRUE(eight.histograms.count(name)) << name;
        const auto &other = eight.histograms.at(name);
        EXPECT_EQ(snap.count, other.count) << name;
        EXPECT_EQ(snap.sum, other.sum) << name;
        EXPECT_EQ(snap.min, other.min) << name;
        EXPECT_EQ(snap.max, other.max) << name;
        for (std::size_t b = 0; b < snap.buckets.size(); ++b)
            EXPECT_EQ(snap.buckets[b], other.buckets[b])
                << name << " bucket " << b;
    }

    // 5. Wall-clock metrics exist and are recorded (they are merely
    //    not required to match).
    EXPECT_TRUE(one.histograms.count("service.job.run_ns"));
    EXPECT_TRUE(one.histograms.count("service.job.queue_wait_ns"));
    EXPECT_GT(one.histograms.at("service.job.run_ns").count, 0u);
}

TEST_F(MetricsDeterminism, DisabledMetricsRecordNothing)
{
    obs::setMetricsEnabled(false);
    obs::registry().reset();

    SchedulerConfig cfg;
    cfg.workers = 2;
    BatchScheduler sched(cfg);
    sched.submitAll(Sweep("off")
                        .algorithms({vqa::Algorithm::Vqe})
                        .optimizers({vqa::OptimizerKind::Spsa})
                        .qubits({4})
                        .shots(16)
                        .iterations(1)
                        .seed(5)
                        .build());
    sched.wait();

    for (const auto &[name, value] : obs::registry().counterValues())
        EXPECT_EQ(value, 0u) << name << " moved while disabled";
    for (const auto &[name, snap] :
         obs::registry().histogramValues())
        EXPECT_EQ(snap.count, 0u) << name << " moved while disabled";
}

// One fact, one number: the obs counters a system publishes on
// teardown are exactly the sum of what each replayed system counted.
TEST_F(MetricsDeterminism, PublishedCountersSumTheSystemsCounts)
{
    obs::registry().reset();

    JobSpec spec;
    spec.name = "one-fact";
    spec.workload.algorithm = vqa::Algorithm::Qaoa;
    spec.workload.numQubits = 6;
    spec.workload.qaoaLayers = 1;
    spec.driver.optimizer = vqa::OptimizerKind::Spsa;
    spec.driver.shots = 24;
    spec.driver.iterations = 2;
    spec.driver.seed = 77;
    spec.hosts = {runtime::HostCoreModel::rocket(),
                  runtime::HostCoreModel::boomLarge()};
    ASSERT_FALSE(spec.driver.isaVector);

    const JobResult r = runJobSpec(spec, 1, CancelToken::none());
    ASSERT_EQ(r.systems.size(), 2u);

    double bus = 0.0, pulses = 0.0;
    for (const auto &s : r.systems) {
        bus += s.busTransactions;
        pulses += s.pulsesGenerated;
    }
    const auto counters = obs::registry().counterValues();
    ASSERT_TRUE(counters.count("mem.bus.transactions"));
    ASSERT_TRUE(counters.count("controller.pipeline.pulses_generated"));
    EXPECT_GT(bus, 0.0);
    EXPECT_EQ(static_cast<double>(counters.at("mem.bus.transactions")),
              bus);
    EXPECT_EQ(static_cast<double>(
                  counters.at("controller.pipeline.pulses_generated")),
              pulses);
    EXPECT_FALSE(counters.count("controller.rocc.vector_elements"));
    // One pgu_occupancy record per PGU dispatch, and each dispatch
    // yields one pulse: the later host replays the records of the
    // q_gen runs it recalls.
    const auto hists = obs::registry().histogramValues();
    ASSERT_TRUE(hists.count("controller.pipeline.pgu_occupancy"));
    EXPECT_EQ(static_cast<double>(
                  hists.at("controller.pipeline.pgu_occupancy").count),
              pulses);
}
