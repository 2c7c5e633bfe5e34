/**
 * @file
 * End-to-end integration tests: the full Qtenon system against the
 * decoupled baseline on real (small) workloads, reproducing the
 * paper's headline claims in miniature.
 */

#include <gtest/gtest.h>

#include "service/batch_scheduler.hh"

using namespace qtenon;

namespace {

/** Qtenon's (Rocket) and the baseline's totals over one trace. */
struct Comparison {
    runtime::TimeBreakdown qtenon;
    runtime::TimeBreakdown baseline;
    std::uint64_t rounds = 0;

    double
    endToEndSpeedup() const
    {
        return static_cast<double>(baseline.wall) /
            static_cast<double>(qtenon.wall);
    }
};

Comparison
compare(vqa::Algorithm alg, vqa::OptimizerKind opt,
        std::uint32_t n = 8)
{
    service::JobSpec spec;
    spec.workload.algorithm = alg;
    spec.workload.numQubits = n;
    spec.driver.iterations = 2;
    spec.driver.shots = 100;
    spec.driver.optimizer = opt;
    spec.runBaseline = true;
    spec.deriveSeedFromJobId = false;
    const auto r = service::runJobSpec(spec, 0);
    return {r.systems.front().total, r.system("baseline")->total,
            r.rounds};
}

} // namespace

TEST(Integration, QtenonBeatsBaselineEndToEnd)
{
    auto cmp = compare(vqa::Algorithm::Qaoa,
                       vqa::OptimizerKind::GradientDescent);
    EXPECT_GT(cmp.endToEndSpeedup(), 1.5);
    EXPECT_GT(static_cast<double>(cmp.baseline.classical()) /
                  static_cast<double>(cmp.qtenon.classical()),
              10.0);
}

TEST(Integration, SpeedupGrowsWithQubits)
{
    // GD comm rounds scale with parameter count, so the decoupled
    // system's classical share (and Qtenon's advantage) grows with
    // the register (Fig. 11's trend).
    auto small = compare(vqa::Algorithm::Vqe,
                         vqa::OptimizerKind::GradientDescent, 8);
    auto large = compare(vqa::Algorithm::Vqe,
                         vqa::OptimizerKind::GradientDescent, 32);
    EXPECT_GT(large.endToEndSpeedup(), small.endToEndSpeedup());
}

TEST(Integration, AllAlgorithmsAndOptimizersRun)
{
    for (auto alg : {vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe,
                     vqa::Algorithm::Qnn}) {
        for (auto opt : {vqa::OptimizerKind::GradientDescent,
                         vqa::OptimizerKind::Spsa}) {
            auto cmp = compare(alg, opt);
            const auto name = vqa::algorithmName(alg);
            EXPECT_GT(cmp.qtenon.wall, 0u) << name;
            EXPECT_GT(cmp.baseline.wall, cmp.qtenon.wall) << name;
        }
    }
}

TEST(Integration, QuantumFractionsMatchPaperShape)
{
    // Fig. 13 shape: quantum is a small slice of the baseline wall
    // but dominates the Qtenon wall.
    auto cmp =
        compare(vqa::Algorithm::Vqe, vqa::OptimizerKind::Spsa, 32);
    EXPECT_LT(cmp.baseline.percent(cmp.baseline.quantum), 40.0);
    EXPECT_GT(cmp.qtenon.percent(cmp.qtenon.quantum), 60.0);
}

TEST(Integration, GdIssuesMoreRoundsThanSpsa)
{
    auto gd = compare(vqa::Algorithm::Vqe,
                      vqa::OptimizerKind::GradientDescent);
    auto spsa = compare(vqa::Algorithm::Vqe, vqa::OptimizerKind::Spsa);
    EXPECT_GT(gd.rounds, spsa.rounds);
}

TEST(Integration, QtenonSystemExposesComponentStats)
{
    core::QtenonConfig cfg;
    cfg.numQubits = 8;
    core::QtenonSystem sys(cfg);

    auto wcfg = vqa::WorkloadConfig{};
    wcfg.numQubits = 8;
    auto w = vqa::Workload::build(wcfg);
    vqa::DriverConfig dcfg;
    dcfg.iterations = 1;
    dcfg.shots = 50;
    const auto trace = vqa::VqaDriver(dcfg).run(w);
    const auto timing = sys.execute(trace, w.circuit);

    EXPECT_GT(timing.total().wall, 0u);
    EXPECT_GT(sys.controller().pulsesGenerated.value(), 0u);
    EXPECT_GT(sys.bus().transactions.value(), 0u);
    EXPECT_GT(sys.controller().slt().hits +
              sys.controller().slt().misses, 0u);
    EXPECT_EQ(trace.costHistory.size(), 1u);
}

TEST(Integration, SltSkipRateIsHighAcrossRounds)
{
    // Across GD rounds many gates keep their parameters; the SLT
    // must be skipping most pulse computations (Table 5's point).
    core::QtenonConfig cfg;
    cfg.numQubits = 8;
    core::QtenonSystem sys(cfg);

    auto wcfg = vqa::WorkloadConfig{};
    wcfg.algorithm = vqa::Algorithm::Qaoa;
    wcfg.numQubits = 8;
    auto w = vqa::Workload::build(wcfg);
    vqa::DriverConfig dcfg;
    dcfg.iterations = 3;
    dcfg.shots = 50;
    sys.execute(vqa::VqaDriver(dcfg).run(w), w.circuit);

    const auto &slt = sys.controller().slt();
    const double lookups =
        static_cast<double>(slt.hits + slt.misses);
    ASSERT_GT(lookups, 0.0);
    // Many same-parameter gates per qubit -> high hit rate.
    EXPECT_GT(static_cast<double>(slt.hits) / lookups, 0.4);
}
