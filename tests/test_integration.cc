/**
 * @file
 * End-to-end integration tests: the full Qtenon system against the
 * decoupled baseline on real (small) workloads, reproducing the
 * paper's headline claims in miniature.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

using namespace qtenon;

namespace {

core::ComparisonConfig
smallConfig(vqa::Algorithm alg, vqa::OptimizerKind opt,
            std::uint32_t n = 8)
{
    core::ComparisonConfig cfg;
    cfg.workload.algorithm = alg;
    cfg.workload.numQubits = n;
    cfg.driver.iterations = 2;
    cfg.driver.shots = 100;
    cfg.driver.optimizer = opt;
    return cfg;
}

} // namespace

TEST(Integration, QtenonBeatsBaselineEndToEnd)
{
    auto cmp = core::compareSystems(
        smallConfig(vqa::Algorithm::Qaoa,
                    vqa::OptimizerKind::GradientDescent));
    EXPECT_GT(cmp.endToEndSpeedup(), 1.5);
    EXPECT_GT(cmp.classicalSpeedup(), 10.0);
}

TEST(Integration, SpeedupGrowsWithQubits)
{
    // GD comm rounds scale with parameter count, so the decoupled
    // system's classical share (and Qtenon's advantage) grows with
    // the register (Fig. 11's trend).
    auto small = core::compareSystems(
        smallConfig(vqa::Algorithm::Vqe,
                    vqa::OptimizerKind::GradientDescent, 8));
    auto large = core::compareSystems(
        smallConfig(vqa::Algorithm::Vqe,
                    vqa::OptimizerKind::GradientDescent, 32));
    EXPECT_GT(large.endToEndSpeedup(), small.endToEndSpeedup());
}

TEST(Integration, AllAlgorithmsAndOptimizersRun)
{
    for (auto alg : {vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe,
                     vqa::Algorithm::Qnn}) {
        for (auto opt : {vqa::OptimizerKind::GradientDescent,
                         vqa::OptimizerKind::Spsa}) {
            auto cmp = core::compareSystems(smallConfig(alg, opt));
            EXPECT_GT(cmp.qtenon.wall, 0u) << cmp.name;
            EXPECT_GT(cmp.baseline.wall, cmp.qtenon.wall) << cmp.name;
        }
    }
}

TEST(Integration, QuantumFractionsMatchPaperShape)
{
    // Fig. 13 shape: quantum is a small slice of the baseline wall
    // but dominates the Qtenon wall.
    auto cmp = core::compareSystems(
        smallConfig(vqa::Algorithm::Vqe, vqa::OptimizerKind::Spsa,
                    32));
    EXPECT_LT(cmp.baseline.percent(cmp.baseline.quantum), 40.0);
    EXPECT_GT(cmp.qtenon.percent(cmp.qtenon.quantum), 60.0);
}

TEST(Integration, GdIssuesMoreRoundsThanSpsa)
{
    auto gd = core::compareSystems(
        smallConfig(vqa::Algorithm::Vqe,
                    vqa::OptimizerKind::GradientDescent));
    auto spsa = core::compareSystems(
        smallConfig(vqa::Algorithm::Vqe, vqa::OptimizerKind::Spsa));
    EXPECT_GT(gd.trace.rounds.size(), spsa.trace.rounds.size());
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
    auto result = sys.runVqa(w, dcfg);

    EXPECT_GT(result.timing.total().wall, 0u);
    EXPECT_GT(sys.controller().pulsesGenerated.value(), 0u);
    EXPECT_GT(sys.bus().transactions.value(), 0u);
    EXPECT_GT(sys.controller().slt().hits +
              sys.controller().slt().misses, 0u);
    EXPECT_EQ(result.trace.costHistory.size(), 1u);
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
    sys.runVqa(w, dcfg);

    const auto &slt = sys.controller().slt();
    const double lookups =
        static_cast<double>(slt.hits + slt.misses);
    ASSERT_GT(lookups, 0.0);
    // Many same-parameter gates per qubit -> high hit rate.
    EXPECT_GT(static_cast<double>(slt.hits) / lookups, 0.4);
}
