/**
 * @file
 * Tests of the VQA layer: cost functions, optimizers on analytic
 * objectives, workload construction, and the trace-producing driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "quantum/backend.hh"
#include "vqa/cost.hh"
#include "vqa/driver.hh"
#include "vqa/optimizer.hh"
#include "vqa/workload.hh"

using namespace qtenon;
using namespace qtenon::vqa;

TEST(Cost, MaxCutFromShots)
{
    auto g = quantum::Graph::ring(4);
    MaxCutCost cost(g);
    // Alternating assignment cuts all 4 edges; all-zeros cuts none.
    EXPECT_DOUBLE_EQ(cost.fromShots({0b0101, 0b0101}), -4.0);
    EXPECT_DOUBLE_EQ(cost.fromShots({0b0000}), 0.0);
    EXPECT_DOUBLE_EQ(cost.fromShots({0b0101, 0b0000}), -2.0);
    EXPECT_GT(cost.opsPerShot(), 0.0);
}

TEST(Cost, MaxCutFromMarginals)
{
    auto g = quantum::Graph::ring(4);
    MaxCutCost cost(g);
    // Deterministic alternating marginals: every edge cut.
    EXPECT_DOUBLE_EQ(cost.fromMarginals({1.0, 0.0, 1.0, 0.0}), -4.0);
    // Uniform 0.5: expected half the edges cut.
    EXPECT_DOUBLE_EQ(cost.fromMarginals({0.5, 0.5, 0.5, 0.5}), -2.0);
}

TEST(Cost, HamiltonianFromShots)
{
    quantum::Hamiltonian h(2);
    h.addTerm(1.0, quantum::PauliString::parse("Z0"));
    h.addIdentity(1.0);
    HamiltonianCost cost(std::move(h));
    EXPECT_DOUBLE_EQ(cost.fromShots({0b00, 0b00}), 2.0);
    EXPECT_DOUBLE_EQ(cost.fromShots({0b01, 0b01}), 0.0);
}

TEST(Cost, QnnLossMinimalAtTarget)
{
    QnnLoss loss(4, /*target=*/0.5, /*dataset=*/8);
    // Exactly half the shots read 1 on qubit 0 -> zero loss.
    EXPECT_DOUBLE_EQ(loss.fromShots({0b1, 0b0}), 0.0);
    EXPECT_GT(loss.fromShots({0b1, 0b1}), 0.0);
    EXPECT_DOUBLE_EQ(loss.fromMarginals({0.5}), 0.0);
}

TEST(Optimizer, GradientDescentMinimizesQuadratic)
{
    GradientDescent gd(0.2);
    std::vector<double> params{3.0, -2.0};
    auto oracle = [](const std::vector<double> &p) {
        return p[0] * p[0] + p[1] * p[1];
    };
    double cost = 1e9;
    for (int i = 0; i < 50; ++i)
        cost = gd.iterate(params, oracle);
    EXPECT_LT(cost, 0.1);
    EXPECT_EQ(gd.evalsPerIteration(2), 5u);
}

TEST(Optimizer, SpsaMinimizesQuadratic)
{
    Spsa spsa(0.3, 0.2, 42);
    std::vector<double> params{2.0, -1.5, 1.0};
    auto oracle = [](const std::vector<double> &p) {
        double s = 0;
        for (double v : p)
            s += v * v;
        return s;
    };
    double first = oracle(params);
    for (int i = 0; i < 200; ++i)
        spsa.iterate(params, oracle);
    EXPECT_LT(oracle(params), first * 0.2);
    EXPECT_EQ(spsa.evalsPerIteration(3), 2u);
}

TEST(Workload, BuildsAllThreeAlgorithms)
{
    for (auto alg : {Algorithm::Qaoa, Algorithm::Vqe, Algorithm::Qnn}) {
        WorkloadConfig cfg;
        cfg.algorithm = alg;
        cfg.numQubits = 8;
        auto w = Workload::build(cfg);
        EXPECT_EQ(w.circuit.numQubits(), 8u);
        EXPECT_GT(w.circuit.numParameters(), 0u);
        ASSERT_NE(w.cost, nullptr);
        EXPECT_FALSE(w.name.empty());
    }
}

TEST(Workload, ParameterCountsMatchShapes)
{
    WorkloadConfig cfg;
    cfg.numQubits = 16;
    cfg.algorithm = Algorithm::Qaoa;
    EXPECT_EQ(Workload::build(cfg).circuit.numParameters(), 10u);
    cfg.algorithm = Algorithm::Vqe;
    EXPECT_EQ(Workload::build(cfg).circuit.numParameters(), 48u);
    cfg.algorithm = Algorithm::Qnn;
    EXPECT_EQ(Workload::build(cfg).circuit.numParameters(), 32u);
}

TEST(Driver, GdTraceStructure)
{
    WorkloadConfig wcfg;
    wcfg.algorithm = Algorithm::Qaoa;
    wcfg.numQubits = 6;
    wcfg.qaoaLayers = 1;
    auto w = Workload::build(wcfg);

    DriverConfig dcfg;
    dcfg.iterations = 3;
    dcfg.shots = 50;
    dcfg.optimizer = OptimizerKind::GradientDescent;
    VqaDriver driver(dcfg);
    auto trace = driver.run(w);

    // 2 params -> 2*2+1 = 5 rounds per iteration.
    EXPECT_EQ(trace.rounds.size(), 15u);
    EXPECT_EQ(trace.costHistory.size(), 3u);
    EXPECT_EQ(trace.numQubits, 6u);
    for (const auto &r : trace.rounds) {
        EXPECT_EQ(r.shots, 50u);
        EXPECT_EQ(r.shotData.size(), 50u);
        // GD probes shift one parameter at a time: at most a couple
        // of q_updates per round.
        EXPECT_LE(r.updates.size(), 2u + 2u);
    }
}

TEST(Driver, SpsaUpdatesAllParameters)
{
    WorkloadConfig wcfg;
    wcfg.algorithm = Algorithm::Vqe;
    wcfg.numQubits = 6;
    auto w = Workload::build(wcfg);
    const auto num_params = w.circuit.numParameters();

    DriverConfig dcfg;
    dcfg.iterations = 2;
    dcfg.shots = 50;
    dcfg.optimizer = OptimizerKind::Spsa;
    VqaDriver driver(dcfg);
    auto trace = driver.run(w);

    EXPECT_EQ(trace.rounds.size(), 4u); // 2 evals x 2 iterations
    // Each SPSA probe perturbs every parameter.
    EXPECT_GE(trace.rounds[0].updates.size(), num_params - 1);
}

TEST(Driver, DeterministicPerSeed)
{
    WorkloadConfig wcfg;
    wcfg.algorithm = Algorithm::Qaoa;
    wcfg.numQubits = 6;
    wcfg.qaoaLayers = 1;

    DriverConfig dcfg;
    dcfg.iterations = 2;
    dcfg.shots = 30;
    dcfg.seed = 77;

    auto w1 = Workload::build(wcfg);
    auto w2 = Workload::build(wcfg);
    auto t1 = VqaDriver(dcfg).run(w1);
    auto t2 = VqaDriver(dcfg).run(w2);
    ASSERT_EQ(t1.costHistory.size(), t2.costHistory.size());
    for (std::size_t i = 0; i < t1.costHistory.size(); ++i)
        EXPECT_DOUBLE_EQ(t1.costHistory[i], t2.costHistory[i]);
}

TEST(Driver, QaoaOptimizationImprovesCut)
{
    // Functional end-to-end: on a small instance with the exact
    // sampler, GD should improve the (negated) expected cut.
    WorkloadConfig wcfg;
    wcfg.algorithm = Algorithm::Qaoa;
    wcfg.numQubits = 8;
    wcfg.qaoaLayers = 5;
    auto w = Workload::build(wcfg);

    DriverConfig dcfg;
    dcfg.iterations = 5;
    dcfg.shots = 500;
    dcfg.seed = 7;
    auto trace = VqaDriver(dcfg).run(w);

    const double best = *std::min_element(trace.costHistory.begin(),
                                          trace.costHistory.end());
    EXPECT_LT(best, trace.costHistory.front() - 0.1);
}

TEST(Driver, LargeRegisterFallsBackToMarginals)
{
    WorkloadConfig wcfg;
    wcfg.algorithm = Algorithm::Vqe;
    wcfg.numQubits = 96; // beyond the 64-bit shot words
    wcfg.vqeLayers = 1;
    auto w = Workload::build(wcfg);

    DriverConfig dcfg;
    dcfg.iterations = 1;
    dcfg.shots = 10;
    dcfg.optimizer = OptimizerKind::Spsa;
    auto trace = VqaDriver(dcfg).run(w);
    EXPECT_EQ(trace.rounds.size(), 2u);
    EXPECT_TRUE(trace.rounds[0].shotData.empty());
    EXPECT_EQ(trace.costHistory.size(), 1u);
}

TEST(Driver, GdMatchesFullReplayReference)
{
    // The driver evaluates GD probes through the backend's prefix
    // checkpoint; a plain loop that replays every circuit in full
    // with Backend::run must see the same shots and costs.
    WorkloadConfig wcfg;
    wcfg.algorithm = Algorithm::Vqe;
    wcfg.numQubits = 8;
    wcfg.vqeLayers = 2;
    auto w = Workload::build(wcfg);
    auto ref = Workload::build(wcfg);

    DriverConfig dcfg;
    dcfg.iterations = 2;
    dcfg.shots = 64;
    dcfg.seed = 19;
    auto trace = VqaDriver(dcfg).run(w);

    quantum::BackendConfig bcfg;
    bcfg.exactCap = dcfg.exactCap;
    auto backend = quantum::makeBackend(8, bcfg);
    sim::Rng rng(dcfg.seed);
    std::vector<std::vector<std::uint64_t>> shots;
    GradientDescent gd;
    auto params = ref.circuit.parameters();
    std::vector<double> history;
    for (std::uint32_t it = 0; it < dcfg.iterations; ++it) {
        history.push_back(gd.iterate(
            params, [&](const std::vector<double> &p) {
                ref.circuit.setParameters(p);
                backend->run(ref.circuit);
                shots.push_back(backend->sample(dcfg.shots, rng));
                return ref.cost->fromShots(shots.back());
            }));
    }

    ASSERT_EQ(trace.rounds.size(), shots.size());
    for (std::size_t r = 0; r < shots.size(); ++r)
        EXPECT_EQ(trace.rounds[r].shotData, shots[r]) << "round " << r;
    ASSERT_EQ(trace.costHistory.size(), history.size());
    for (std::size_t i = 0; i < history.size(); ++i)
        EXPECT_EQ(trace.costHistory[i], history[i]) << "iteration " << i;
}
