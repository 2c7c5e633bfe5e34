/**
 * @file
 * Tests for the readout-error model and the SLT-disable ablation
 * path, plus the counts a system publishes into obs on teardown.
 */

#include <gtest/gtest.h>

#include "config_error.hh"
#include "controller/pipeline.hh"
#include "core/qtenon_system.hh"
#include "obs/metrics.hh"
#include "quantum/backend.hh"
#include "vqa/driver.hh"
#include "vqa/evaluator.hh"

using namespace qtenon;
using namespace qtenon::quantum;
using qtenon::sim::Rng;

namespace {

/** A statevector backend with @p c applied. */
std::unique_ptr<Backend>
prepared(const QuantumCircuit &c)
{
    BackendConfig cfg;
    cfg.kind = BackendKind::Statevector;
    auto b = makeBackend(c.numQubits(), cfg);
    b->run(c);
    return b;
}

} // namespace

TEST(NoisyReadout, FlipsAtConfiguredRate)
{
    // Deterministic |0...0> state: every observed 1 is a flip.
    QuantumCircuit c(4);
    Rng rng(7);
    auto shots = prepared(c)->sample(20000, rng);
    applyReadoutError(shots, 4, 0.1, rng);
    double ones = 0;
    for (auto s : shots)
        ones += __builtin_popcountll(s);
    EXPECT_NEAR(ones / (20000.0 * 4.0), 0.1, 0.01);
}

TEST(NoisyReadout, MarginalAdjustedAnalytically)
{
    QuantumCircuit c(1);
    c.x(0); // P(1) = 1 exactly
    EXPECT_NEAR(readoutMarginal(prepared(c)->marginalOne(0), 0.05),
                0.95, 1e-12);
}

TEST(NoisyReadout, ZeroErrorIsTransparent)
{
    QuantumCircuit c(2);
    c.h(0);
    auto b = prepared(c);
    Rng r1(3), r2(3);
    auto noisy = b->sample(100, r1);
    applyReadoutError(noisy, 2, 0.0, r1);
    EXPECT_EQ(noisy, b->sample(100, r2));
    // No flip coins were drawn either.
    EXPECT_EQ(r1.raw(), r2.raw());
}

TEST(NoisyReadout, RejectsBadProbability)
{
    EXPECT_TRUE(validReadoutError(0.0));
    EXPECT_TRUE(validReadoutError(maxReadoutError));
    EXPECT_FALSE(validReadoutError(-0.1));
    EXPECT_FALSE(validReadoutError(0.7));
    vqa::EvaluatorConfig cfg;
    cfg.readoutError = 0.7;
    EXPECT_CONFIG_ERROR(vqa::CostEvaluator(4, cfg, 1), "flip probability");
}

TEST(NoisyReadout, DegradesVqeEnergyEstimate)
{
    // With readout noise the sampled diagonal energy estimate is
    // pulled toward zero relative to the ideal estimate.
    vqa::WorkloadConfig wcfg;
    wcfg.algorithm = vqa::Algorithm::Vqe;
    wcfg.numQubits = 6;
    auto ideal_w = vqa::Workload::build(wcfg);
    auto noisy_w = vqa::Workload::build(wcfg);

    vqa::DriverConfig dcfg;
    dcfg.iterations = 2;
    dcfg.shots = 2000;
    dcfg.optimizer = vqa::OptimizerKind::Spsa;
    auto ideal = vqa::VqaDriver(dcfg).run(ideal_w);
    dcfg.readoutError = 0.15;
    auto noisy = vqa::VqaDriver(dcfg).run(noisy_w);

    EXPECT_LT(std::abs(noisy.costHistory.back()),
              std::abs(ideal.costHistory.back()) + 1.0);
    EXPECT_NE(noisy.costHistory.back(), ideal.costHistory.back());
}

TEST(SltAblation, DisabledSltRegeneratesEverything)
{
    sim::EventQueue eq;
    memory::QccLayout layout;
    controller::QuantumControllerCache qcc(
        eq, "qcc", sim::ClockDomain::fromHz(200'000'000), layout);
    controller::SkipLookupTable slt(layout.numQubits);

    // 16 entries with the identical parameter on one qubit.
    std::vector<std::uint64_t> work;
    for (std::uint32_t i = 0; i < 16; ++i) {
        controller::ProgramEntry e;
        e.type = 0x8;
        e.data = 42;
        const auto qaddr = layout.programAddr(0, i);
        qcc.writeProgram(qaddr, e);
        work.push_back(qaddr);
    }

    controller::PipelineConfig off;
    off.sltEnabled = false;
    controller::PulsePipeline pipe_off(qcc, slt, off);
    controller::PipelineResult r_off;
    pipe_off.run(work, r_off);
    EXPECT_EQ(r_off.pulsesGenerated, 16u);
    EXPECT_EQ(r_off.sltHits, 0u);

    // Same work with the SLT on: one pulse.
    for (auto qaddr : work) {
        auto e = qcc.readProgram(qaddr);
        e.status = controller::EntryStatus::Invalid;
        qcc.writeProgram(qaddr, e);
    }
    controller::PulsePipeline pipe_on(qcc, slt);
    controller::PipelineResult r_on;
    pipe_on.run(work, r_on);
    EXPECT_EQ(r_on.pulsesGenerated, 1u);
    EXPECT_LT(r_on.cycles, r_off.cycles);
}

TEST(StatsDump, SystemDumpNamesEveryComponent)
{
    // Each component publishes its counts into obs on teardown.
    obs::setMetricsEnabled(true);
    obs::registry().reset();
    {
        core::QtenonConfig cfg;
        cfg.numQubits = 8;
        core::QtenonSystem sys(cfg);

        auto wcfg = vqa::WorkloadConfig{};
        wcfg.numQubits = 8;
        auto w = vqa::Workload::build(wcfg);
        vqa::DriverConfig dcfg;
        dcfg.iterations = 1;
        dcfg.shots = 20;
        sys.execute(vqa::VqaDriver(dcfg).run(w), w.circuit);
    }
    const auto counters = obs::registry().counterValues();
    obs::setMetricsEnabled(false);
    obs::registry().reset();
    for (const char *key :
         {"mem.dram.accesses", "mem.cache.hits", "mem.bus.transactions",
          "controller.pipeline.pulses_generated",
          "mem.qcc.program_writes", "controller.slt.hits"}) {
        ASSERT_TRUE(counters.count(key)) << key;
        EXPECT_GT(counters.at(key), 0u) << key;
    }
}
