/**
 * @file
 * Unit tests for the quantum timing model.
 */

#include <gtest/gtest.h>

#include "quantum/ansatz.hh"
#include "quantum/timing.hh"

using namespace qtenon::quantum;
using qtenon::sim::nsTicks;

TEST(Timing, SingleGateDurations)
{
    GateTiming t;
    QuantumTimingModel model(t);

    QuantumCircuit one(1);
    one.h(0);
    EXPECT_EQ(model.schedule(one).duration, 20 * nsTicks);

    QuantumCircuit two(2);
    two.cz(0, 1);
    EXPECT_EQ(model.schedule(two).duration, 40 * nsTicks);

    QuantumCircuit meas(1);
    meas.measure(0);
    EXPECT_EQ(model.schedule(meas).duration, 1200 * nsTicks);
}

TEST(Timing, ParallelGatesShareTime)
{
    QuantumTimingModel model;
    QuantumCircuit c(4);
    for (std::uint32_t q = 0; q < 4; ++q)
        c.h(q);
    // All four H run in parallel on distinct qubits.
    EXPECT_EQ(model.schedule(c).duration, 20 * nsTicks);
}

TEST(Timing, SerialChainAccumulates)
{
    QuantumTimingModel model;
    QuantumCircuit c(2);
    c.h(0);          // 20
    c.cz(0, 1);      // +40
    c.h(1);          // +20 on q1
    auto s = model.schedule(c);
    EXPECT_EQ(s.duration, 80 * nsTicks);
    EXPECT_EQ(s.gateTime, 80 * nsTicks);
}

TEST(Timing, MeasureTimeSeparated)
{
    QuantumTimingModel model;
    QuantumCircuit c(2);
    c.h(0);
    c.measureAll();
    auto s = model.schedule(c);
    EXPECT_EQ(s.duration, (20 + 1200) * nsTicks);
    EXPECT_EQ(s.measureTime, s.duration - s.gateTime);
}

TEST(Timing, ShotsScaleLinearly)
{
    QuantumTimingModel model;
    QuantumCircuit c(1);
    c.h(0);
    c.measure(0);
    EXPECT_EQ(model.shotsDuration(c, 500),
              500u * (20 + 1200) * nsTicks);
}

class QaoaLayerSweep : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(QaoaLayerSweep, DurationGrowsWithLayers)
{
    const auto layers = GetParam();
    QuantumTimingModel model;
    auto g = Graph::threeRegular(8);
    auto c1 = ansatz::qaoaMaxCut(g, layers);
    auto c2 = ansatz::qaoaMaxCut(g, layers + 1);
    EXPECT_LT(model.schedule(c1).duration, model.schedule(c2).duration);
}

INSTANTIATE_TEST_SUITE_P(Layers, QaoaLayerSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));
