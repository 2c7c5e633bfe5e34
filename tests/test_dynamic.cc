/**
 * @file
 * Tests of dynamic (feed-forward) circuits: quantum teleportation as
 * the canonical conditional-correction protocol, active reset, and
 * the multi-core host model extension.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "config_error.hh"
#include "quantum/dynamic.hh"
#include "runtime/host_core.hh"

using namespace qtenon::quantum;
using qtenon::sim::Rng;

TEST(DynamicCircuit, MeasureWritesClassicalBit)
{
    DynamicCircuit dc(1, 1);
    dc.gate(GateType::X, 0);
    dc.measure(0, 0);
    Rng rng(1);
    auto out = dc.run(rng);
    EXPECT_TRUE(out.cbits[0]);
    EXPECT_EQ(out.word(), 1u);
}

TEST(DynamicCircuit, ConditionalGateFires)
{
    // Flip qubit 1 only when qubit 0 measured 1.
    for (bool prepare_one : {false, true}) {
        DynamicCircuit dc(2, 2);
        if (prepare_one)
            dc.gate(GateType::X, 0);
        dc.measure(0, 0);
        dc.gateIf(GateType::X, 1, /*cbit=*/0, /*value=*/true);
        dc.measure(1, 1);
        Rng rng(2);
        auto out = dc.run(rng);
        EXPECT_EQ(out.cbits[1], prepare_one);
    }
}

TEST(DynamicCircuit, ActiveResetClearsQubit)
{
    DynamicCircuit dc(1, 1);
    dc.gate(GateType::H, 0);
    dc.reset(0);
    dc.measure(0, 0);
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial)
        EXPECT_FALSE(dc.run(rng).cbits[0]);
}

TEST(DynamicCircuit, TeleportationProtocol)
{
    // Teleport an Ry(theta) state from qubit 0 to qubit 2 using the
    // X/Z corrections conditioned on the Bell measurement.
    const double theta = 1.1;
    Rng rng(4);
    int ones = 0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        DynamicCircuit dc(3, 3);
        // State to teleport.
        dc.gate(GateType::RY, 0, theta);
        // Bell pair between 1 and 2.
        dc.gate(GateType::H, 1);
        dc.gate2(GateType::CNOT, 1, 2);
        // Bell measurement of 0 and 1.
        dc.gate2(GateType::CNOT, 0, 1);
        dc.gate(GateType::H, 0);
        dc.measure(0, 0);
        dc.measure(1, 1);
        // Conditional corrections on qubit 2.
        dc.gateIf(GateType::X, 2, 1);
        dc.gateIf(GateType::Z, 2, 0);
        dc.measure(2, 2);
        if (dc.run(rng).cbits[2])
            ++ones;
    }
    const double expect = std::sin(theta / 2) * std::sin(theta / 2);
    EXPECT_NEAR(static_cast<double>(ones) / trials, expect, 0.06);
}

TEST(DynamicCircuit, RejectsBadOperands)
{
    DynamicCircuit dc(2, 1);
    EXPECT_CONFIG_ERROR(dc.gate(GateType::X, 5), "out of range");
    EXPECT_CONFIG_ERROR(dc.measure(0, 3), "bad measure");
    EXPECT_CONFIG_ERROR(dc.gateIf(GateType::X, 0, 9), "out of range");
}

TEST(HostCoreModel, MultiCoreDividesWork)
{
    using qtenon::runtime::HostCoreModel;
    auto one = HostCoreModel::rocket();
    auto four = HostCoreModel::rocket();
    four.cores = 4;
    EXPECT_EQ(one.timeFor(4e6), 4 * four.timeFor(4e6));
}
