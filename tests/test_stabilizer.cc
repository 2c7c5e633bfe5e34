/**
 * @file
 * Tests of the stabilizer simulator: canonical states, cross-
 * validation against the dense statevector on random Clifford
 * circuits, collapsing measurement semantics, large-register
 * behaviour (GHZ at 100 qubits), and mid-circuit collapse in the
 * statevector itself.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "config_error.hh"
#include "quantum/ansatz.hh"
#include "quantum/graph.hh"
#include "quantum/stabilizer.hh"
#include "quantum/statevector.hh"
#include "sim/random.hh"

using namespace qtenon::quantum;
using qtenon::sim::Rng;

TEST(Stabilizer, InitialStateIsAllZero)
{
    StabilizerSimulator sim(3);
    for (std::uint32_t q = 0; q < 3; ++q) {
        EXPECT_DOUBLE_EQ(sim.marginalOne(q), 0.0);
        EXPECT_TRUE(sim.isDeterministic(q));
    }
}

TEST(Stabilizer, PauliXFlipsDeterministically)
{
    StabilizerSimulator sim(2);
    sim.x(1);
    EXPECT_DOUBLE_EQ(sim.marginalOne(0), 0.0);
    EXPECT_DOUBLE_EQ(sim.marginalOne(1), 1.0);
}

TEST(Stabilizer, HadamardRandomizes)
{
    StabilizerSimulator sim(1);
    sim.h(0);
    EXPECT_DOUBLE_EQ(sim.marginalOne(0), 0.5);
    EXPECT_FALSE(sim.isDeterministic(0));
    // H H = I.
    sim.h(0);
    EXPECT_DOUBLE_EQ(sim.marginalOne(0), 0.0);
}

TEST(Stabilizer, BellPairCorrelations)
{
    StabilizerSimulator sim(2);
    sim.h(0);
    sim.cnot(0, 1);
    EXPECT_DOUBLE_EQ(sim.marginalOne(0), 0.5);
    EXPECT_DOUBLE_EQ(sim.marginalOne(1), 0.5);

    Rng rng(1);
    auto shots = sim.sample(500, rng);
    for (auto s : shots) {
        // Perfectly correlated: 00 or 11 only.
        EXPECT_TRUE(s == 0b00 || s == 0b11) << s;
    }
}

TEST(Stabilizer, MeasurementCollapses)
{
    Rng rng(2);
    StabilizerSimulator sim(2);
    sim.h(0);
    sim.cnot(0, 1);
    const bool first = sim.measure(0, rng);
    // After collapse both qubits are deterministic and equal.
    EXPECT_TRUE(sim.isDeterministic(0));
    EXPECT_TRUE(sim.isDeterministic(1));
    EXPECT_DOUBLE_EQ(sim.marginalOne(1), first ? 1.0 : 0.0);
    EXPECT_EQ(sim.measure(0, rng), first);
}

TEST(Stabilizer, SGateTurnsPlusIntoPlusI)
{
    // S|+> has <Z> = 0 still, but S S |+> = Z|+> = |-> flips under H.
    StabilizerSimulator sim(1);
    sim.h(0);
    sim.s(0);
    sim.s(0);
    sim.h(0);
    EXPECT_DOUBLE_EQ(sim.marginalOne(0), 1.0);
}

TEST(Stabilizer, SdgUndoesS)
{
    StabilizerSimulator sim(1);
    sim.h(0);
    sim.s(0);
    sim.sdg(0);
    sim.h(0);
    EXPECT_DOUBLE_EQ(sim.marginalOne(0), 0.0);
}

TEST(Stabilizer, CliffordDetection)
{
    Gate rz{GateType::RZ, 0, 0, {}};
    EXPECT_TRUE(StabilizerSimulator::isClifford(rz, M_PI / 2));
    EXPECT_TRUE(StabilizerSimulator::isClifford(rz, -M_PI));
    EXPECT_TRUE(StabilizerSimulator::isClifford(rz, 2 * M_PI));
    EXPECT_FALSE(StabilizerSimulator::isClifford(rz, 0.7));
    Gate t{GateType::T, 0, 0, {}};
    EXPECT_FALSE(StabilizerSimulator::isClifford(t, 0.0));
    Gate cz{GateType::CZ, 0, 1, {}};
    EXPECT_TRUE(StabilizerSimulator::isClifford(cz, 0.0));
}

TEST(Stabilizer, RejectsNonCliffordCircuits)
{
    QuantumCircuit c(1);
    c.rx(0, ParamRef::literal(0.3));
    StabilizerSimulator sim(1);
    EXPECT_CONFIG_ERROR(sim.applyCircuit(c), "non-Clifford");
}

TEST(Stabilizer, MatchesStatevectorOnRandomCliffordCircuits)
{
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        QuantumCircuit c(5);
        for (int g = 0; g < 30; ++g) {
            const auto a = static_cast<std::uint32_t>(rng.index(5));
            const auto b = (a + 1 + static_cast<std::uint32_t>(
                                        rng.index(4))) % 5;
            switch (rng.index(7)) {
              case 0: c.h(a); break;
              case 1: c.gate(GateType::S, a); break;
              case 2: c.x(a); break;
              case 3: c.cnot(a, b); break;
              case 4: c.cz(a, b); break;
              case 5:
                c.rz(a, ParamRef::literal(
                            (1 + rng.index(3)) * M_PI / 2));
                break;
              default:
                c.rzz(a, b, ParamRef::literal(
                                (1 + rng.index(3)) * M_PI / 2));
                break;
            }
        }
        StabilizerSimulator stab(5);
        stab.applyCircuit(c);
        StateVector sv(5);
        sv.applyCircuit(c);
        for (std::uint32_t q = 0; q < 5; ++q) {
            EXPECT_NEAR(stab.marginalOne(q), sv.marginalOne(q), 1e-9)
                << "trial " << trial << " qubit " << q;
        }
    }
}

TEST(Stabilizer, HundredQubitGhz)
{
    const std::uint32_t n = 100;
    StabilizerSimulator sim(n);
    sim.h(0);
    for (std::uint32_t q = 0; q + 1 < n; ++q)
        sim.cnot(q, q + 1);
    for (std::uint32_t q = 0; q < n; ++q)
        EXPECT_DOUBLE_EQ(sim.marginalOne(q), 0.5);

    // All qubits collapse together.
    Rng rng(4);
    const bool v = sim.measure(0, rng);
    for (std::uint32_t q = 1; q < n; ++q)
        EXPECT_DOUBLE_EQ(sim.marginalOne(q), v ? 1.0 : 0.0);
}

TEST(Stabilizer, CliffordQaoaPointMatchesStatevector)
{
    // QAOA at gamma = pi/2, beta = pi/2 is a Clifford circuit; the
    // sampled mean cut must agree between backends.
    auto g = Graph::threeRegular(8);
    auto c = ansatz::qaoaMaxCut(g, 1, /*measure=*/false);
    c.setParameters({M_PI / 2.0, M_PI / 2.0});
    StabilizerSimulator stab(8);
    stab.applyCircuit(c);
    StateVector sv(8);
    sv.applyCircuit(c);

    Rng r1(5), r2(5);
    auto stab_shots = stab.sample(4000, r1);
    auto sv_shots = sv.sample(4000, r2);
    auto mean_cut = [&](const std::vector<std::uint64_t> &shots) {
        double s = 0;
        for (auto b : shots)
            s += static_cast<double>(g.cutValue(b));
        return s / static_cast<double>(shots.size());
    };
    EXPECT_NEAR(mean_cut(stab_shots), mean_cut(sv_shots), 0.15);
}

TEST(StateVectorCollapse, MidCircuitMeasurement)
{
    Rng rng(6);
    int ones = 0;
    for (int trial = 0; trial < 200; ++trial) {
        StateVector sv(2);
        QuantumCircuit bell(2);
        bell.h(0);
        bell.cnot(0, 1);
        sv.applyCircuit(bell);
        const bool m = sv.measureAndCollapse(0, rng);
        ones += m ? 1 : 0;
        // Partner collapses with it; norm preserved.
        EXPECT_NEAR(sv.marginalOne(1), m ? 1.0 : 0.0, 1e-9);
        EXPECT_NEAR(sv.normSquared(), 1.0, 1e-9);
    }
    EXPECT_GT(ones, 60);
    EXPECT_LT(ones, 140);
}

TEST(StateVectorCollapse, ActiveReset)
{
    Rng rng(7);
    StateVector sv(1);
    QuantumCircuit c(1);
    c.ry(0, ParamRef::literal(1.9));
    sv.applyCircuit(c);
    sv.resetQubit(0, rng);
    EXPECT_NEAR(sv.marginalOne(0), 0.0, 1e-9);
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-9);
}
