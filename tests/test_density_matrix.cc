/**
 * @file
 * Tests of the density-matrix simulator: pure-state agreement with
 * the statevector, trace/purity invariants, noise-channel fixed
 * points, and noisy VQE energy degradation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "config_error.hh"
#include "quantum/density_matrix.hh"
#include "quantum/molecule.hh"
#include "sim/random.hh"

using namespace qtenon::quantum;
using qtenon::sim::Rng;

TEST(DensityMatrix, StartsPureInZero)
{
    DensityMatrix dm(2);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
    EXPECT_NEAR(dm.probability(0), 1.0, 1e-12);
}

TEST(DensityMatrix, PureEvolutionMatchesStatevector)
{
    Rng rng(61);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit c(3);
        for (int g = 0; g < 15; ++g) {
            const auto a = static_cast<std::uint32_t>(rng.index(3));
            const auto b = (a + 1 + static_cast<std::uint32_t>(
                                        rng.index(2))) % 3;
            switch (rng.index(6)) {
              case 0: c.h(a); break;
              case 1:
                c.rx(a, ParamRef::literal(rng.uniform(-3, 3)));
                break;
              case 2:
                c.ry(a, ParamRef::literal(rng.uniform(-3, 3)));
                break;
              case 3:
                c.rzz(a, b, ParamRef::literal(rng.uniform(-3, 3)));
                break;
              case 4: c.cz(a, b); break;
              default: c.cnot(a, b); break;
            }
        }
        DensityMatrix dm(3);
        dm.applyCircuit(c);
        StateVector sv(3);
        sv.applyCircuit(c);

        EXPECT_NEAR(dm.trace(), 1.0, 1e-9);
        EXPECT_NEAR(dm.purity(), 1.0, 1e-9);
        for (std::uint64_t b = 0; b < 8; ++b)
            EXPECT_NEAR(dm.probability(b), sv.probability(b), 1e-9);
        for (std::uint32_t q = 0; q < 3; ++q)
            EXPECT_NEAR(dm.marginalOne(q), sv.marginalOne(q), 1e-9);
    }
}

TEST(DensityMatrix, FromStateReproducesProjector)
{
    QuantumCircuit c(2);
    c.h(0);
    c.cnot(0, 1);
    StateVector sv(2);
    sv.applyCircuit(c);
    auto dm = DensityMatrix::fromState(sv);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
    EXPECT_NEAR(dm.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(dm.probability(0b11), 0.5, 1e-12);
    // Coherence between 00 and 11 present.
    EXPECT_NEAR(std::abs(dm.element(0, 3)), 0.5, 1e-12);
}

TEST(DensityMatrix, ExpectationMatchesStatevectorHamiltonian)
{
    auto h = h2();
    QuantumCircuit c(2);
    c.x(0);
    c.ry(1, ParamRef::literal(0.8));
    c.cnot(1, 0);

    StateVector sv(2);
    sv.applyCircuit(c);
    DensityMatrix dm(2);
    dm.applyCircuit(c);
    EXPECT_NEAR(dm.expectation(h), h.expectation(sv), 1e-9);
}

TEST(DensityMatrix, DepolarizingDrivesToMaximallyMixed)
{
    DensityMatrix dm(1);
    QuantumCircuit c(1);
    c.h(0);
    dm.applyCircuit(c);
    // Repeated depolarization: purity -> 1/2, marginal -> 1/2.
    for (int i = 0; i < 60; ++i)
        dm.depolarize(0, 0.2);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-9);
    EXPECT_NEAR(dm.purity(), 0.5, 1e-3);
    EXPECT_NEAR(dm.marginalOne(0), 0.5, 1e-3);
}

TEST(DensityMatrix, DephasingKillsCoherenceKeepsPopulations)
{
    DensityMatrix dm(1);
    QuantumCircuit c(1);
    c.ry(0, ParamRef::literal(1.1));
    dm.applyCircuit(c);
    const double p1_before = dm.marginalOne(0);
    for (int i = 0; i < 50; ++i)
        dm.dephase(0, 0.3);
    EXPECT_NEAR(dm.marginalOne(0), p1_before, 1e-9);
    EXPECT_NEAR(std::abs(dm.element(0, 1)), 0.0, 1e-6);
    EXPECT_LT(dm.purity(), 1.0);
}

TEST(DensityMatrix, AmplitudeDampingDecaysToGround)
{
    DensityMatrix dm(1);
    QuantumCircuit c(1);
    c.x(0);
    dm.applyCircuit(c);
    for (int i = 0; i < 80; ++i)
        dm.amplitudeDamp(0, 0.15);
    EXPECT_NEAR(dm.marginalOne(0), 0.0, 1e-4);
    // Ends in the pure ground state.
    EXPECT_NEAR(dm.purity(), 1.0, 1e-4);
}

TEST(DensityMatrix, ChannelsPreserveTrace)
{
    Rng rng(62);
    DensityMatrix dm(2);
    QuantumCircuit c(2);
    c.h(0);
    c.cnot(0, 1);
    dm.applyCircuit(c);
    dm.depolarize(0, 0.1);
    dm.dephase(1, 0.2);
    dm.amplitudeDamp(0, 0.05);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-9);
    EXPECT_LE(dm.purity(), 1.0 + 1e-9);
}

TEST(DensityMatrix, NoiseDegradesVqeEnergy)
{
    // The noisy H2 ansatz state has strictly worse (higher) energy
    // than the pure one: decoherence pulls toward the mixed state.
    auto h = h2();
    QuantumCircuit c(2);
    c.x(0);
    c.ry(1, ParamRef::literal(-0.23)); // near-optimal angle
    c.cnot(1, 0);

    DensityMatrix pure(2);
    pure.applyCircuit(c);
    const double e_pure = pure.expectation(h);

    DensityMatrix noisy(2);
    noisy.applyCircuit(c);
    noisy.depolarizeAll(0.05);
    const double e_noisy = noisy.expectation(h);
    EXPECT_GT(e_noisy, e_pure + 1e-4);
}

TEST(DensityMatrix, RejectsOversizedRegisters)
{
    EXPECT_CONFIG_ERROR(DensityMatrix(12, 10), "cap");
}
