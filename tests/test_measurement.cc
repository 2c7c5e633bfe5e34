/**
 * @file
 * Tests of measurement-basis grouping: group structure, rotation
 * correctness (sampled estimates converge to exact expectations
 * including non-diagonal terms), and execution counting.
 */

#include <gtest/gtest.h>

#include "config_error.hh"
#include "quantum/backend.hh"
#include "quantum/molecule.hh"
#include "quantum/statevector.hh"
#include "vqa/measurement.hh"

using namespace qtenon;
using namespace qtenon::vqa;
using quantum::Pauli;
using quantum::ParamRef;
using qtenon::sim::Rng;

TEST(Measurement, H2GroupsIntoTwoBases)
{
    // H2 = offset + Z0 + Z1 + Z0Z1 (one Z group) + X0X1 (one X
    // group).
    GroupedEstimator est(quantum::h2());
    EXPECT_EQ(est.numExecutions(), 2u);
    std::size_t covered = 0;
    for (const auto &g : est.groups())
        covered += g.terms.size();
    EXPECT_EQ(covered, est.hamiltonian().numTerms());
}

TEST(Measurement, GroupBasesAreConsistent)
{
    auto h = quantum::syntheticMolecule(8);
    GroupedEstimator est(h);
    // Every term's factors must match its group's bases.
    for (const auto &g : est.groups()) {
        for (auto t : g.terms) {
            for (const auto &f : h.terms()[t].string.factors)
                EXPECT_EQ(g.basis[f.qubit], f.op);
        }
    }
    // All terms covered exactly once.
    std::size_t covered = 0;
    for (const auto &g : est.groups())
        covered += g.terms.size();
    EXPECT_EQ(covered, h.numTerms());
    // XX and YY terms cannot share a group with each other.
    EXPECT_GE(est.numExecutions(), 3u);
}

TEST(Measurement, SampledEstimateMatchesExactH2)
{
    auto h = quantum::h2();
    GroupedEstimator est(h);

    // A nontrivial ansatz state.
    quantum::QuantumCircuit c(2);
    c.x(0);
    c.ry(1, ParamRef::literal(-0.25));
    c.cnot(1, 0);

    quantum::StateVector sv(2);
    sv.applyCircuit(c);
    const double exact = h.expectation(sv);

    auto backend = quantum::makeBackend(2);
    Rng rng(71);
    const double sampled = est.estimate(c, *backend, 40000, rng);
    // 40k shots per group: statistical error well under 2e-2.
    EXPECT_NEAR(sampled, exact, 2e-2);
    // The X0X1 term genuinely contributes (diagonal-only estimation
    // would miss ~0.18 * <X0X1>).
    const double diag_only =
        h.diagonalExpectationFromShots(sv.sample(40000, rng));
    EXPECT_GT(std::abs(sampled - diag_only), 5e-3);
}

TEST(Measurement, YBasisRotationCorrect)
{
    // <Y0> on |+i> = 1 exactly; grouped sampling must recover it.
    quantum::Hamiltonian h(1);
    h.addTerm(1.0, quantum::PauliString::parse("Y0"));
    GroupedEstimator est(h);
    ASSERT_EQ(est.numExecutions(), 1u);

    quantum::QuantumCircuit c(1);
    c.h(0);
    c.gate(quantum::GateType::S, 0);

    auto backend = quantum::makeBackend(1);
    Rng rng(72);
    EXPECT_NEAR(est.estimate(c, *backend, 2000, rng), 1.0, 1e-9);
}

TEST(Measurement, RejectsMeasuredAnsatz)
{
    GroupedEstimator est(quantum::h2());
    quantum::QuantumCircuit c(2);
    c.h(0);
    c.measureAll();
    auto backend = quantum::makeBackend(2);
    Rng rng(73);
    EXPECT_CONFIG_ERROR(est.estimate(c, *backend, 10, rng), "unmeasured");
}
