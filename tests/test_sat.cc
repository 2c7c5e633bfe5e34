/**
 * @file
 * Tests of the MAX-2-SAT workload: clause semantics, the Ising
 * reduction's energy <-> violation-count identity, ansatz shape,
 * and instance generation.
 */

#include <gtest/gtest.h>

#include "config_error.hh"
#include "quantum/sat.hh"
#include "quantum/statevector.hh"

using namespace qtenon::quantum;
using qtenon::sim::Rng;

TEST(Max2Sat, ClauseSatisfaction)
{
    Max2Sat f(3);
    f.addClause(0, false, 1, false); // x0 OR x1
    f.addClause(1, true, 2, false);  // !x1 OR x2

    EXPECT_EQ(f.satisfiedCount(0b000), 1u); // !x1 true
    EXPECT_EQ(f.satisfiedCount(0b001), 2u);
    EXPECT_EQ(f.satisfiedCount(0b010), 1u); // x1 kills clause 2
    EXPECT_EQ(f.satisfiedCount(0b110), 2u);
    EXPECT_EQ(f.bestSatisfiableBruteForce(), 2u);
}

TEST(Max2Sat, IsingEnergyCountsViolations)
{
    // The Ising Hamiltonian's eigenvalue on a basis state must equal
    // the number of violated clauses.
    Rng rng(31);
    auto f = Max2Sat::random(6, 12, rng);
    auto h = f.toIsing();

    for (std::uint64_t a = 0; a < 64; ++a) {
        double energy = h.identityOffset();
        for (const auto &t : h.terms())
            energy += t.coefficient *
                t.string.diagonalEigenvalue(a);
        const double violations = static_cast<double>(
            f.numClauses() - f.satisfiedCount(a));
        EXPECT_NEAR(energy, violations, 1e-9) << "assignment " << a;
    }
}

TEST(Max2Sat, IsingGroundStateIsOptimum)
{
    Rng rng(32);
    auto f = Max2Sat::random(8, 20, rng);
    auto h = f.toIsing();

    double best_energy = 1e18;
    for (std::uint64_t a = 0; a < 256; ++a) {
        double e = h.identityOffset();
        for (const auto &t : h.terms())
            e += t.coefficient * t.string.diagonalEigenvalue(a);
        best_energy = std::min(best_energy, e);
    }
    const double best_sat =
        static_cast<double>(f.bestSatisfiableBruteForce());
    EXPECT_NEAR(best_energy,
                static_cast<double>(f.numClauses()) - best_sat, 1e-9);
}

TEST(Max2Sat, AnsatzShape)
{
    Max2Sat f(4);
    f.addClause(0, false, 1, false);
    f.addClause(2, true, 3, false);
    auto c = f.ansatz(3);
    EXPECT_EQ(c.numQubits(), 4u);
    EXPECT_EQ(c.numParameters(), 6u); // 2 per layer
    auto s = c.stats();
    // Per layer: 4 fields + 2 couplings + 4 mixers.
    EXPECT_EQ(s.twoQubitGates, 3u * 2u);
    EXPECT_EQ(s.measurements, 4u);
}

TEST(Max2Sat, RandomInstancesAreWellFormed)
{
    Rng rng(33);
    auto f = Max2Sat::random(10, 30, rng);
    EXPECT_EQ(f.numVars(), 10u);
    EXPECT_EQ(f.numClauses(), 30u);
    for (const auto &c : f.clauses()) {
        EXPECT_LT(c.var0, 10u);
        EXPECT_LT(c.var1, 10u);
        EXPECT_NE(c.var0, c.var1);
    }
}

TEST(Max2Sat, RejectsDegenerateClauses)
{
    Max2Sat f(4);
    EXPECT_CONFIG_ERROR(f.addClause(0, false, 0, true), "single variable");
    EXPECT_CONFIG_ERROR(f.addClause(0, false, 9, false), "out of range");
}
