/**
 * @file
 * Tests of coupling maps and the pipeline SWAP router
 * (isa/pass/swap_routing): path arithmetic,
 * routing legality (every 2q gate lands on a coupler), functional
 * equivalence with the unrouted circuit, and depth costs.
 */

#include <gtest/gtest.h>

#include "config_error.hh"
#include "isa/pass/swap_routing.hh"
#include "quantum/mapping.hh"
#include "quantum/statevector.hh"
#include "quantum/timing.hh"
#include "sim/random.hh"

using namespace qtenon::quantum;
using qtenon::sim::Rng;

TEST(CouplingMap, LinearStructure)
{
    auto m = CouplingMap::linear(5);
    EXPECT_TRUE(m.connected(0, 1));
    EXPECT_TRUE(m.connected(3, 4));
    EXPECT_FALSE(m.connected(0, 2));
    EXPECT_EQ(m.distance(0, 4), 4u);
    EXPECT_EQ(m.shortestPath(1, 3),
              (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(CouplingMap, GridStructure)
{
    auto m = CouplingMap::grid(3, 4);
    EXPECT_EQ(m.numQubits(), 12u);
    EXPECT_TRUE(m.connected(0, 1));  // row neighbour
    EXPECT_TRUE(m.connected(0, 4));  // column neighbour
    EXPECT_FALSE(m.connected(0, 5)); // diagonal
    // Manhattan distance on the grid.
    EXPECT_EQ(m.distance(0, 11), 5u);
}

TEST(CouplingMap, AllToAllDistanceIsOne)
{
    auto m = CouplingMap::allToAll(6);
    for (std::uint32_t a = 0; a < 6; ++a) {
        for (std::uint32_t b = a + 1; b < 6; ++b)
            EXPECT_EQ(m.distance(a, b), 1u);
    }
}

TEST(CouplingMap, RejectsBadCouplers)
{
    CouplingMap m(4);
    EXPECT_CONFIG_ERROR(m.addCoupler(0, 7), "outside");
    EXPECT_CONFIG_ERROR(m.addCoupler(2, 2), "self");
    m.addCoupler(0, 1);
    EXPECT_CONFIG_ERROR(m.addCoupler(1, 0), "duplicate");
}

TEST(Router, AdjacentGatesPassThrough)
{
    QuantumCircuit c(3);
    c.h(0);
    c.cz(0, 1);
    c.measureAll();
    auto res = qtenon::isa::pass::routeCircuit(c, CouplingMap::linear(3));
    EXPECT_EQ(res.swapsInserted, 0u);
    EXPECT_EQ(res.circuit.numGates(), c.numGates());
}

TEST(Router, DistantGateInsertsSwaps)
{
    QuantumCircuit c(5);
    c.cz(0, 4);
    auto res = qtenon::isa::pass::routeCircuit(c, CouplingMap::linear(5));
    // Distance 4 -> three swaps bring qubit 0 next to qubit 4.
    EXPECT_EQ(res.swapsInserted, 3u);
    // Each SWAP is three CNOTs plus the CZ itself.
    EXPECT_EQ(res.circuit.numGates(), 3u * 3u + 1u);
}

TEST(Router, EveryTwoQubitGateLandsOnACoupler)
{
    Rng rng(9);
    auto map = CouplingMap::grid(2, 3);
    QuantumCircuit c(6);
    for (int g = 0; g < 30; ++g) {
        auto a = static_cast<std::uint32_t>(rng.index(6));
        auto b = static_cast<std::uint32_t>(rng.index(6));
        if (a == b)
            continue;
        c.cz(a, b);
    }
    auto res = qtenon::isa::pass::routeCircuit(c, map);
    for (const auto &g : res.circuit.gates()) {
        if (isTwoQubit(g.type)) {
            EXPECT_TRUE(map.connected(g.qubit0, g.qubit1))
                << g.qubit0 << "," << g.qubit1;
        }
    }
}

TEST(Router, PreservesParameterTable)
{
    QuantumCircuit c(4);
    auto p = c.addParameter(0.77, "mine");
    c.rzz(0, 3, ParamRef::symbol(p));
    auto res = qtenon::isa::pass::routeCircuit(c, CouplingMap::linear(4));
    ASSERT_EQ(res.circuit.numParameters(), 1u);
    EXPECT_DOUBLE_EQ(res.circuit.parameter(0), 0.77);
    EXPECT_EQ(res.circuit.parameterName(0), "mine");
    // The routed RZZ still references the symbol.
    bool found = false;
    for (const auto &g : res.circuit.gates()) {
        if (g.type == GateType::RZZ) {
            EXPECT_TRUE(g.param.isSymbolic());
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Router, FunctionallyEquivalentOnRandomCircuits)
{
    Rng rng(10);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit c(4);
        for (int g = 0; g < 12; ++g) {
            const auto a = static_cast<std::uint32_t>(rng.index(4));
            const auto b = (a + 1 + static_cast<std::uint32_t>(
                                        rng.index(3))) % 4;
            switch (rng.index(4)) {
              case 0:
                c.ry(a, ParamRef::literal(rng.uniform(-2, 2)));
                break;
              case 1:
                c.h(a);
                break;
              case 2:
                c.cz(a, b);
                break;
              default:
                c.rzz(a, b, ParamRef::literal(rng.uniform(-2, 2)));
                break;
            }
        }
        auto res = qtenon::isa::pass::routeCircuit(c, CouplingMap::linear(4));

        StateVector orig(4), routed(4);
        orig.applyCircuit(c);
        routed.applyCircuit(res.circuit);
        // Logical qubit q ended on physical finalLayout[q]; its
        // marginal must be preserved.
        for (std::uint32_t q = 0; q < 4; ++q) {
            EXPECT_NEAR(orig.marginalOne(q),
                        routed.marginalOne(res.finalLayout[q]), 1e-9)
                << "trial " << trial << " qubit " << q;
        }
    }
}

TEST(Router, ReadoutMapFollowsMeasurement)
{
    QuantumCircuit c(4);
    c.x(0);
    c.cz(0, 3); // forces movement on a line
    c.measureAll();
    auto res = qtenon::isa::pass::routeCircuit(c, CouplingMap::linear(4));
    // Sample the routed circuit; logical qubit 0 must read 1 at its
    // mapped readout bit.
    StateVector sv(4);
    sv.applyCircuit(res.circuit);
    EXPECT_NEAR(sv.marginalOne(res.readoutMap[0]), 1.0, 1e-9);
}

TEST(Router, RoutingIncreasesDepthOnSparseMaps)
{
    QuantumCircuit c(6);
    for (std::uint32_t q = 0; q < 6; ++q)
        c.h(q);
    for (std::uint32_t a = 0; a < 6; ++a)
        c.cz(a, (a + 3) % 6);

    auto all = qtenon::isa::pass::routeCircuit(c, CouplingMap::allToAll(6));
    auto line = qtenon::isa::pass::routeCircuit(c, CouplingMap::linear(6));
    QuantumTimingModel timing;
    EXPECT_GT(timing.schedule(line.circuit).duration,
              timing.schedule(all.circuit).duration);
    EXPECT_GT(line.swapsInserted, 0u);
    EXPECT_EQ(all.swapsInserted, 0u);
}
