/**
 * @file
 * Unit tests for graph generation / MAX-CUT arithmetic and the three
 * ansatz builders' shapes.
 */

#include <gtest/gtest.h>

#include "config_error.hh"
#include "quantum/ansatz.hh"
#include "quantum/graph.hh"
#include "sim/random.hh"

using namespace qtenon::quantum;
using qtenon::sim::Rng;

TEST(Graph, RingHasNEdges)
{
    auto g = Graph::ring(6);
    EXPECT_EQ(g.numEdges(), 6u);
    EXPECT_TRUE(g.hasEdge(0, 5));
    EXPECT_TRUE(g.hasEdge(2, 3));
    EXPECT_FALSE(g.hasEdge(0, 3));
}

TEST(Graph, ThreeRegularDegrees)
{
    auto g = Graph::threeRegular(8);
    EXPECT_EQ(g.numEdges(), 12u); // 8 * 3 / 2
    std::vector<int> degree(8, 0);
    for (const auto &e : g.edges()) {
        ++degree[e.u];
        ++degree[e.v];
    }
    for (auto d : degree)
        EXPECT_EQ(d, 3);
}

TEST(Graph, CutValue)
{
    auto g = Graph::ring(4);
    EXPECT_EQ(g.cutValue(0b0000), 0u);
    EXPECT_EQ(g.cutValue(0b0101), 4u); // alternating = full cut
    EXPECT_EQ(g.cutValue(0b0001), 2u);
}

TEST(Graph, BruteForceMaxCut)
{
    auto ring6 = Graph::ring(6);
    EXPECT_EQ(ring6.maxCutBruteForce(), 6u);
    auto ring5 = Graph::ring(5);
    EXPECT_EQ(ring5.maxCutBruteForce(), 4u); // odd ring
}

TEST(Graph, ErdosRenyiDeterministicPerSeed)
{
    Rng r1(11), r2(11);
    auto a = Graph::erdosRenyi(10, 0.4, r1);
    auto b = Graph::erdosRenyi(10, 0.4, r2);
    EXPECT_EQ(a.numEdges(), b.numEdges());
}

TEST(GraphDeath, RejectsBadEdges)
{
    Graph g(4);
    EXPECT_CONFIG_ERROR(g.addEdge(0, 9), "outside");
    EXPECT_CONFIG_ERROR(g.addEdge(1, 1), "self-loop");
    g.addEdge(0, 1);
    EXPECT_CONFIG_ERROR(g.addEdge(1, 0), "duplicate");
}

TEST(Ansatz, QaoaShape)
{
    auto g = Graph::threeRegular(8);
    auto c = ansatz::qaoaMaxCut(g, 5);
    EXPECT_EQ(c.numQubits(), 8u);
    // 2 parameters per layer.
    EXPECT_EQ(c.numParameters(), 10u);
    auto s = c.stats();
    // 8 H + 5*8 RX + 8 measure one-qubit slots; 5*12 RZZ.
    EXPECT_EQ(s.twoQubitGates, 60u);
    EXPECT_EQ(s.oneQubitGates, 8u + 40u);
    EXPECT_EQ(s.measurements, 8u);
    // Every RZZ/RX references a symbolic parameter.
    EXPECT_EQ(s.parameterizedGates, 60u + 40u);
}

TEST(Ansatz, HardwareEfficientShape)
{
    auto c = ansatz::hardwareEfficient(6, 3);
    EXPECT_EQ(c.numParameters(), 18u); // n per layer
    auto s = c.stats();
    EXPECT_EQ(s.oneQubitGates, 18u);
    EXPECT_EQ(s.twoQubitGates, 3u * 5u); // CZ ladder n-1 per layer
    EXPECT_EQ(s.measurements, 6u);
}

TEST(Ansatz, QnnShape)
{
    std::vector<double> features{0.1, 0.2, 0.3};
    auto c = ansatz::qnn(4, features, 2);
    EXPECT_EQ(c.numParameters(), 8u); // n per trainable layer
    auto s = c.stats();
    // 4 encoding RX + 8 trainable RY.
    EXPECT_EQ(s.oneQubitGates, 12u);
    EXPECT_EQ(s.twoQubitGates, 2u * 3u);
    // Encoding RX are literal, so not counted as parameterized.
    EXPECT_EQ(s.parameterizedGates, 8u);
}

TEST(Ansatz, CzLadderParallelizes)
{
    // Even pairs then odd pairs: depth contribution of one layer's
    // entanglers should be 2, not n-1.
    auto c = ansatz::hardwareEfficient(8, 1, false);
    auto s = c.stats();
    EXPECT_EQ(s.depth, 1u + 2u); // RY layer + two CZ waves
}
