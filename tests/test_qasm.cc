/**
 * @file
 * Tests of the OpenQASM-style serialization: emit/parse round trips,
 * functional equivalence, hand-written input, and error handling.
 */

#include <gtest/gtest.h>

#include "config_error.hh"
#include "quantum/ansatz.hh"
#include "quantum/graph.hh"
#include "quantum/qasm.hh"
#include "quantum/statevector.hh"

using namespace qtenon::quantum;

TEST(Qasm, EmitContainsHeaderAndGates)
{
    QuantumCircuit c(2);
    c.h(0);
    c.rx(1, ParamRef::literal(0.5));
    c.cz(0, 1);
    c.measureAll();
    const auto text = qasm::emit(c);
    EXPECT_NE(text.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(text.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(text.find("h q[0];"), std::string::npos);
    EXPECT_NE(text.find("rx(0.5) q[1];"), std::string::npos);
    EXPECT_NE(text.find("cz q[0],q[1];"), std::string::npos);
    EXPECT_NE(text.find("measure q[0] -> m[0];"), std::string::npos);
}

TEST(Qasm, RoundTripPreservesStructure)
{
    auto g = Graph::threeRegular(6);
    auto c = ansatz::qaoaMaxCut(g, 2);
    c.setParameters({0.3, 0.7, 1.1, 0.2});

    auto back = qasm::parse(qasm::emit(c));
    EXPECT_EQ(back.numQubits(), c.numQubits());
    ASSERT_EQ(back.numGates(), c.numGates());
    for (std::size_t i = 0; i < c.numGates(); ++i) {
        EXPECT_EQ(back.gates()[i].type, c.gates()[i].type) << i;
        EXPECT_EQ(back.gates()[i].qubit0, c.gates()[i].qubit0) << i;
        EXPECT_EQ(back.gates()[i].qubit1, c.gates()[i].qubit1) << i;
        EXPECT_NEAR(back.resolveAngle(back.gates()[i]),
                    c.resolveAngle(c.gates()[i]), 1e-12)
            << i;
    }
}

TEST(Qasm, RoundTripIsFunctionallyIdentical)
{
    QuantumCircuit c(3);
    c.h(0);
    c.ry(1, ParamRef::literal(1.234567));
    c.cnot(0, 2);
    c.rzz(1, 2, ParamRef::literal(-0.77));

    auto back = qasm::parse(qasm::emit(c));
    StateVector a(3), b(3);
    a.applyCircuit(c);
    b.applyCircuit(back);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0,
                    1e-12);
}

TEST(Qasm, ParsesHandWrittenInput)
{
    const char *text = R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg m[3];
// a comment line
h q[0];
sdg q[1];
t q[2];
rz(3.14159) q[1];
cx q[0],q[1];
measure q[2] -> m[2];
)";
    auto c = qasm::parse(text);
    EXPECT_EQ(c.numQubits(), 3u);
    EXPECT_EQ(c.numGates(), 6u);
    EXPECT_EQ(c.gates()[1].type, GateType::Sdg);
    EXPECT_EQ(c.gates()[4].type, GateType::CNOT);
    EXPECT_EQ(c.gates()[5].type, GateType::Measure);
    EXPECT_NEAR(c.resolveAngle(c.gates()[3]), 3.14159, 1e-9);
}

TEST(Qasm, SymbolicParametersRecordedInHeader)
{
    QuantumCircuit c(1);
    auto p = c.addParameter(0.42, "gamma0");
    c.ry(0, ParamRef::symbol(p));
    const auto text = qasm::emit(c);
    EXPECT_NE(text.find("// parameters: gamma0=0.42"),
              std::string::npos);
    // The emitted gate resolves the symbol to its current value
    // (printed with %.17g, so compare after a parse round trip).
    auto back = qasm::parse(text);
    EXPECT_NEAR(back.resolveAngle(back.gates()[0]), 0.42, 1e-15);
}

TEST(Qasm, RejectsGarbage)
{
    EXPECT_CONFIG_ERROR(qasm::parse("h q[0];"), "no qreg");
    EXPECT_CONFIG_ERROR(qasm::parse("qreg q[2];\nfrobnicate q[0];"),
                        "unsupported");
    EXPECT_CONFIG_ERROR(qasm::parse("qreg q[2];\nrx(1.0 q[0];"),
                        "unterminated");
}
