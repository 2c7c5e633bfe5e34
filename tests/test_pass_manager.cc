/**
 * @file
 * Pass-manager pipeline tests: per-pass units on hand-built
 * circuits, the registration-time ordering invariant, the pipeline
 * vs frozen-reference-emit identity on randomized circuits, the
 * --dump-after debug surface, and the pipeline description string.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config_error.hh"
#include "isa/compiler.hh"
#include "isa/pass/compile_cache.hh"
#include "isa/pass/edge_coloring.hh"
#include "isa/pass/entry_packing.hh"
#include "isa/pass/gate_fusion.hh"
#include "isa/pass/pass_manager.hh"
#include "isa/pass/slt_layout.hh"
#include "isa/pass/swap_routing.hh"
#include "quantum/ansatz.hh"
#include "quantum/graph.hh"
#include "random_circuit.hh"
#include "sim/random.hh"

using namespace qtenon;
using namespace qtenon::isa::pass;
using quantum::GateType;
using quantum::ParamRef;

namespace {

/** rz(a); rz(b) on one qubit with literal angles — fusible. */
quantum::QuantumCircuit
literalRotations()
{
    quantum::QuantumCircuit c(2);
    c.rz(0, ParamRef::literal(0.25));
    c.rz(0, ParamRef::literal(0.50));
    c.rz(1, ParamRef::literal(0.75));
    return c;
}

} // namespace

// ---------------------------------------------------------------
// Per-pass units.

TEST(GateFusionPass, MergesAdjacentLiteralSameAxisRotations)
{
    auto c = literalRotations();
    const auto removed = GateFusion::fuse(c);
    EXPECT_EQ(removed, 1u);
    ASSERT_EQ(c.numGates(), 2u);
    EXPECT_DOUBLE_EQ(c.resolveAngle(c.gates()[0]), 0.75);
}

TEST(GateFusionPass, NeverFusesSymbolicRotations)
{
    // Fusing regfile-slot references would break the one-slot-per-
    // parameter q_update contract, so symbolic rotations must
    // survive even when adjacent on the same axis and qubit.
    quantum::QuantumCircuit c(1);
    const auto p0 = c.addParameter(0.1);
    const auto p1 = c.addParameter(0.2);
    c.rz(0, ParamRef::symbol(p0));
    c.rz(0, ParamRef::symbol(p1));
    EXPECT_EQ(GateFusion::fuse(c), 0u);
    EXPECT_EQ(c.numGates(), 2u);
}

TEST(GateFusionPass, DisabledPassLeavesCircuitAlone)
{
    CompileContext ctx;
    ctx.circuit = literalRotations();
    GateFusion(/*enabled=*/false).run(ctx);
    EXPECT_EQ(ctx.circuit.numGates(), 3u);
    GateFusion(/*enabled=*/true).run(ctx);
    EXPECT_EQ(ctx.circuit.numGates(), 2u);
}

TEST(SwapRoutingPass, NullCouplingRecordsIdentityMetadata)
{
    CompileContext ctx;
    ctx.circuit = quantum::QuantumCircuit(3);
    ctx.circuit.cnot(0, 2); // non-adjacent on a line; legal here
    SwapRouting().run(ctx);
    EXPECT_EQ(ctx.routing.swapsInserted, 0u);
    ASSERT_EQ(ctx.routing.finalLayout.size(), 3u);
    for (std::uint32_t q = 0; q < 3; ++q) {
        EXPECT_EQ(ctx.routing.finalLayout[q], q);
        EXPECT_EQ(ctx.routing.readoutMap[q], q);
    }
    EXPECT_EQ(ctx.routing.circuit.numGates(),
              ctx.circuit.numGates());
}

TEST(SwapRoutingPass, ConstrainedCouplingInsertsSwaps)
{
    const auto map = quantum::CouplingMap::linear(4);
    CompileContext ctx;
    ctx.circuit = quantum::QuantumCircuit(4);
    ctx.circuit.cnot(0, 3);
    ctx.coupling = &map;
    SwapRouting().run(ctx);
    EXPECT_GT(ctx.routing.swapsInserted, 0u);
    // The routed circuit replaces the working IR for later passes.
    EXPECT_GT(ctx.circuit.numGates(), 1u);
}

TEST(EdgeColoringPass, LayersNeverShareAQubit)
{
    sim::Rng rng(7);
    const auto c = tests::randomCircuit(6, 60, rng);
    const auto sched = EdgeColoredScheduling::schedule(c);

    std::size_t scheduled = 0;
    for (const auto &layer : sched.layers) {
        std::vector<bool> used(c.numQubits(), false);
        for (const auto gi : layer) {
            const auto &g = c.gates()[gi];
            ASSERT_FALSE(used[g.qubit0]);
            used[g.qubit0] = true;
            if (quantum::isTwoQubit(g.type)) {
                ASSERT_FALSE(used[g.qubit1]);
                used[g.qubit1] = true;
            }
            ++scheduled;
        }
    }
    EXPECT_EQ(scheduled, c.numGates());
}

TEST(SltLayoutPass, CountsStaticAndDynamicParameters)
{
    quantum::QuantumCircuit c(2);
    const auto p = c.addParameter(0.3);
    c.rz(0, ParamRef::literal(0.25)); // static pulse parameter
    c.rz(1, ParamRef::symbol(p));     // dynamic: regfile slot
    const auto plan = SltLayout::analyse(c, /*ways=*/2);
    EXPECT_GE(plan.distinctStatic, 1u);
    EXPECT_EQ(plan.dynamicEntries, 1u);
    EXPECT_EQ(plan.setLoad.size(), 128u);
}

// ---------------------------------------------------------------
// Pipeline identity: the registered pipeline at default flags must
// reproduce the frozen reference emit (every paper-figure image
// depends on this layout) byte for byte.

TEST(Pipeline, DefaultPipelineMatchesReferenceEmit)
{
    sim::Rng rng(1234);
    for (int trial = 0; trial < 20; ++trial) {
        auto c = tests::randomCircuit(5, 40, rng);
        const auto p = c.addParameter(0.5);
        c.rz(0, ParamRef::symbol(p));
        c.measureAll();

        const auto piped = isa::QtenonCompiler().compile(c);
        const auto reference = ProgramEntryPacking::pack(c);
        EXPECT_EQ(isa::imageBytes(piped),
                  isa::imageBytes(reference))
            << "trial " << trial;
    }
}

TEST(Pipeline, DescriptionListsPassesInOrder)
{
    const auto pm = isa::QtenonCompiler().buildPipeline();
    EXPECT_EQ(pm.description(),
              "gate-fusion|swap-routing|edge-coloring|"
              "slt-layout|entry-packing");
    EXPECT_TRUE(pm.hasPass("entry-packing"));
    EXPECT_FALSE(pm.hasPass("constant-folding"));
    EXPECT_EQ(isa::QtenonCompiler().pipelineDescription(),
              pm.description());
}

// ---------------------------------------------------------------
// Ordering invariant: registration fatals (ConfigError) when a pass
// reads a field no earlier pass produces.

TEST(PipelineDeathTest, AddingConsumerBeforeProducerFatals)
{
    EXPECT_CONFIG_ERROR(
        {
            PassManager pm;
            // edge-coloring reads Routing; nothing produced it.
            pm.add(std::make_unique<EdgeColoredScheduling>());
        },
        "reads a field");
}

TEST(PipelineDeathTest, RunningImagelessPipelineFatals)
{
    EXPECT_CONFIG_ERROR(
        {
            PassManager pm;
            pm.add(std::make_unique<SwapRouting>());
            CompileContext ctx;
            ctx.circuit = quantum::QuantumCircuit(2);
            pm.run(ctx);
        },
        "no image-producing pass");
}

// ---------------------------------------------------------------
// --dump-after surface: the hook fires exactly once, after the
// named pass, with the deterministic context dump.

TEST(DumpAfter, HookReceivesDeterministicDump)
{
    quantum::QuantumCircuit c(2);
    const auto p = c.addParameter(0.5);
    c.h(0);
    c.rz(1, ParamRef::symbol(p));
    c.measureAll();

    setDumpAfter("entry-packing");
    std::vector<std::pair<std::string, std::string>> dumps;
    auto pm = isa::QtenonCompiler().buildPipeline();
    pm.setDumpHook([&](const std::string &pass,
                       const std::string &text) {
        dumps.emplace_back(pass, text);
    });
    CompileContext ctx;
    ctx.circuit = c;
    pm.run(ctx);
    setDumpAfter("");

    ASSERT_EQ(dumps.size(), 1u);
    EXPECT_EQ(dumps[0].first, "entry-packing");
    const auto &text = dumps[0].second;
    // Every section of the context dump, with the image populated
    // (the dump fired after packing).
    EXPECT_NE(text.find("circuit: "), std::string::npos);
    EXPECT_NE(text.find("coupling: all-to-all"), std::string::npos);
    EXPECT_NE(text.find("swaps: 0"), std::string::npos);
    EXPECT_NE(text.find("layers: "), std::string::npos);
    EXPECT_NE(text.find("image: qubits=2"), std::string::npos);
    EXPECT_NE(text.find("regs=1"), std::string::npos);

    // Dumps are deterministic: a second identical run produces the
    // identical text.
    setDumpAfter("entry-packing");
    std::string again;
    auto pm2 = isa::QtenonCompiler().buildPipeline();
    pm2.setDumpHook([&](const std::string &,
                        const std::string &t) { again = t; });
    CompileContext ctx2;
    ctx2.circuit = c;
    pm2.run(ctx2);
    setDumpAfter("");
    EXPECT_EQ(again, text);
}

TEST(DumpAfter, UnmatchedPassNameNeverFires)
{
    setDumpAfter("no-such-pass");
    bool fired = false;
    auto pm = isa::QtenonCompiler().buildPipeline();
    pm.setDumpHook(
        [&](const std::string &, const std::string &) {
            fired = true;
        });
    CompileContext ctx;
    ctx.circuit = quantum::QuantumCircuit(2);
    ctx.circuit.h(0);
    pm.run(ctx);
    setDumpAfter("");
    EXPECT_FALSE(fired);
}

// ---------------------------------------------------------------
// PipelineConfig: the non-default knobs change what the pipeline
// emits and how it canonicalizes (the compile-cache key suffix).

TEST(PipelineConfig, CanonicalTextCoversEveryKnob)
{
    isa::PipelineConfig def;
    EXPECT_EQ(def.canonicalText(), "fuse=0;coupling=none");

    const auto map = quantum::CouplingMap::linear(3);
    isa::PipelineConfig cfg;
    cfg.fuseLiteralRotations = true;
    cfg.coupling = &map;
    EXPECT_EQ(cfg.canonicalText(),
              "fuse=1;coupling={n=3;e=[0-1,1-2]}");
}

TEST(PipelineConfig, FusionShrinksTheImage)
{
    auto c = literalRotations();
    c.measureAll();
    isa::PipelineConfig fused;
    fused.fuseLiteralRotations = true;
    const auto plain = isa::QtenonCompiler().compile(c);
    const auto small =
        isa::QtenonCompiler(isa::CompilerCostModel{}, fused)
            .compile(c);
    EXPECT_LT(small.totalEntries(), plain.totalEntries());
}
