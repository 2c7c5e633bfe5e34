/**
 * @file
 * Randomized property tests across modules: invariants that must
 * hold for arbitrary inputs, exercised with seeded random sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "controller/barrier.hh"
#include "controller/pipeline.hh"
#include "controller/program_entry.hh"
#include "controller/rbq.hh"
#include "isa/compiler.hh"
#include "isa/pass/pass_manager.hh"
#include "isa/pass/swap_routing.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"
#include "quantum/ansatz.hh"
#include "quantum/qasm.hh"
#include "quantum/statevector.hh"
#include "random_circuit.hh"
#include "shard/partition.hh"
#include "sim/random.hh"

using namespace qtenon;
using namespace qtenon::sim;

// ---------------------------------------------------------------
// Angle codec: quantization is monotone and bounded-error.

TEST(Property, AngleCodecMonotoneAndBounded)
{
    Rng rng(41);
    for (int i = 0; i < 2000; ++i) {
        const double a = rng.uniform(-4 * M_PI, 4 * M_PI - 1e-9);
        const double b = a + rng.uniform(1e-6, 0.1);
        if (b >= 4 * M_PI)
            continue;
        const auto ca = controller::ProgramEntry::encodeAngle(a);
        const auto cb = controller::ProgramEntry::encodeAngle(b);
        EXPECT_LE(ca, cb) << a << " vs " << b;
        EXPECT_NEAR(controller::ProgramEntry::decodeAngle(ca), a,
                    8.0 * M_PI / (1 << 27) + 1e-12);
    }
}

// ---------------------------------------------------------------
// RBQ: any arrival permutation is released in issue order.

TEST(Property, RbqReleasesInIssueOrderForAnyPermutation)
{
    Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        controller::ReorderBufferQueue<int> rbq;
        const int n = 1 + static_cast<int>(rng.index(30));
        std::vector<std::uint8_t> tags(n);
        for (int i = 0; i < n; ++i)
            tags[i] = static_cast<std::uint8_t>(i % 32);
        for (auto t : tags)
            rbq.expect(t);

        // Arrivals in a random order of distinct issue slots.
        std::vector<int> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), rng.engine());

        // Payload = issue index; arrivals must not release a later
        // issue before an earlier one. Careful: the same tag may be
        // reused; arrivals for one tag must come in that tag's issue
        // order, so sort each tag's arrival positions.
        std::map<std::uint8_t, std::vector<int>> per_tag;
        for (int idx : order)
            per_tag[tags[idx]].push_back(idx);
        for (auto &[t, v] : per_tag)
            std::sort(v.begin(), v.end());
        std::map<std::uint8_t, std::size_t> cursor;

        std::vector<int> released;
        auto deliver = [&](std::uint8_t, const int &v) {
            released.push_back(v);
        };
        for (int idx : order) {
            const auto tag = tags[idx];
            const int payload = per_tag[tag][cursor[tag]++];
            rbq.arrive(tag, payload, deliver);
        }
        ASSERT_EQ(released.size(), static_cast<std::size_t>(n));
        EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
        EXPECT_EQ(rbq.pending(), 0u);
    }
}

// ---------------------------------------------------------------
// Barrier: a random mark set answers queries like a reference model.

TEST(Property, BarrierMatchesReferenceBitset)
{
    Rng rng(44);
    for (int trial = 0; trial < 20; ++trial) {
        controller::MemoryBarrier barrier;
        std::vector<bool> ref(4096, false);
        for (int m = 0; m < 40; ++m) {
            const auto addr = rng.index(4000);
            const auto size = 1 + rng.index(96);
            barrier.markSynced(addr, size);
            for (std::uint64_t b = addr;
                 b < addr + size && b < ref.size(); ++b) {
                ref[b] = true;
            }
        }
        for (int q = 0; q < 200; ++q) {
            const auto addr = rng.index(4000);
            const auto size = 1 + rng.index(64);
            bool expect = true;
            for (std::uint64_t b = addr; b < addr + size; ++b) {
                if (b >= ref.size() || !ref[b]) {
                    expect = false;
                    break;
                }
            }
            EXPECT_EQ(barrier.query(addr, size), expect)
                << "addr " << addr << " size " << size;
        }
    }
}

// ---------------------------------------------------------------
// Cache: hits + misses equals accesses; contents match a reference
// set simulation on the same trace.

TEST(Property, CacheCountsAreConsistent)
{
    memory::Dram dram;
    memory::CacheConfig cfg;
    cfg.sizeBytes = 1024; // 16 lines, tiny on purpose
    cfg.associativity = 2;
    memory::Cache cache("c", ClockDomain(1000), cfg, &dram);
    Tick now = 0;

    Rng rng(45);
    const int accesses = 500;
    for (int i = 0; i < accesses; ++i) {
        memory::MemPacket p;
        p.addr = rng.index(64) * 64; // 64 distinct lines
        p.cmd = rng.coin(0.3) ? memory::MemCmd::Write
                              : memory::MemCmd::Read;
        // Each access arrives once the previous one has completed.
        now = cache.access(p, now).done;
    }
    EXPECT_EQ(cache.hits.value() + cache.misses.value(),
              static_cast<std::uint64_t>(accesses));
    EXPECT_GT(cache.hits.value(), 0u);
    EXPECT_GT(cache.misses.value(), 0u);
}

// ---------------------------------------------------------------
// Pipeline: conservation invariants over random programs.

TEST(Property, PipelineConservesEntries)
{
    Rng rng(46);
    for (int trial = 0; trial < 10; ++trial) {
        EventQueue eq;
        memory::QccLayout layout;
        controller::QuantumControllerCache qcc(
            eq, "qcc", ClockDomain::fromHz(200'000'000), layout);
        controller::SkipLookupTable slt(layout.numQubits);
        controller::PulsePipeline pipe(qcc, slt);

        std::vector<std::uint64_t> work;
        const auto n_entries = 1 + rng.index(200);
        for (std::uint64_t i = 0; i < n_entries; ++i) {
            controller::ProgramEntry e;
            e.type = static_cast<std::uint8_t>(8 + rng.index(3));
            e.data = static_cast<std::uint32_t>(rng.index(1u << 20));
            const auto q = static_cast<std::uint32_t>(rng.index(8));
            const auto idx = static_cast<std::uint32_t>(i % 1024);
            const auto qaddr = layout.programAddr(q, idx);
            qcc.writeProgram(qaddr, e);
            work.push_back(qaddr);
        }

        controller::PipelineResult r;
        pipe.run(work, r);
        // Every entry is processed exactly once.
        EXPECT_EQ(r.entriesProcessed, work.size());
        // Pulses never exceed entries; hits+misses = SLT consults.
        EXPECT_LE(r.pulsesGenerated, r.entriesProcessed);
        EXPECT_EQ(r.sltHits + r.sltMisses + r.skippedValid,
                  r.entriesProcessed);
        // Afterwards every entry is Valid with a valid pulse.
        for (auto qaddr : work) {
            const auto e = qcc.readProgram(qaddr);
            EXPECT_EQ(e.status, controller::EntryStatus::Valid);
            EXPECT_TRUE(qcc.pulseValid(e.qaddr));
        }
    }
}

// ---------------------------------------------------------------
// QAOA edge waves: the transpiled RZZ schedule touches each qubit at
// most once per wave (checked through circuit depth).

TEST(Property, QaoaWavesBoundDepth)
{
    Rng rng(47);
    for (std::uint32_t n : {8u, 16u, 32u}) {
        auto g = quantum::Graph::erdosRenyi(n, 0.2, rng);
        if (g.numEdges() == 0)
            continue;
        auto c = quantum::ansatz::qaoaMaxCut(g, 1, false);
        // Greedy matching of E edges on max-degree-d graphs needs at
        // most 2d-1 waves; depth = H + waves + RX.
        std::vector<std::uint32_t> degree(n, 0);
        for (const auto &e : g.edges()) {
            ++degree[e.u];
            ++degree[e.v];
        }
        const auto d = *std::max_element(degree.begin(), degree.end());
        EXPECT_LE(c.stats().depth, 1u + (2u * d - 1u) + 1u);
    }
}

// ---------------------------------------------------------------
// QASM serialization: emit -> parse is the identity on the gate
// list, for arbitrary circuits over the full supported gate set.

namespace {

/** Uniformly random angle including awkward magnitudes: emitted
 *  with %.17g, every double must survive the text round trip
 *  exactly. */
double
randomAngle(Rng &rng)
{
    switch (rng.index(4)) {
      case 0: return rng.uniform(-3.2, 3.2);
      case 1: return rng.uniform(-1e-9, 1e-9);
      case 2: return rng.uniform(-1e6, 1e6);
      default: return 0.0;
    }
}

quantum::QuantumCircuit
randomStaticCircuit(Rng &rng, std::uint32_t n, std::size_t len)
{
    using quantum::GateType;
    static const GateType one_q[] = {
        GateType::I, GateType::X,   GateType::Y, GateType::Z,
        GateType::H, GateType::S,   GateType::Sdg, GateType::T,
    };
    quantum::QuantumCircuit c(n);
    for (std::size_t i = 0; i < len; ++i) {
        const auto q0 = static_cast<std::uint32_t>(rng.index(n));
        auto q1 = static_cast<std::uint32_t>(rng.index(n));
        while (q1 == q0)
            q1 = static_cast<std::uint32_t>(rng.index(n));
        switch (rng.index(5)) {
          case 0:
            c.gate(one_q[rng.index(std::size(one_q))], q0);
            break;
          case 1: { // parameterized single-qubit rotation
            const GateType rot[] = {GateType::RX, GateType::RY,
                                    GateType::RZ};
            c.rotation(rot[rng.index(3)], q0,
                       quantum::ParamRef::literal(randomAngle(rng)));
            break;
          }
          case 2:
            c.rzz(q0, q1,
                  quantum::ParamRef::literal(randomAngle(rng)));
            break;
          case 3:
            rng.coin(0.5) ? c.cz(q0, q1) : c.cnot(q0, q1);
            break;
          default:
            c.measure(q0);
            break;
        }
    }
    return c;
}

quantum::DynamicCircuit
randomDynamicCircuit(Rng &rng, std::uint32_t n, std::uint32_t cbits,
                     std::size_t len)
{
    using quantum::GateType;
    quantum::DynamicCircuit c(n, cbits);
    for (std::size_t i = 0; i < len; ++i) {
        const auto q0 = static_cast<std::uint32_t>(rng.index(n));
        auto q1 = static_cast<std::uint32_t>(rng.index(n));
        while (q1 == q0)
            q1 = static_cast<std::uint32_t>(rng.index(n));
        const auto cbit =
            static_cast<std::uint32_t>(rng.index(cbits));
        const bool value = rng.coin(0.5);
        switch (rng.index(6)) {
          case 0:
            c.gate(GateType::H, q0);
            break;
          case 1: // conditional parameterized gate
            c.gateIf(GateType::RY, q0, cbit, value,
                     randomAngle(rng));
            break;
          case 2: // conditional two-qubit gate
            if (rng.coin(0.5))
                c.gate2If(GateType::CNOT, q0, q1, cbit, value);
            else
                c.gate2If(GateType::RZZ, q0, q1, cbit, value,
                          randomAngle(rng));
            break;
          case 3:
            c.gate2(GateType::CZ, q0, q1);
            break;
          case 4:
            c.measure(q0, cbit);
            break;
          default:
            c.reset(q0);
            break;
        }
    }
    return c;
}

} // namespace

TEST(Property, QasmRoundTripPreservesArbitraryCircuits)
{
    Rng rng(0xA5);
    for (int trial = 0; trial < 50; ++trial) {
        const auto n =
            static_cast<std::uint32_t>(2 + rng.index(7));
        const auto c =
            randomStaticCircuit(rng, n, 1 + rng.index(40));

        const auto back = quantum::qasm::parse(quantum::qasm::emit(c));
        ASSERT_EQ(back.numQubits(), c.numQubits()) << "trial "
                                                   << trial;
        ASSERT_EQ(back.numGates(), c.numGates()) << "trial " << trial;
        for (std::size_t i = 0; i < c.numGates(); ++i) {
            const auto &g = c.gates()[i];
            const auto &r = back.gates()[i];
            EXPECT_EQ(r.type, g.type) << "trial " << trial
                                      << " gate " << i;
            EXPECT_EQ(r.qubit0, g.qubit0);
            if (quantum::isTwoQubit(g.type)) {
                EXPECT_EQ(r.qubit1, g.qubit1);
            }
            if (quantum::isParameterized(g.type)) {
                // %.17g round-trips every double exactly.
                EXPECT_EQ(back.resolveAngle(r), c.resolveAngle(g))
                    << "trial " << trial << " gate " << i;
            }
        }
    }
}

TEST(Property, QasmRoundTripResolvesSymbolicParameters)
{
    // Symbolic parameters are emitted as their resolved values: the
    // round trip preserves semantics (angles), not the symbol table.
    Rng rng(0x51);
    for (int trial = 0; trial < 20; ++trial) {
        quantum::QuantumCircuit c(3);
        const auto p0 = c.addParameter(rng.uniform(-3, 3), "theta");
        const auto p1 = c.addParameter(rng.uniform(-3, 3), "phi");
        c.h(0);
        c.rotation(quantum::GateType::RY, 0,
                   quantum::ParamRef::symbol(p0));
        c.rotation2(quantum::GateType::RZZ, 0, 1,
                    quantum::ParamRef::symbol(p1));
        c.rotation(quantum::GateType::RZ, 2,
                   quantum::ParamRef::symbol(p0));
        c.measureAll();

        const auto back =
            quantum::qasm::parse(quantum::qasm::emit(c));
        ASSERT_EQ(back.numGates(), c.numGates());
        for (std::size_t i = 0; i < c.numGates(); ++i) {
            if (quantum::isParameterized(c.gates()[i].type)) {
                EXPECT_EQ(back.resolveAngle(back.gates()[i]),
                          c.resolveAngle(c.gates()[i]))
                    << "trial " << trial << " gate " << i;
            }
        }
    }
}

TEST(Property, DynamicQasmRoundTripPreservesFeedForward)
{
    Rng rng(0xD1);
    for (int trial = 0; trial < 50; ++trial) {
        const auto n =
            static_cast<std::uint32_t>(2 + rng.index(4));
        const auto cbits =
            static_cast<std::uint32_t>(1 + rng.index(4));
        const auto c =
            randomDynamicCircuit(rng, n, cbits, 1 + rng.index(30));

        const auto back = quantum::qasm::parseDynamic(
            quantum::qasm::emitDynamic(c));
        ASSERT_EQ(back.numQubits(), c.numQubits());
        ASSERT_EQ(back.numCbits(), c.numCbits());
        ASSERT_EQ(back.ops().size(), c.ops().size()) << "trial "
                                                     << trial;
        for (std::size_t i = 0; i < c.ops().size(); ++i) {
            const auto &o = c.ops()[i];
            const auto &r = back.ops()[i];
            EXPECT_EQ(r.kind, o.kind) << "trial " << trial << " op "
                                      << i;
            EXPECT_EQ(r.gate.type, o.gate.type);
            EXPECT_EQ(r.gate.qubit0, o.gate.qubit0);
            if (quantum::isTwoQubit(o.gate.type)) {
                EXPECT_EQ(r.gate.qubit1, o.gate.qubit1);
            }
            EXPECT_EQ(r.gate.param.value, o.gate.param.value)
                << "trial " << trial << " op " << i;
            EXPECT_EQ(r.cbit, o.cbit);
            EXPECT_EQ(r.condBit, o.condBit) << "trial " << trial
                                            << " op " << i;
            EXPECT_EQ(r.condValue, o.condValue);
        }

        // Semantics, not just syntax: same seed, same outcome.
        Rng ra(trial + 1), rb(trial + 1);
        EXPECT_EQ(c.run(ra).word(), back.run(rb).word())
            << "trial " << trial;
    }
}

// ---------------------------------------------------------------
// Sharded lowering: for any random circuit and any K-way contiguous
// partition, routing through the shard topology and undoing the
// final layout yields the identical measurement distribution (and
// identical sampled bits) as the identity 1-shard lowering.

TEST(Property, ShardedLoweringPreservesMeasurementDistribution)
{
    Rng rng(0x5AAD);
    for (int trial = 0; trial < 20; ++trial) {
        const auto n =
            static_cast<std::uint32_t>(4 + rng.index(5)); // 4..8
        const auto k = static_cast<std::uint32_t>(
            2 + rng.index(n / 2 - 1)); // 2..n/2
        const auto map = shard::ShardMap::uniform(n, k);
        auto c = tests::randomCircuit(n, 20 + rng.index(20), rng);
        c.measureAll();

        // K-way shard-aware lowering through the pass pipeline.
        isa::pass::CompileContext ctx;
        ctx.circuit = c;
        ctx.shardMap = &map;
        isa::PipelineConfig pipe;
        pipe.shardMap = &map;
        const isa::QtenonCompiler comp(isa::CompilerCostModel{},
                                       pipe);
        comp.buildPipeline().run(ctx);

        // The identity 1-shard map must lower to the circuit
        // itself (no routing).
        const auto ident = shard::ShardMap::single(n);
        isa::pass::CompileContext ictx;
        ictx.circuit = c;
        ictx.shardMap = &ident;
        isa::PipelineConfig ipipe;
        ipipe.shardMap = &ident;
        const isa::QtenonCompiler icomp(isa::CompilerCostModel{},
                                        ipipe);
        icomp.buildPipeline().run(ictx);
        EXPECT_EQ(ictx.routing.swapsInserted, 0u)
            << "trial " << trial;

        const auto restored =
            isa::pass::withRestoredLayout(ctx.routing);
        quantum::StateVector one(n), sharded(n);
        one.applyCircuit(ictx.circuit);
        sharded.applyCircuit(restored);

        // Identical distribution, bit for bit: same seed, same
        // sampled words.
        Rng ra(1000 + trial), rb(1000 + trial);
        EXPECT_EQ(one.sample(128, ra), sharded.sample(128, rb))
            << "trial " << trial << " n=" << n << " k=" << k;
    }
}
