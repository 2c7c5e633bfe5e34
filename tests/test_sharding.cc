/**
 * @file
 * The multi-chip shard layer (src/shard/): partition-map validation,
 * the shard-derived coupling topology, the shard-aware compile-cache
 * key, image splitting, cross-shard SWAP bit-identity against the
 * single-chip lowering, and worker-count determinism of sharded
 * batch jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "config_error.hh"
#include "core/qtenon_system.hh"
#include "isa/compiler.hh"
#include "isa/pass/compile_cache.hh"
#include "isa/pass/pass_manager.hh"
#include "isa/pass/swap_routing.hh"
#include "quantum/statevector.hh"
#include "service/batch_scheduler.hh"
#include "service/json.hh"
#include "shard/sharded_controller.hh"
#include "sim/random.hh"
#include "vqa/driver.hh"

using namespace qtenon;
using quantum::ParamRef;
using quantum::QuantumCircuit;
using quantum::StateVector;
using shard::Shard;
using shard::ShardMap;

// ---------------------------------------------------------------
// Partition-map validation

TEST(ShardMap, UniformPartition)
{
    const auto map = ShardMap::uniform(10, 3);
    ASSERT_EQ(map.numShards(), 3u);
    EXPECT_EQ(map.numQubits(), 10u);
    EXPECT_FALSE(map.isSingle());
    // 10 = 4 + 3 + 3, contiguous.
    EXPECT_EQ(map.shard(0).first, 0u);
    EXPECT_EQ(map.shard(0).count, 4u);
    EXPECT_EQ(map.shard(1).first, 4u);
    EXPECT_EQ(map.shard(1).count, 3u);
    EXPECT_EQ(map.shard(2).first, 7u);
    EXPECT_EQ(map.shard(2).count, 3u);
    EXPECT_EQ(map.shardOf(0), 0u);
    EXPECT_EQ(map.shardOf(3), 0u);
    EXPECT_EQ(map.shardOf(4), 1u);
    EXPECT_EQ(map.shardOf(9), 2u);
    EXPECT_EQ(map.localIndex(4), 0u);
    EXPECT_EQ(map.localIndex(9), 2u);
    EXPECT_FALSE(map.crossShard(0, 3));
    EXPECT_TRUE(map.crossShard(3, 4));
    EXPECT_TRUE(map.crossShard(0, 9));
    EXPECT_EQ(map.canonicalText(), "n=10;s=[4,3,3]");
}

TEST(ShardMap, SingleCoversEverything)
{
    const auto map = ShardMap::single(7);
    EXPECT_TRUE(map.isSingle());
    EXPECT_EQ(map.numShards(), 1u);
    for (std::uint32_t q = 0; q < 7; ++q) {
        EXPECT_EQ(map.shardOf(q), 0u);
        EXPECT_EQ(map.localIndex(q), q);
    }
    EXPECT_EQ(map.canonicalText(), "n=7;s=[7]");
}

TEST(ShardMapValidation, RejectsOverlappingShards)
{
    EXPECT_CONFIG_ERROR((ShardMap(6, {Shard{0, 4}, Shard{2, 4}})),
                        "overlaps");
}

TEST(ShardMapValidation, RejectsGappedShards)
{
    EXPECT_CONFIG_ERROR((ShardMap(6, {Shard{0, 2}, Shard{4, 2}})),
                        "gap before shard");
}

TEST(ShardMapValidation, RejectsEmptyShard)
{
    EXPECT_CONFIG_ERROR((ShardMap(4, {Shard{0, 4}, Shard{4, 0}})), "empty");
}

TEST(ShardMapValidation, RejectsShortCoverage)
{
    EXPECT_CONFIG_ERROR((ShardMap(8, {Shard{0, 4}})), "covers");
}

TEST(ShardMapValidation, RejectsEmptyRegister)
{
    EXPECT_CONFIG_ERROR((ShardMap(0, {})), "empty register");
}

TEST(ShardMapValidation, RejectsMoreUniformShardsThanQubits)
{
    EXPECT_CONFIG_ERROR(ShardMap::uniform(3, 5), "3 qubits");
    EXPECT_CONFIG_ERROR(ShardMap::uniform(3, 0), "zero shards");
}

// ---------------------------------------------------------------
// Derived coupling topology: all-to-all within a shard, exactly one
// boundary coupler between adjacent shards.

TEST(ShardCoupling, BoundaryCouplersOnly)
{
    const auto map = ShardMap::uniform(8, 2);
    const auto cm = map.couplingMap();
    // Intra-shard pairs are all connected.
    for (std::uint32_t a = 0; a < 4; ++a)
        for (std::uint32_t b = a + 1; b < 4; ++b) {
            EXPECT_TRUE(cm.connected(a, b)) << a << "," << b;
            EXPECT_TRUE(cm.connected(a + 4, b + 4));
        }
    // The single boundary coupler: last qubit of shard 0 to first
    // qubit of shard 1.
    EXPECT_TRUE(cm.connected(3, 4));
    // No other cross-shard pair is connected.
    for (std::uint32_t a = 0; a < 4; ++a)
        for (std::uint32_t b = 4; b < 8; ++b)
            if (!(a == 3 && b == 4)) {
                EXPECT_FALSE(cm.connected(a, b)) << a << "," << b;
            }
}

// ---------------------------------------------------------------
// Compile-cache key extension

TEST(ShardCacheKey, DefaultAndSingleShardKeepHistoricalKey)
{
    const isa::PipelineConfig def;
    EXPECT_EQ(def.canonicalText(), "fuse=0;coupling=none");

    // A 1-shard map lowers identically to no map, so it must share
    // the historical key (cache entries stay shared).
    const auto single = ShardMap::single(8);
    isa::PipelineConfig with_single;
    with_single.shardMap = &single;
    EXPECT_EQ(with_single.canonicalText(), def.canonicalText());
}

TEST(ShardCacheKey, PartitionExtendsKey)
{
    const auto map = ShardMap::uniform(8, 2);
    isa::PipelineConfig pipe;
    pipe.shardMap = &map;
    EXPECT_EQ(pipe.canonicalText(),
              "fuse=0;coupling=none;shard={n=8;s=[4,4]}");
}

TEST(ShardCacheKey, DistinguishesShardMaps)
{
    QuantumCircuit c(8);
    for (std::uint32_t q = 0; q + 1 < 8; ++q)
        c.cnot(q, q + 1);

    const isa::QtenonCompiler plain;
    const auto two = ShardMap::uniform(8, 2);
    const auto four = ShardMap::uniform(8, 4);
    isa::PipelineConfig p2, p4;
    p2.shardMap = &two;
    p4.shardMap = &four;
    const isa::QtenonCompiler c2(isa::CompilerCostModel{}, p2);
    const isa::QtenonCompiler c4(isa::CompilerCostModel{}, p4);

    const auto kPlain = isa::CompileCache::keyOf(c, plain);
    const auto k2 = isa::CompileCache::keyOf(c, c2);
    const auto k4 = isa::CompileCache::keyOf(c, c4);
    EXPECT_NE(k2, kPlain);
    EXPECT_NE(k4, kPlain);
    EXPECT_NE(k2, k4);
    // Stable for the same map.
    EXPECT_EQ(k2, isa::CompileCache::keyOf(c, c2));
}

// ---------------------------------------------------------------
// Image splitting

TEST(SplitImage, FiltersAndRebasesPerShard)
{
    const auto map = ShardMap::uniform(6, 2);
    QuantumCircuit c(6);
    const auto p = c.addParameter(0.5, "theta");
    for (std::uint32_t q = 0; q < 6; ++q)
        c.rz(q, ParamRef::symbol(p));
    c.cnot(0, 1);
    c.cnot(4, 5);

    isa::PipelineConfig pipe;
    pipe.shardMap = &map;
    const isa::QtenonCompiler comp(isa::CompilerCostModel{}, pipe);
    const auto image = comp.compile(c);
    ASSERT_EQ(image.numQubits, 6u);

    const auto parts = shard::splitImage(image, map);
    ASSERT_EQ(parts.size(), 2u);
    std::uint64_t entries = 0;
    for (const auto &part : parts) {
        EXPECT_EQ(part.image.numQubits, 3u);
        ASSERT_EQ(part.image.perQubit.size(), 3u);
        entries += part.image.totalEntries();
        // Regfile is replicated in full (global slots stay valid).
        EXPECT_EQ(part.image.paramToReg, image.paramToReg);
        EXPECT_EQ(part.image.regfileInit, image.regfileInit);
        for (const auto &l : part.image.links)
            EXPECT_LT(l.qubit, 3u);
        // Every shard references the shared symbolic parameter.
        EXPECT_FALSE(part.regsUsed.empty());
    }
    EXPECT_EQ(entries, image.totalEntries());
    // Links split without loss.
    EXPECT_EQ(parts[0].image.links.size() +
                  parts[1].image.links.size(),
              image.links.size());
}

TEST(SplitImage, RejectsRegisterMismatch)
{
    const auto map = ShardMap::uniform(6, 2);
    isa::ProgramImage image;
    image.numQubits = 4;
    EXPECT_CONFIG_ERROR(shard::splitImage(image, map), "shard map");
}

// ---------------------------------------------------------------
// Cross-shard routing is a bit-exact permutation: undoing the final
// layout restores the single-chip lowering's sampled bits exactly.

TEST(CrossShardRouting, BitIdenticalToSingleChipLowering)
{
    const auto map = ShardMap::uniform(6, 3);
    QuantumCircuit c(6);
    for (std::uint32_t q = 0; q < 6; ++q)
        c.h(q);
    // Cross-shard entanglers spanning every boundary.
    c.cnot(0, 5);
    c.cz(1, 4);
    c.rzz(2, 3, ParamRef::literal(0.7));
    c.cnot(5, 0);
    c.measureAll();

    isa::pass::CompileContext ctx;
    ctx.circuit = c;
    ctx.shardMap = &map;
    isa::PipelineConfig pipe;
    pipe.shardMap = &map;
    const isa::QtenonCompiler comp(isa::CompilerCostModel{}, pipe);
    comp.buildPipeline().run(ctx);

    ASSERT_GT(ctx.routing.crossShardGates, 0u);
    ASSERT_GT(ctx.routing.swapsInserted, 0u);
    // Every routed two-qubit gate respects the shard topology.
    const auto cm = map.couplingMap();
    for (const auto &g : ctx.routing.circuit.gates()) {
        if (quantum::isTwoQubit(g.type)) {
            EXPECT_TRUE(cm.connected(g.qubit0, g.qubit1));
        }
    }

    // Undo the routing permutation with exact SWAPs and sample: the
    // bits must equal the unrouted circuit's, shot for shot.
    const auto restored =
        isa::pass::withRestoredLayout(ctx.routing);
    StateVector direct(6), sharded(6);
    direct.applyCircuit(c);
    sharded.applyCircuit(restored);
    sim::Rng rngA(1234), rngB(1234);
    const auto shotsA = direct.sample(256, rngA);
    const auto shotsB = sharded.sample(256, rngB);
    EXPECT_EQ(shotsA, shotsB);
}

// ---------------------------------------------------------------
// N=1 composition is a pure passthrough of the single-controller
// replay path.

namespace {

runtime::VqaTrace
smallTrace(std::uint32_t n, quantum::QuantumCircuit &circuit_out)
{
    vqa::WorkloadConfig wl;
    wl.algorithm = vqa::Algorithm::Qaoa;
    wl.numQubits = n;
    auto workload = vqa::Workload::build(wl);
    vqa::DriverConfig dc;
    dc.optimizer = vqa::OptimizerKind::Spsa;
    dc.iterations = 2;
    dc.shots = 64;
    dc.seed = 11;
    vqa::VqaDriver driver(dc);
    auto trace = driver.run(workload);
    circuit_out = workload.circuit;
    return trace;
}

} // namespace

TEST(ShardedController, SingleShardByteIdenticalToDirectReplay)
{
    quantum::QuantumCircuit circuit(1);
    const auto trace = smallTrace(6, circuit);

    core::QtenonConfig chip;
    chip.numQubits = 6;
    core::QtenonSystem direct(chip);
    const auto ref = direct.execute(trace, circuit);
    const auto refTotal = ref.total();

    shard::ShardedConfig cfg;
    cfg.map = ShardMap::single(6);
    cfg.chip = chip;
    shard::ShardedController sc(cfg);
    const auto run = sc.execute(circuit, trace);

    ASSERT_EQ(run.shards.size(), 1u);
    EXPECT_EQ(run.total.quantum, refTotal.quantum);
    EXPECT_EQ(run.total.pulseGen, refTotal.pulseGen);
    EXPECT_EQ(run.total.comm, refTotal.comm);
    EXPECT_EQ(run.total.host, refTotal.host);
    EXPECT_EQ(run.total.hostBusy, refTotal.hostBusy);
    EXPECT_EQ(run.total.wall, refTotal.wall);
    EXPECT_EQ(run.total.commSet, refTotal.commSet);
    EXPECT_EQ(run.total.commUpdate, refTotal.commUpdate);
    EXPECT_EQ(run.total.commAcquire, refTotal.commAcquire);
    EXPECT_EQ(run.shotDuration, direct.shotDuration(circuit));
    EXPECT_EQ(run.crossShardGates, 0u);
    EXPECT_EQ(run.shards[0].xlinkMessages, 0u);
}

// ---------------------------------------------------------------
// Multi-shard runs are deterministic: same composition, same
// results, at any batch worker count.

namespace {

std::map<std::string, double>
shardedJobMetrics(unsigned workers)
{
    std::vector<service::JobSpec> jobs;
    for (const double loss : {0.0, 0.2}) {
        service::JobSpec spec;
        spec.name = "shard-determinism";
        spec.deriveSeedFromJobId = false;
        spec.custom = [loss](service::JobContext &ctx) {
            quantum::QuantumCircuit circuit(1);
            const auto trace = smallTrace(6, circuit);
            shard::ShardedConfig cfg;
            cfg.map = ShardMap::uniform(6, 2);
            cfg.chip.numQubits = 6;
            fault::FaultSpec fs;
            if (loss > 0.0) {
                fs.sites["xchip0"].drop = loss;
                fs.sites["xchip1"].drop = loss;
            }
            fault::FaultInjector inj(fs, fault::mix64(ctx.seed));
            cfg.injector = &inj;
            shard::ShardedController sc(std::move(cfg));
            const auto run = sc.execute(circuit, trace);
            auto &m = ctx.result.metrics;
            m["loss"] = loss;
            m["wall"] = static_cast<double>(run.total.wall);
            m["comm"] = static_cast<double>(run.total.comm);
            m["shot"] = static_cast<double>(run.shotDuration);
            m["cross"] =
                static_cast<double>(run.crossShardGates);
            for (const auto &st : run.shards) {
                const auto p =
                    "s" + std::to_string(st.index) + ".";
                m[p + "wall"] =
                    static_cast<double>(st.total.wall);
                m[p + "bytes"] =
                    static_cast<double>(st.xlinkBytes);
                m[p + "retrans"] =
                    static_cast<double>(st.xlinkRetransmits);
            }
            inj.exportCounters(m);
        };
        jobs.push_back(std::move(spec));
    }
    service::SchedulerConfig cfg;
    cfg.workers = workers;
    service::BatchScheduler sched(cfg);
    const auto handles = sched.submitAll(std::move(jobs));
    const auto store = service::collect(handles);
    std::map<std::string, double> merged;
    for (std::size_t i = 0; i < handles.size(); ++i) {
        const auto r = store.get(handles[i].id);
        EXPECT_EQ(r.status, service::JobStatus::Ok) << r.error;
        for (const auto &kv : r.metrics)
            merged["job" + std::to_string(i) + "." + kv.first] =
                kv.second;
    }
    return merged;
}

} // namespace

TEST(ShardedController, ByteIdenticalAtAnyWorkerCount)
{
    const auto serial = shardedJobMetrics(1);
    const auto parallel = shardedJobMetrics(8);
    EXPECT_EQ(serial, parallel);
    EXPECT_FALSE(serial.empty());
}
