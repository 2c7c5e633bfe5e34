/**
 * @file
 * Compile-path sweep (Fig. 16 companion, paper Sec. 6.1): modeled
 * host cost of getting a parameter change onto the controller, JIT
 * (full recompile per round) vs dynamic incremental compilation vs
 * incremental with the structural compile served from the
 * content-addressed compile cache — across QAOA ansatz depth.
 *
 * Also *exercises* the cache on real circuits: each depth compiles
 * cold, then recompiles with perturbed parameter values through the
 * cache, and the artifact records whether the cache-served image is
 * byte-identical to the cold compile (it must be, by contract).
 *
 * Writes a machine-checkable artifact (--out, schema
 * "qtenon.compile-sweep.v1") whose criteria block is re-checked by
 * tests/test_artifacts.cc; --smoke exits nonzero unless every
 * criterion holds:
 *   - cached_vs_jit_ok: a cached parameter-only recompile costs at
 *     least 10x fewer modeled host cycles than a JIT recompile at
 *     every depth
 *   - images_identical: cache-served images are byte-identical to
 *     cold compiles
 *   - cache_hits_ok: exactly one structural miss per depth, one hit
 *     per re-submission
 * Wall-clock compile times are reported informationally only (the
 * `_ns` convention: never part of criteria or determinism digests).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "artifact.hh"
#include "bench_util.hh"

#include "core/hash.hh"
#include "isa/pass/compile_cache.hh"
#include "quantum/ansatz.hh"
#include "quantum/graph.hh"
#include "service/json.hh"
#include "sim/option_registry.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

struct Config {
    std::uint32_t qubits = 16;
    std::vector<std::uint32_t> depths = {1, 2, 4, 8};
    std::uint64_t rounds = 100;
    unsigned cacheCapacity = 64;
    std::string outPath;
    bool smoke = false;
};

/** One depth's measurements. */
struct Row {
    std::uint32_t depth = 0;
    std::uint32_t params = 0;
    std::uint64_t entries = 0;
    double jitCycles = 0;    // per parameter change (full recompile)
    double cachedCycles = 0; // per structural cache hit
    double incrCycles = 0;   // per round of q_updates
    double ratio = 0;        // jit / cached
    std::string coldDigest;
    std::string cachedDigest;
    bool hit = false;
    std::uint64_t coldWallNs = 0;
    std::uint64_t cachedWallNs = 0;
};

std::uint64_t
wallNow()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Row
runDepth(std::uint32_t n, std::uint32_t depth,
         isa::CompileCache &cache)
{
    Row row;
    row.depth = depth;

    auto graph = quantum::Graph::threeRegular(n);
    auto c = quantum::ansatz::qaoaMaxCut(graph, depth);
    row.params = c.numParameters();

    isa::QtenonCompiler compiler;

    // Cold compile, straight through the pass pipeline.
    const auto t0 = wallNow();
    const auto cold = compiler.compile(c);
    row.coldWallNs = wallNow() - t0;
    row.entries = cold.totalEntries();
    row.coldDigest = core::fnv1a128(isa::imageBytes(cold)).hex();

    // Prime the cache (structural miss), then re-submit the same
    // ansatz with perturbed parameter values — the optimizer-loop
    // pattern — and let the cache serve the structure.
    bool hit = false;
    cache.compile(c, compiler, &hit);
    std::vector<double> perturbed(row.params);
    for (std::uint32_t p = 0; p < row.params; ++p)
        perturbed[p] = 0.01 * static_cast<double>(p + 1);
    c.setParameters(perturbed);
    const auto t1 = wallNow();
    const auto warm = cache.compile(c, compiler, &row.hit);
    row.cachedWallNs = wallNow() - t1;
    row.cachedDigest = core::fnv1a128(isa::imageBytes(warm)).hex();

    // The cache-served image must match a cold compile of the *new*
    // parameter values bit for bit.
    const auto cold2 = compiler.compile(c);
    row.coldDigest = core::fnv1a128(isa::imageBytes(cold2)).hex();

    row.jitCycles = compiler.initialCompileCycles(cold);
    row.cachedCycles = compiler.cachedCompileCycles(cold);
    row.incrCycles = compiler.incrementalCycles(row.params);
    row.ratio = row.cachedCycles > 0
        ? row.jitCycles / row.cachedCycles : 0.0;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cli::OptionRegistry reg;
    reg.uns("--qubits", "N", "register width (default 16)",
            &cfg.qubits, 1, "--qubits must be a positive integer");
    reg.list<std::uint32_t>("--depths", "a,b,c",
                            "QAOA layer counts swept (default "
                            "1,2,4,8)",
                            &cfg.depths, 1, UINT32_MAX);
    reg.u64("--rounds", "N",
            "optimization rounds modeled (default 100)",
            &cfg.rounds);
    reg.uns("--cache", "N", "compile-cache capacity (default 64)",
            &cfg.cacheCapacity, 0,
            "--cache must be a non-negative integer");
    reg.str("--out", "PATH", "write the JSON artifact",
            &cfg.outPath);
    reg.flag("--smoke",
             "small fast run; exit 1 unless every criterion holds",
             &cfg.smoke);
    reg.parse(argc, argv);
    if (cfg.smoke) {
        cfg.qubits = 8;
        cfg.depths = {1, 2};
        cfg.rounds = 20;
    }

    banner("Compile sweep: JIT vs incremental vs cached-incremental");
    std::printf("QAOA MAX-CUT on a 3-regular graph, %u qubits, "
                "%llu modeled rounds\n\n",
                cfg.qubits,
                static_cast<unsigned long long>(cfg.rounds));
    std::printf("%5s %7s %8s | %12s %12s %12s %7s | %12s %12s %12s\n",
                "depth", "params", "entries", "jit/round",
                "cached/inst", "incr/round", "ratio", "jit total",
                "incr total", "cached total");

    isa::CompileCache cache(cfg.cacheCapacity);
    std::vector<Row> rows;
    for (auto d : cfg.depths)
        rows.push_back(runDepth(cfg.qubits, d, cache));

    bool cachedVsJitOk = true;
    bool imagesIdentical = true;
    for (const auto &row : rows) {
        const double r = static_cast<double>(cfg.rounds);
        const double jit_total = r * row.jitCycles;
        const double incr_total =
            row.jitCycles + r * row.incrCycles;
        const double cached_total =
            row.cachedCycles + r * row.incrCycles;
        std::printf("%5u %7u %8llu | %12.0f %12.0f %12.0f %6.1fx | "
                    "%12.0f %12.0f %12.0f\n",
                    row.depth, row.params,
                    static_cast<unsigned long long>(row.entries),
                    row.jitCycles, row.cachedCycles, row.incrCycles,
                    row.ratio, jit_total, incr_total, cached_total);
        if (row.ratio < 10.0)
            cachedVsJitOk = false;
        if (row.coldDigest != row.cachedDigest || !row.hit)
            imagesIdentical = false;
    }

    const auto cs = cache.stats();
    std::printf("\ncache: %llu misses, %llu hits, %llu inserts "
                "(capacity %zu)\n",
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.inserts),
                cs.capacity);

    using service::json::Value;
    Artifact art("qtenon.compile-sweep.v1");
    Value conf = Value::object();
    conf.set("qubits", std::uint64_t{cfg.qubits});
    Value dv = Value::array();
    for (auto d : cfg.depths)
        dv.asArray().emplace_back(std::uint64_t{d});
    conf.set("depths", std::move(dv));
    conf.set("rounds", cfg.rounds);
    conf.set("cache_capacity", std::uint64_t{cfg.cacheCapacity});
    art.set("config", std::move(conf));
    Value rv = Value::array();
    for (const auto &row : rows) {
        Value o = Value::object();
        o.set("depth", std::uint64_t{row.depth});
        o.set("params", std::uint64_t{row.params});
        o.set("entries", row.entries);
        o.set("jit_cycles_per_round", row.jitCycles);
        o.set("cached_compile_cycles", row.cachedCycles);
        o.set("incremental_cycles_per_round", row.incrCycles);
        o.set("jit_over_cached", row.ratio);
        o.set("image_digest_cold", row.coldDigest);
        o.set("image_digest_cached", row.cachedDigest);
        o.set("cache_hit", row.hit);
        o.set("cold_compile_wall_ns", row.coldWallNs);
        o.set("cached_compile_wall_ns", row.cachedWallNs);
        rv.asArray().push_back(std::move(o));
    }
    art.set("rows", std::move(rv));
    Value cstat = Value::object();
    cstat.set("hits", cs.hits);
    cstat.set("misses", cs.misses);
    cstat.set("inserts", cs.inserts);
    cstat.set("evictions", cs.evictions);
    art.set("cache", std::move(cstat));
    art.set("pipeline", isa::QtenonCompiler().pipelineDescription());
    art.criterion("cached_vs_jit_ok", cachedVsJitOk);
    art.criterion("images_identical", imagesIdentical);
    art.criterion("cache_hits_ok", cs.misses == rows.size() &&
                                       cs.hits == rows.size() &&
                                       cs.evictions == 0);
    return art.finish(cfg.outPath, cfg.smoke);
}
