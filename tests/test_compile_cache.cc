/**
 * @file
 * Compile-cache tests: key composition (parameter values never key,
 * structure always does), the hit == cold byte-identity contract,
 * LRU bounds, single-flight counter determinism under concurrency,
 * the CachedIncremental cost accounting through the executor, the
 * compile_mode JSON round trip, and scheduler byte-identity at
 * --jobs 1 vs 8 with a shared cache.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/qtenon_system.hh"
#include "isa/pass/compile_cache.hh"
#include "quantum/ansatz.hh"
#include "quantum/graph.hh"
#include "runtime/policies.hh"
#include "service/batch_scheduler.hh"
#include "service/json.hh"

using namespace qtenon;
using isa::CompileCache;

namespace {

quantum::QuantumCircuit
ansatz(std::uint32_t n = 6, std::uint32_t layers = 2)
{
    return quantum::ansatz::qaoaMaxCut(
        quantum::Graph::threeRegular(n), layers);
}

service::JobSpec
smallJob(const char *name)
{
    service::JobSpec spec;
    spec.name = name;
    spec.workload.numQubits = 4;
    spec.workload.qaoaLayers = 2;
    spec.driver.shots = 20;
    spec.driver.iterations = 2;
    spec.driver.seed = 42;
    return spec;
}

} // namespace

// ---------------------------------------------------------------
// Key composition.

TEST(CompileCacheKey, ParameterValuesDoNotChangeTheKey)
{
    auto c = ansatz();
    const isa::QtenonCompiler comp;
    const auto k1 = CompileCache::keyOf(c, comp);
    std::vector<double> other(c.numParameters());
    for (std::uint32_t p = 0; p < other.size(); ++p)
        other[p] = 1.0 + p;
    c.setParameters(other);
    EXPECT_EQ(CompileCache::keyOf(c, comp).hex(), k1.hex());
}

TEST(CompileCacheKey, StructureAndLiteralsChangeTheKey)
{
    const isa::QtenonCompiler comp;
    auto base = ansatz();
    const auto k = CompileCache::keyOf(base, comp).hex();

    auto more_gates = base;
    more_gates.h(0);
    EXPECT_NE(CompileCache::keyOf(more_gates, comp).hex(), k);

    // A literal angle is baked into the .program entry, not a
    // regfile slot — it is structure.
    auto lit_a = ansatz();
    lit_a.rz(0, quantum::ParamRef::literal(0.25));
    auto lit_b = ansatz();
    lit_b.rz(0, quantum::ParamRef::literal(0.26));
    EXPECT_NE(CompileCache::keyOf(lit_a, comp).hex(),
              CompileCache::keyOf(lit_b, comp).hex());
}

TEST(CompileCacheKey, PipelineConfigChangesTheKey)
{
    const auto c = ansatz();
    isa::PipelineConfig fused;
    fused.fuseLiteralRotations = true;
    const auto map = quantum::CouplingMap::linear(6);
    isa::PipelineConfig routed;
    routed.coupling = &map;

    const auto k_def =
        CompileCache::keyOf(c, isa::QtenonCompiler()).hex();
    const auto k_fused = CompileCache::keyOf(
        c, isa::QtenonCompiler(isa::CompilerCostModel{}, fused))
        .hex();
    const auto k_routed = CompileCache::keyOf(
        c, isa::QtenonCompiler(isa::CompilerCostModel{}, routed))
        .hex();
    EXPECT_NE(k_fused, k_def);
    EXPECT_NE(k_routed, k_def);
    EXPECT_NE(k_routed, k_fused);
}

// ---------------------------------------------------------------
// The identity contract: a hit is byte-identical to a cold compile
// of the same circuit, including fresh parameter values.

TEST(CompileCacheHit, ServedImageIsByteIdenticalToColdCompile)
{
    CompileCache cache(8);
    const isa::QtenonCompiler comp;
    auto c = ansatz();

    bool hit = true;
    cache.compile(c, comp, &hit);
    EXPECT_FALSE(hit);

    // New parameter values: the structural hit must refill the
    // regfile from the *current* table.
    std::vector<double> next(c.numParameters());
    for (std::uint32_t p = 0; p < next.size(); ++p)
        next[p] = 0.5 - 0.01 * p;
    c.setParameters(next);
    const auto warm = cache.compile(c, comp, &hit);
    EXPECT_TRUE(hit);
    const auto cold = comp.compile(c);
    EXPECT_EQ(isa::imageBytes(warm), isa::imageBytes(cold));

    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

TEST(CompileCacheLru, CapacityBoundsEntriesAndEvictsOldest)
{
    CompileCache cache(2);
    const isa::QtenonCompiler comp;
    auto a = ansatz(4, 1);
    auto b = ansatz(4, 2);
    auto c = ansatz(4, 3);

    cache.compile(a, comp);
    cache.compile(b, comp);
    cache.compile(c, comp); // evicts a (least recently used)
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    bool hit = false;
    cache.compile(b, comp, &hit); // still resident
    EXPECT_TRUE(hit);
    cache.compile(a, comp, &hit); // was evicted: recompiles
    EXPECT_FALSE(hit);
}

TEST(CompileCacheDisabled, ZeroCapacityCompilesWithoutRetention)
{
    CompileCache cache(0);
    EXPECT_FALSE(cache.enabled());
    const isa::QtenonCompiler comp;
    auto c = ansatz();
    const auto image = cache.compile(c, comp);
    EXPECT_EQ(isa::imageBytes(image),
              isa::imageBytes(comp.compile(c)));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

// ---------------------------------------------------------------
// Single-flight: concurrent compiles of one key elect exactly one
// computer; the counters are deterministic at any thread count.

TEST(CompileCacheConcurrency, SingleFlightCountsOneMiss)
{
    CompileCache cache(8);
    const isa::QtenonCompiler comp;
    const auto c = ansatz(8, 3);
    const auto expect = isa::imageBytes(comp.compile(c));

    constexpr int kThreads = 8;
    std::vector<std::string> served(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            auto mine = c;
            served[t] = isa::imageBytes(
                cache.compile(mine, comp));
        });
    }
    for (auto &th : threads)
        th.join();

    for (const auto &bytes : served)
        EXPECT_EQ(bytes, expect);
    const auto s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(s.inserts, 1u);
}

// ---------------------------------------------------------------
// Cost accounting: the cached mode charges lookup + regfile refill,
// never the full pipeline front-end.

TEST(CompileCacheCost, CachedCyclesChargeLookupPlusRefill)
{
    const isa::CompilerCostModel cost;
    const isa::QtenonCompiler comp(cost);
    const auto image = comp.compile(ansatz());
    EXPECT_DOUBLE_EQ(
        comp.cachedCompileCycles(image),
        cost.cacheLookupCycles +
            cost.cyclesPerUpdate *
                static_cast<double>(image.regfileInit.size()));
    EXPECT_LT(comp.cachedCompileCycles(image),
              comp.initialCompileCycles(image));
}

TEST(CompileCacheCost, CachedIncrementalInstallIsCheaper)
{
    auto run = [](runtime::CompileMode mode) {
        core::QtenonConfig cfg;
        cfg.numQubits = 6;
        cfg.software.compile = mode;
        core::QtenonSystem sys(cfg);
        const auto c = ansatz();
        runtime::VqaTrace trace;
        trace.numQubits = 6;
        trace.image = isa::QtenonCompiler().compile(c);
        return sys.executor().execute(trace, sim::usTicks);
    };
    const auto incr = run(runtime::CompileMode::Incremental);
    const auto cached =
        run(runtime::CompileMode::CachedIncremental);
    EXPECT_LT(cached.setup.host, incr.setup.host);
    // Only the install-time host charge differs.
    EXPECT_EQ(cached.setup.commSet, incr.setup.commSet);
    EXPECT_EQ(cached.setup.pulseGen, incr.setup.pulseGen);
}

TEST(CompileMode, NameRoundTrip)
{
    using runtime::CompileMode;
    using runtime::compileModeFromName;
    using runtime::compileModeName;
    for (const auto m :
         {CompileMode::FullRecompile, CompileMode::Incremental,
          CompileMode::CachedIncremental}) {
        bool ok = false;
        EXPECT_EQ(compileModeFromName(compileModeName(m), &ok), m);
        EXPECT_TRUE(ok);
    }
    bool ok = true;
    compileModeFromName("warp-speed", &ok);
    EXPECT_FALSE(ok);
}

// ---------------------------------------------------------------
// Scheduler integration: compile_mode JSON round trip, and the
// byte-identity of batch results at --jobs 1 vs 8 with one shared
// compile cache.

TEST(CompileModeJson, WrittenOnlyWhenNonDefaultAndRoundTrips)
{
    service::SchedulerConfig cfg;
    cfg.workers = 1;
    service::BatchScheduler sched(cfg);
    auto def = smallJob("default-mode");
    auto cached = smallJob("cached-mode");
    cached.qtenon.software.compile =
        runtime::CompileMode::CachedIncremental;
    const auto json =
        service::collect(std::vector{sched.submit(def),
                                     sched.submit(cached)})
            .toJsonString(/*deterministic_only=*/true);

    // The default mode is never written (stored batch results stay
    // byte-stable); the non-default mode is.
    EXPECT_EQ(json.find("\"compile_mode\": \"incremental\""),
              std::string::npos);
    EXPECT_NE(json.find("\"compile_mode\": \"cached-incremental\""),
              std::string::npos);

    const auto store = service::ResultsStore::fromJsonString(json);
    bool saw_cached = false;
    for (const auto &r : store.sorted()) {
        if (r.name == "cached-mode") {
            EXPECT_EQ(r.compileMode, "cached-incremental");
            saw_cached = true;
        }
    }
    EXPECT_TRUE(saw_cached);
    EXPECT_EQ(store.toJsonString(/*deterministic_only=*/true),
              json);
}

TEST(CompileCacheScheduler, SharedCacheIsByteIdenticalAcrossJobs)
{
    auto run = [](unsigned workers, CompileCache *cache) {
        service::SchedulerConfig cfg;
        cfg.workers = workers;
        service::BatchScheduler sched(cfg);
        std::vector<service::JobSpec> jobs;
        for (int j = 0; j < 6; ++j) {
            auto spec = smallJob(
                ("job" + std::to_string(j)).c_str());
            spec.driver.compileCache = cache;
            jobs.push_back(std::move(spec));
        }
        return service::collect(sched.submitAll(std::move(jobs)))
            .toJsonString(/*deterministic_only=*/true);
    };

    CompileCache serial_cache(16), parallel_cache(16);
    const auto serial = run(1, &serial_cache);
    const auto parallel = run(8, &parallel_cache);
    EXPECT_EQ(serial, parallel);
    // All six jobs share one workload structure: one structural
    // compile, five cache hits — at either worker count.
    EXPECT_EQ(serial_cache.stats().misses,
              parallel_cache.stats().misses);
    EXPECT_EQ(serial_cache.stats().hits,
              parallel_cache.stats().hits);
    EXPECT_EQ(serial_cache.stats().misses, 1u);
    EXPECT_EQ(serial_cache.stats().hits, 5u);
    // And caching never changed the result bytes.
    const auto uncached = run(1, nullptr);
    EXPECT_EQ(uncached, serial);
}
