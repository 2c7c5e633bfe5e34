/**
 * @file
 * The bench-artifact gate. One checker per document type re-reads
 * what a bench wrote: the five `--smoke` bench schemas, fault_sweep's
 * `qtenon.batch-results.v1` export and fig13's Chrome trace. The
 * gate case checks every file named in QTENON_ARTIFACTS
 * (':'-separated); ctest runs the producers as fixtures and sets it
 * (tests/CMakeLists.txt). Mutation cases show that each checker
 * rejects a regressed, incomplete or mislabelled document, and the
 * CLI cases pin the reject paths of the benches' numeric and list
 * parsers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/sweep_cli.hh"
#include "service/json.hh"
#include "service/results_store.hh"
#include "sim/logging.hh"
#include "trace_schema.hh"

using namespace qtenon;
using service::json::Value;

namespace {

void
require(bool cond, const std::string &what)
{
    if (!cond)
        throw std::runtime_error(what);
}

/** Every named criterion and `ok` are true. */
void
requireCriteria(const Value &doc,
                std::initializer_list<const char *> keys)
{
    const Value &criteria = doc.at("criteria");
    for (const char *key : keys)
        require(criteria.at(key).asBool(),
                std::string("criterion ") + key + " failed");
    require(doc.at("ok").asBool(), "ok is false");
}

// Each checker returns an error description or "". A missing member
// or a wrongly typed value throws, and checkArtifact reports that
// the same way.

std::string
checkCompileSweep(const Value &doc)
{
    requireCriteria(doc, {"cached_vs_jit_ok", "images_identical",
                          "cache_hits_ok"});
    const auto &rows = doc.at("rows").asArray();
    require(rows.size() >= 2, "sweep must cover >= 2 ansatz depths");
    for (const auto &row : rows) {
        require(row.at("jit_over_cached").asDouble() >= 10.0,
                "a cached recompile is not >= 10x cheaper than JIT");
        require(row.at("image_digest_cold").asString() ==
                    row.at("image_digest_cached").asString(),
                "a cache-served image differs from the cold compile");
        require(row.at("cache_hit").asBool(),
                "a re-submission missed the cache");
    }
    require(doc.at("pipeline").asString() ==
                "gate-fusion|swap-routing|edge-coloring|"
                "slt-layout|entry-packing",
            "unexpected pass pipeline");
    return "";
}

std::string
checkShardSweep(const Value &doc)
{
    requireCriteria(doc, {"jobs_invariant", "single_shard_identity",
                          "cross_shard_routing", "faults_injected"});
    const Value &conf = doc.at("config");
    std::uint64_t maxQubits = 0;
    for (const auto &q : conf.at("qubits").asArray())
        maxQubits = std::max(maxQubits, q.asUint());
    require(maxQubits >= 320, "sweep must reach 320 qubits");
    std::set<std::uint64_t> shards;
    for (const auto &k : conf.at("shards").asArray())
        shards.insert(k.asUint());
    for (const std::uint64_t want : {1, 2, 4, 8})
        require(shards.count(want),
                "missing " + std::to_string(want) + "-shard config");
    const auto &rows = doc.at("rows").asArray();
    require(rows.size() >= shards.size(),
            "fewer rows than shard configs");
    for (const auto &row : rows) {
        require(row.at("rerun_matches").asBool(),
                "a one-worker rerun changed a digest");
        require(row.at("shards").asUint() == 1 ||
                    row.at("cross_shard_gates").asUint() > 0,
                "a multi-shard config routed no cross-shard gate");
        require(row.at("digest").asString().size() == 32,
                "a digest is not 128 bits of hex");
    }
    return "";
}

std::string
checkQecSweep(const Value &doc)
{
    requireCriteria(doc, {"jobs_invariant", "tight_beats_decoupled",
                          "vector_reduces_rocc",
                          "vector_moves_elements"});
    const Value &ansatz = doc.at("ansatz");
    require(ansatz.at("qubits").asUint() >= 32,
            "the analytic count must use a >= 32-qubit ansatz");
    require(ansatz.at("vector_total").asUint() <
                ansatz.at("scalar_total").asUint(),
            "the vector lowering does not reduce the ansatz count");
    bool sawScalar = false, sawVector = false;
    for (const auto &row : doc.at("rows").asArray()) {
        (row.at("vector").asBool() ? sawVector : sawScalar) = true;
        require(row.at("tight_miss_rate").asDouble() <
                    row.at("decoupled_miss_rate").asDouble(),
                "the tight path does not miss less than the "
                "decoupled one");
        require(row.at("rerun_matches").asBool(),
                "a one-worker rerun changed a digest");
    }
    require(sawScalar && sawVector, "rows must cover both ISA modes");
    return "";
}

std::string
checkLoadgen(const Value &doc)
{
    requireCriteria(doc, {"warm_hit_rate_ok", "warm_p50_improved",
                          "determinism_ok", "clean_drain"});
    require(doc.at("config").at("clients").asUint() >= 4,
            "loadgen must exercise >= 4 concurrent clients");
    for (const char *pass : {"cold", "warm"}) {
        const Value &p = doc.at(pass);
        const std::string where = std::string(pass) + " pass: ";
        require(p.at("requests").asUint() > 0, where + "no requests");
        require(p.at("errors").asUint() == 0, where + "errors");
        require(p.at("p50_ns").asDouble() > 0.0, where + "p50 is 0");
        require(p.at("p99_ns").asDouble() >= p.at("p50_ns").asDouble(),
                where + "p99 < p50");
        require(p.at("p999_ns").asDouble() >=
                    p.at("p99_ns").asDouble(),
                where + "p999 < p99");
    }
    require(doc.at("warm").at("cache_hits").asUint() > 0,
            "the warm pass had no cache hits");
    require(doc.at("warm").at("p50_ns").asDouble() <
                doc.at("cold").at("p50_ns").asDouble(),
            "warm p50 is not below cold p50");
    return "";
}

std::string
checkBenchStatevector(const Value &doc)
{
    requireCriteria(doc, {"meets_2x_target", "threads_scaling_ok"});
    const Value &criteria = doc.at("criteria");
    for (const char *key :
         {"apply1q_fused_speedup", "meets_2x_target", "simd_backend",
          "simd_vs_scalar_speedup", "hw_concurrency",
          "threads_4_vs_threads_1", "threads_scaling_target",
          "threads_scaling_ok"})
        require(criteria.find(key), std::string("criteria lacks ") + key);
    require(criteria.at("hw_concurrency").asUint() >= 1,
            "hw_concurrency is 0");
    std::set<std::string> names;
    for (const auto &row : doc.at("results").asArray()) {
        const std::string &name = row.at("name").asString();
        names.insert(name);
        require(row.find("gates"), name + ": no gate count");
        require(row.at("ns_per_gate").asDouble() > 0.0,
                name + ": ns_per_gate is not positive");
        if (name.rfind("threads_", 0) == 0)
            require(row.at("vs_threads_1").asDouble() > 0.0,
                    name + ": vs_threads_1 is not positive");
        if (name.find("_reference") == std::string::npos)
            require(row.at("vs_reference").asDouble() > 0.0,
                    name + ": vs_reference is not positive");
    }
    for (const char *required :
         {"apply1q_reference", "apply1q_pairloop",
          "apply1q_pairloop_simd", "apply1q_pairloop_fused",
          "diagonal_reference", "diagonal_phase_pass",
          "diagonal_phase_pass_simd", "threads_1", "threads_2",
          "threads_4"})
        require(names.count(required),
                std::string("missing row ") + required);
    return "";
}

/** fault_sweep --json: every job Ok with rocket and baseline runs,
 *  and a faulted job that paid retransmissions. */
std::string
checkFaultSweep(const Value &doc)
{
    const auto &results = doc.at("results").asArray();
    require(!results.empty(), "no job results");
    bool sawFaulted = false;
    for (const auto &row : results) {
        const auto r = service::jobResultFromJson(row);
        require(r.status == service::JobStatus::Ok,
                "job '" + r.name + "' " +
                    service::jobStatusName(r.status));
        require(r.system("rocket") && r.system("baseline"),
                "job '" + r.name + "' lacks a rocket or baseline run");
        const auto drops = r.metrics.find("fault.eth.drop");
        if (drops != r.metrics.end() && drops->second > 0) {
            sawFaulted = true;
            require(r.metrics.at("fault.eth.retransmits") > 0.0,
                    "job '" + r.name + "' dropped but never "
                    "retransmitted");
        }
    }
    require(sawFaulted, "no job injected eth drops");
    return "";
}

/** fig13 --trace-out: the schema subset, spans for all four
 *  controller pipeline stages and a per-worker job row. */
std::string
checkTrace(const Value &doc)
{
    if (auto err = tests::validateTraceDocument(doc); !err.empty())
        return err;
    std::set<std::string> names;
    bool workerRow = false;
    for (const auto &ev : doc.at("traceEvents").asArray()) {
        names.insert(ev.at("name").asString());
        if (ev.at("ph").asString() == "M" &&
            ev.at("name").asString() == "thread_name" &&
            ev.at("args").at("name").asString().rfind("worker", 0) ==
                0)
            workerRow = true;
    }
    for (const char *stage :
         {"stage1.fetch", "stage2.decode-slt", "stage3.pgu-dispatch",
          "stage4.arbiter"})
        require(names.count(stage), std::string("no span ") + stage);
    require(workerRow, "no per-worker thread_name row");
    return "";
}

/** The type a checker is keyed by: the document's schema, or
 *  "chrome-trace" for a trace-event document (which has none). */
std::string
documentType(const Value &doc)
{
    if (!doc.isObject())
        return "";
    if (const Value *schema = doc.find("schema"))
        return schema->isString() ? schema->asString() : "";
    return doc.find("traceEvents") ? "chrome-trace" : "";
}

/** Check @p doc with its type's checker; "" when it passes. A
 *  document of no known type fails. */
std::string
checkArtifact(const Value &doc)
{
    using Checker = std::string (*)(const Value &);
    static const std::map<std::string, Checker> checkers = {
        {"qtenon.compile-sweep.v1", checkCompileSweep},
        {"qtenon.shard-sweep.v1", checkShardSweep},
        {"qtenon.qec-sweep.v1", checkQecSweep},
        {"qtenon.daemon-loadgen.v1", checkLoadgen},
        {"qtenon.bench-statevector.v2", checkBenchStatevector},
        {"qtenon.batch-results.v1", checkFaultSweep},
        {"chrome-trace", checkTrace},
    };
    const std::string type = documentType(doc);
    const auto it = checkers.find(type);
    if (it == checkers.end())
        return "unknown document type '" + type + "'";
    try {
        return it->second(doc);
    } catch (const std::exception &e) {
        return type + ": " + e.what();
    }
}

/** The paths QTENON_ARTIFACTS names; empty when it is unset. */
std::vector<std::string>
listedArtifacts()
{
    std::vector<std::string> out;
    const char *list = std::getenv("QTENON_ARTIFACTS");
    std::stringstream paths(list ? list : "");
    for (std::string path; std::getline(paths, path, ':');)
        if (!path.empty())
            out.push_back(path);
    return out;
}

Value
readDocument(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream text;
    text << is.rdbuf();
    return Value::parse(text.str());
}

} // namespace

TEST(ArtifactGate, ListedArtifactsPass)
{
    const auto paths = listedArtifacts();
    if (paths.empty())
        GTEST_SKIP() << "QTENON_ARTIFACTS not set";
    for (const auto &path : paths)
        EXPECT_EQ(checkArtifact(readDocument(path)), "") << path;
}

TEST(ArtifactGate, SeedReachesJobs)
{
    // The shard and QEC sweeps are produced at the default seed (7)
    // and at --seed 5. Every row's digest must differ between the
    // two, or the seed never reached that row's job.
    std::map<std::string, std::string> byName;
    for (const auto &path : listedArtifacts())
        byName[path.substr(path.find_last_of('/') + 1)] = path;
    std::size_t pairs = 0;
    for (const std::string stem : {"shard_sweep", "qec_sweep"}) {
        const auto seed7 = byName.find(stem + ".json");
        const auto seed5 = byName.find(stem + "_seed5.json");
        if (seed7 == byName.end() && seed5 == byName.end())
            continue;
        ASSERT_TRUE(seed7 != byName.end() && seed5 != byName.end())
            << stem << ": only one of the seed pair is listed";
        ++pairs;
        const Value a = readDocument(seed7->second);
        const Value b = readDocument(seed5->second);
        EXPECT_NE(a.at("config").at("seed").asUint(),
                  b.at("config").at("seed").asUint())
            << stem;
        const auto &rowsA = a.at("rows").asArray();
        const auto &rowsB = b.at("rows").asArray();
        ASSERT_EQ(rowsA.size(), rowsB.size()) << stem;
        for (std::size_t i = 0; i < rowsA.size(); ++i)
            EXPECT_NE(rowsA[i].at("digest").asString(),
                      rowsB[i].at("digest").asString())
                << stem << " row " << i;
    }
    if (pairs == 0)
        GTEST_SKIP() << "no seed pair listed in QTENON_ARTIFACTS";
}

TEST(ArtifactGate, QecExportLabelsItsWorkload)
{
    // The qec fixture also writes its --json export beside its
    // artifact. Each row must name what the job ran (a repetition
    // code, no optimizer), not the VQA workload its spec carries.
    std::size_t rows = 0;
    for (const auto &path : listedArtifacts()) {
        const auto dir = path.substr(0, path.find_last_of('/') + 1);
        if (path != dir + "qec_sweep.json")
            continue;
        const Value doc = readDocument(dir + "qec_sweep_results.json");
        for (const auto &row : doc.at("results").asArray()) {
            const auto r = service::jobResultFromJson(row);
            EXPECT_EQ(r.algorithm, "repetition-code") << r.name;
            EXPECT_EQ(r.optimizer, "none") << r.name;
            ++rows;
        }
        EXPECT_GT(rows, 0u) << "the qec export holds no job";
        return;
    }
    GTEST_SKIP() << "qec_sweep.json not listed in QTENON_ARTIFACTS";
}

// -----------------------------------------------------------------
// Mutations: from a known-good document, each mutation must make
// its checker report an error.

namespace {

/** Set the node at a '/'-separated @p path ("rows/0/cache_hit") to
 *  a value, or remove it (an object member or an array element). */
struct Mutation {
    std::string path;
    std::optional<Value> value = std::nullopt;
};

void
apply(Value &doc, const Mutation &m)
{
    Value *parent = nullptr, *node = &doc;
    std::string part;
    std::stringstream parts(m.path);
    while (std::getline(parts, part, '/')) {
        parent = node;
        if (node->isArray()) {
            node = &node->asArray().at(std::stoul(part));
            continue;
        }
        auto &members = node->asObject();
        const auto it = std::find_if(
            members.begin(), members.end(),
            [&](const auto &kv) { return kv.first == part; });
        if (it == members.end())
            throw std::runtime_error("no node " + m.path);
        node = &it->second;
    }
    if (m.value) {
        *node = *m.value;
    } else if (parent->isArray()) {
        auto &elems = parent->asArray();
        elems.erase(elems.begin() + std::stol(part));
    } else {
        std::erase_if(parent->asObject(),
                      [&](const auto &kv) { return kv.first == part; });
    }
}

/** @p good passes; each of @p mutations, plus setting any boolean
 *  criterion or `ok` false and relabelling the schema as unknown or
 *  as another bench's, makes it fail. */
void
expectMutationsRejected(const Value &good,
                        std::vector<Mutation> mutations)
{
    ASSERT_EQ(checkArtifact(good), "");
    if (const Value *criteria = good.find("criteria"))
        for (const auto &[key, v] : criteria->asObject())
            if (v.isBool())
                mutations.push_back({"criteria/" + key, false});
    if (good.find("ok"))
        mutations.push_back({"ok", false});
    if (const Value *schema = good.find("schema"))
        for (const char *other :
             {"qtenon.unknown.v1", "qtenon.compile-sweep.v0",
              "qtenon.shard-sweep.v1", "qtenon.compile-sweep.v1"})
            if (schema->asString() != other)
                mutations.push_back({"schema", other});
    for (const auto &m : mutations) {
        Value doc = good;
        apply(doc, m);
        EXPECT_NE(checkArtifact(doc), "")
            << m.path << (m.value ? " = " + m.value->dump() : " removed");
    }
}

} // namespace

TEST(ArtifactMutations, CompileSweep)
{
    const char *row = R"({"jit_over_cached": 40.0, "cache_hit": true,
        "image_digest_cold": "ab", "image_digest_cached": "ab"})";
    expectMutationsRejected(
        Value::parse(std::string(R"({
        "schema": "qtenon.compile-sweep.v1", "config": {"qubits": 8},
        "rows": [)") + row + "," + row + R"(],
        "pipeline": "gate-fusion|swap-routing|edge-coloring|slt-layout|entry-packing",
        "criteria": {"cached_vs_jit_ok": true, "images_identical": true,
                     "cache_hits_ok": true},
        "ok": true})"),
        {{"rows/1"}, {"pipeline"}, {"pipeline", "gate-fusion"},
         {"rows/0/jit_over_cached", 9.5},
         {"rows/1/image_digest_cached", "cd"},
         {"rows/0/cache_hit", false}});
}

TEST(ArtifactMutations, ShardSweep)
{
    expectMutationsRejected(Value::parse(R"({
        "schema": "qtenon.shard-sweep.v1",
        "config": {"qubits": [64, 320], "shards": [1, 2, 4, 8]},
        "rows": [
          {"shards": 1, "cross_shard_gates": 0, "rerun_matches": true,
           "digest": "0123456789abcdef0123456789abcdef"},
          {"shards": 2, "cross_shard_gates": 9, "rerun_matches": true,
           "digest": "0123456789abcdef0123456789abcdef"},
          {"shards": 4, "cross_shard_gates": 9, "rerun_matches": true,
           "digest": "0123456789abcdef0123456789abcdef"},
          {"shards": 8, "cross_shard_gates": 9, "rerun_matches": true,
           "digest": "0123456789abcdef0123456789abcdef"}],
        "criteria": {"jobs_invariant": true, "single_shard_identity": true,
                     "cross_shard_routing": true, "faults_injected": true},
        "ok": true})"),
        {{"config/shards/3"}, {"config/qubits/1"}, {"rows"}, {"rows/3"},
         {"rows/2/rerun_matches", false},
         {"rows/3/cross_shard_gates", 0u}, {"rows/1/digest", "ab"}});
}

TEST(ArtifactMutations, QecSweep)
{
    expectMutationsRejected(Value::parse(R"({
        "schema": "qtenon.qec-sweep.v1",
        "rows": [
          {"vector": false, "tight_miss_rate": 0.0,
           "decoupled_miss_rate": 0.5, "rerun_matches": true},
          {"vector": true, "tight_miss_rate": 0.0,
           "decoupled_miss_rate": 0.5, "rerun_matches": true}],
        "ansatz": {"qubits": 32, "scalar_total": 900, "vector_total": 300},
        "criteria": {"jobs_invariant": true, "tight_beats_decoupled": true,
                     "vector_reduces_rocc": true,
                     "vector_moves_elements": true},
        "ok": true})"),
        {{"ansatz/qubits", 16u}, {"ansatz/vector_total", 900u},
         {"ansatz"}, {"rows/1"}, {"rows/0"},
         {"rows/0/tight_miss_rate", 0.75},
         {"rows/1/rerun_matches", false}});
}

TEST(ArtifactMutations, Loadgen)
{
    expectMutationsRejected(Value::parse(R"({
        "schema": "qtenon.daemon-loadgen.v1",
        "config": {"clients": 4},
        "cold": {"requests": 24, "cache_hits": 0, "errors": 0,
                 "p50_ns": 9.0e6, "p99_ns": 2.0e7, "p999_ns": 2.1e7},
        "warm": {"requests": 24, "cache_hits": 24, "errors": 0,
                 "p50_ns": 1.0e5, "p99_ns": 3.0e5, "p999_ns": 3.1e5},
        "criteria": {"warm_hit_rate_ok": true, "warm_p50_improved": true,
                     "determinism_ok": true, "clean_drain": true},
        "ok": true})"),
        {{"config/clients", 3u}, {"warm/p999_ns", 2.0e5},
         {"cold/p99_ns", 1.0e6}, {"warm"}, {"cold/errors", 1u},
         {"warm/cache_hits", 0u}, {"warm/p50_ns", 1.0e7}});
}

TEST(ArtifactMutations, BenchStatevector)
{
    Value doc = Value::parse(R"({
        "schema": "qtenon.bench-statevector.v2", "results": [],
        "criteria": {"apply1q_fused_speedup": 60.0, "meets_2x_target": true,
                     "simd_backend": "avx2", "simd_vs_scalar_speedup": 1.2,
                     "hw_concurrency": 4, "threads_4_vs_threads_1": 2.9,
                     "threads_scaling_target": 2.5,
                     "threads_scaling_ok": true},
        "ok": true})");
    for (const std::string name :
         {"apply1q_reference", "apply1q_pairloop",
          "apply1q_pairloop_simd", "apply1q_pairloop_fused",
          "diagonal_reference", "diagonal_phase_pass",
          "diagonal_phase_pass_simd", "threads_1", "threads_2",
          "threads_4"}) {
        Value r = Value::object();
        r.set("name", name);
        r.set("gates", 120u);
        r.set("ns_per_gate", 850.0);
        if (name.find("_reference") == std::string::npos)
            r.set("vs_reference", 10.0);
        if (name.rfind("threads_", 0) == 0)
            r.set("vs_threads_1", 1.5);
        doc.asObject()[1].second.asArray().push_back(std::move(r));
    }
    expectMutationsRejected(
        doc, {{"results/9"}, {"results/0"}, {"criteria/simd_backend"},
              {"results/8/vs_threads_1"}, {"results/1/vs_reference"},
              {"results/1/ns_per_gate", 0.0}});
}

TEST(ArtifactMutations, FaultSweep)
{
    auto job = [](const char *name, double drops) {
        service::JobResult r;
        r.name = name;
        r.status = service::JobStatus::Ok;
        r.systems.resize(2);
        r.systems[0].label = "rocket";
        r.systems[1].label = "baseline";
        r.metrics["fault.eth.drop"] = drops;
        r.metrics["fault.eth.retransmits"] = drops;
        return service::jobResultToJson(r);
    };
    Value doc = Value::object();
    doc.set("schema", "qtenon.batch-results.v1");
    doc.set("results", Value(service::json::Array{job("loss0", 0),
                                                  job("loss0.1", 3)}));
    expectMutationsRejected(
        doc, {{"results/1"}, {"results"}, {"results/0/status", "failed"},
              {"results/1/metrics/fault.eth.retransmits", 0.0},
              {"results/1/systems/1"}});
}

TEST(ArtifactMutations, Trace)
{
    expectMutationsRejected(Value::parse(R"({"traceEvents": [
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
         "args": {"name": "worker 0"}},
        {"ph": "X", "pid": 2, "tid": 0, "name": "stage1.fetch",
         "ts": 0, "dur": 1},
        {"ph": "X", "pid": 2, "tid": 0, "name": "stage2.decode-slt",
         "ts": 1, "dur": 1},
        {"ph": "X", "pid": 2, "tid": 0, "name": "stage3.pgu-dispatch",
         "ts": 2, "dur": 1},
        {"ph": "X", "pid": 2, "tid": 0, "name": "stage4.arbiter",
         "ts": 3, "dur": 1}]})"),
        {{"traceEvents/4"}, {"traceEvents/0"}, {"traceEvents/1/ph", "Q"},
         {"traceEvents/2/dur", -1.0}, {"traceEvents/3/ts"},
         {"traceEvents"}});
}

TEST(ArtifactMutations, UnknownTypesFail)
{
    for (const char *doc :
         {R"({"schema": "qtenon.unknown.v1", "ok": true})",
          R"({"ok": true})", R"({"schema": 7})", "[]"})
        EXPECT_NE(checkArtifact(Value::parse(doc)), "") << doc;
}

// -----------------------------------------------------------------
// The benches' command-line parsers reject any token that is not
// wholly a value in range.

namespace {

bench::SweepCli
parseSweepArgs(std::vector<std::string> args)
{
    bench::SweepCli cli;
    cli::OptionRegistry reg;
    bench::registerSweepOptions(reg, cli);
    std::vector<char *> argv = {const_cast<char *>("bench")};
    for (auto &a : args)
        argv.push_back(a.data());
    reg.parse(static_cast<int>(argv.size()), argv.data());
    return cli;
}

} // namespace

TEST(CliParse, NumericOptionsRejectPartialTokens)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--seed", "x"},          {"--seed", "7x"},
        {"--seed", "-1"},         {"--seed", "99999999999999999999"},
        {"--jobs", "2x"},         {"--jobs", " 2"},
        {"--jobs", "0"},          {"--sv-threads", "x"},
        {"--timeout-ms", "5ms"},  {"--timeout-ms", "0"},
        {"--compile-cache", "3x"}, {"--retry-attempts", "2x"},
        {"--retry-jitter", "0.5x"}, {"--retry-jitter", "1"},
        {"--qubits", "8,x"},      {"--qubits", "8,0"},
        {"--qubits", ","},
    };
    for (const auto &args : bad)
        EXPECT_THROW(parseSweepArgs(args), sim::ConfigError)
            << args[0] << " " << args[1];
}

TEST(CliParse, NumericOptionsAcceptWholeTokens)
{
    const auto cli = parseSweepArgs(
        {"--jobs", "2", "--seed=42", "--sv-threads", "0",
         "--compile-cache", "0", "--retry-attempts", "3",
         "--retry-jitter", "0.25", "--timeout-ms", "500", "--qubits",
         "8,,16"});
    EXPECT_EQ(cli.jobs, 2u);
    EXPECT_EQ(cli.seed, 42u);
    EXPECT_EQ(cli.svThreads, 0u);
    EXPECT_EQ(cli.compileCacheCap, 0u);
    EXPECT_EQ(cli.retry.maxAttempts, 3u);
    EXPECT_EQ(cli.retry.jitter, 0.25);
    EXPECT_EQ(cli.timeout.count(), 500);
    EXPECT_EQ(cli.qubits, (std::vector<std::uint32_t>{8, 16}));
}

TEST(CliParse, JobCarriesEveryOption)
{
    std::vector<std::string> args = {
        "bench",          "--seed",          "5",
        "--backend",      "statevector",     "--sv-fusion",
        "--sv-threads",   "0",               "--isa-vector",
        "--compile-cache", "4",              "--fault-spec",
        "eth.drop=0.1",   "--retry-attempts", "3"};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    const auto cli = bench::parseSweepCli(static_cast<int>(argv.size()),
                                          argv.data());
    const auto spec = cli.job(vqa::Algorithm::Vqe,
                              vqa::OptimizerKind::Spsa, 8);
    EXPECT_EQ(spec.workload.algorithm, vqa::Algorithm::Vqe);
    EXPECT_EQ(spec.workload.numQubits, 8u);
    EXPECT_EQ(spec.driver.optimizer, vqa::OptimizerKind::Spsa);
    EXPECT_EQ(spec.driver.seed, 5u);
    EXPECT_EQ(spec.driver.backend, quantum::BackendKind::Statevector);
    EXPECT_TRUE(spec.driver.kernel.fuse1q);
    EXPECT_EQ(spec.driver.kernel.threads, 0u);
    EXPECT_TRUE(spec.driver.isaVector);
    ASSERT_NE(cli.compileCache, nullptr);
    EXPECT_EQ(spec.driver.compileCache, cli.compileCache.get());
    EXPECT_EQ(cli.compileCache->capacity(), 4u);
    EXPECT_EQ(spec.faultSpec.toString(), "eth.drop=0.1");
    EXPECT_EQ(spec.retry.maxAttempts, 3u);
}

TEST(CliParse, ListsCheckEveryElement)
{
    using cli::parseList;
    EXPECT_EQ(parseList("--loss", "0,0.05,1", 0.0, 1.0),
              (std::vector<double>{0.0, 0.05, 1.0}));
    EXPECT_THROW(parseList("--loss", "0,2", 0.0, 1.0), sim::ConfigError);
    EXPECT_THROW(parseList("--loss", "0,-0.1", 0.0, 1.0),
                 sim::ConfigError);
    EXPECT_THROW(parseList("--loss", "0.1x", 0.0, 1.0),
                 sim::ConfigError);
    EXPECT_THROW(parseList("--loss", "nan", 0.0, 1.0), sim::ConfigError);
    EXPECT_THROW(parseList("--loss", "", 0.0, 1.0), sim::ConfigError);
    EXPECT_THROW(parseList<std::uint32_t>("--shards", "1,2x", 1, 64),
                 sim::ConfigError);
}
