#include "results_store.hh"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/hash.hh"
#include "json.hh"

namespace qtenon::service {

namespace {

constexpr const char *schemaTag = "qtenon.batch-results.v1";

json::Value
breakdownToJson(const runtime::TimeBreakdown &b)
{
    json::Value o = json::Value::object();
    o.set("quantum", b.quantum);
    o.set("pulse_gen", b.pulseGen);
    o.set("comm", b.comm);
    o.set("host", b.host);
    o.set("host_busy", b.hostBusy);
    o.set("wall", b.wall);
    o.set("comm_set", b.commSet);
    o.set("comm_update", b.commUpdate);
    o.set("comm_acquire", b.commAcquire);
    return o;
}

runtime::TimeBreakdown
breakdownFromJson(const json::Value &v)
{
    runtime::TimeBreakdown b;
    b.quantum = v.at("quantum").asUint();
    b.pulseGen = v.at("pulse_gen").asUint();
    b.comm = v.at("comm").asUint();
    b.host = v.at("host").asUint();
    b.hostBusy = v.at("host_busy").asUint();
    b.wall = v.at("wall").asUint();
    b.commSet = v.at("comm_set").asUint();
    b.commUpdate = v.at("comm_update").asUint();
    b.commAcquire = v.at("comm_acquire").asUint();
    return b;
}

json::Value
systemRunToJson(const SystemRun &s)
{
    json::Value o = json::Value::object();
    o.set("label", s.label);
    o.set("setup", breakdownToJson(s.setup));
    o.set("rounds", breakdownToJson(s.rounds));
    o.set("total", breakdownToJson(s.total));
    o.set("bus_transactions", s.busTransactions);
    o.set("pulses_generated", s.pulsesGenerated);
    o.set("slt_hits", s.sltHits);
    o.set("slt_misses", s.sltMisses);
    o.set("sim_ticks", s.simTicks);
    return o;
}

SystemRun
systemRunFromJson(const json::Value &v)
{
    SystemRun s;
    s.label = v.at("label").asString();
    s.setup = breakdownFromJson(v.at("setup"));
    s.rounds = breakdownFromJson(v.at("rounds"));
    s.total = breakdownFromJson(v.at("total"));
    s.busTransactions = v.at("bus_transactions").asDouble();
    s.pulsesGenerated = v.at("pulses_generated").asDouble();
    s.sltHits = v.at("slt_hits").asUint();
    s.sltMisses = v.at("slt_misses").asUint();
    s.simTicks = v.at("sim_ticks").asUint();
    return s;
}

} // namespace

json::Value
jobResultToJson(const JobResult &r, bool deterministic_only)
{
    json::Value o = json::Value::object();
    o.set("job_id", r.jobId);
    o.set("name", r.name);
    o.set("status", jobStatusName(r.status));
    o.set("error", r.error);
    o.set("seed", r.seed);
    o.set("num_qubits", r.numQubits);
    o.set("algorithm", r.algorithm);
    o.set("optimizer", r.optimizer);
    json::Value history = json::Value::array();
    for (double c : r.costHistory)
        history.asArray().emplace_back(c);
    o.set("cost_history", std::move(history));
    o.set("final_cost", r.finalCost);
    o.set("rounds", r.rounds);
    o.set("shot_duration_ps", r.shotDuration);
    json::Value systems = json::Value::array();
    for (const auto &s : r.systems)
        systems.asArray().push_back(systemRunToJson(s));
    o.set("systems", std::move(systems));
    json::Value metrics = json::Value::object();
    for (const auto &[k, v] : r.metrics)
        metrics.set(k, json::Value(v));
    o.set("metrics", std::move(metrics));
    o.set("sim_ticks", r.simTicks);
    // Retry/timeout provenance is written only when it deviates from
    // the defaults, so pre-fault-layer batch JSON stays byte-stable.
    if (r.attempts > 1)
        o.set("attempts", std::uint64_t{r.attempts});
    if (!r.timeoutSource.empty())
        o.set("timeout_source", r.timeoutSource);
    if (r.timeoutElapsedMs > 0)
        o.set("timeout_elapsed_ms", r.timeoutElapsedMs);
    // Compile mode only when it deviates from the historical
    // default, same byte-stability contract as above.
    if (!r.compileMode.empty() && r.compileMode != "incremental")
        o.set("compile_mode", r.compileMode);
    if (!deterministic_only)
        o.set("wall_ns", r.wallNs);
    return o;
}

JobResult
jobResultFromJson(const json::Value &v)
{
    JobResult r;
    r.jobId = v.at("job_id").asUint();
    r.name = v.at("name").asString();
    r.status = jobStatusFromName(v.at("status").asString());
    r.error = v.at("error").asString();
    r.seed = v.at("seed").asUint();
    r.numQubits =
        static_cast<std::uint32_t>(v.at("num_qubits").asUint());
    r.algorithm = v.at("algorithm").asString();
    r.optimizer = v.at("optimizer").asString();
    for (const auto &c : v.at("cost_history").asArray())
        r.costHistory.push_back(c.asDouble());
    r.finalCost = v.at("final_cost").asDouble();
    r.rounds = v.at("rounds").asUint();
    r.shotDuration = v.at("shot_duration_ps").asUint();
    for (const auto &s : v.at("systems").asArray())
        r.systems.push_back(systemRunFromJson(s));
    for (const auto &[k, mv] : v.at("metrics").asObject())
        r.metrics[k] = mv.asDouble();
    r.simTicks = v.at("sim_ticks").asUint();
    // Optional (the v1 schema deliberately omits it on write so
    // stored batch results stay byte-stable across releases).
    if (const json::Value *b = v.find("backend"))
        r.backend = b->asString();
    if (const json::Value *a = v.find("attempts"))
        r.attempts = static_cast<std::uint32_t>(a->asUint());
    if (const json::Value *ts = v.find("timeout_source"))
        r.timeoutSource = ts->asString();
    if (const json::Value *te = v.find("timeout_elapsed_ms"))
        r.timeoutElapsedMs = te->asUint();
    if (const json::Value *cm = v.find("compile_mode"))
        r.compileMode = cm->asString();
    if (const json::Value *w = v.find("wall_ns"))
        r.wallNs = w->asUint();
    return r;
}

void
ResultsStore::add(JobResult r)
{
    std::lock_guard<std::mutex> guard(_mutex);
    _byId[r.jobId] = std::move(r);
}

void
ResultsStore::mergeLocked(const ResultsStore &other)
{
    std::lock_guard<std::mutex> guard(other._mutex);
    for (const auto &[id, r] : other._byId)
        _byId[id] = r;
}

void
ResultsStore::merge(const ResultsStore &other)
{
    if (this == &other)
        return;
    std::lock_guard<std::mutex> guard(_mutex);
    mergeLocked(other);
}

std::size_t
ResultsStore::size() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _byId.size();
}

void
ResultsStore::erase(std::uint64_t job_id)
{
    std::lock_guard<std::mutex> guard(_mutex);
    _byId.erase(job_id);
}

JobResult
ResultsStore::get(std::uint64_t job_id) const
{
    std::lock_guard<std::mutex> guard(_mutex);
    auto it = _byId.find(job_id);
    if (it == _byId.end())
        throw std::out_of_range("ResultsStore: no job " +
                                std::to_string(job_id));
    return it->second;
}

bool
ResultsStore::contains(std::uint64_t job_id) const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _byId.count(job_id) != 0;
}

std::vector<JobResult>
ResultsStore::sorted() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    std::vector<JobResult> out;
    out.reserve(_byId.size());
    for (const auto &[id, r] : _byId)
        out.push_back(r);
    return out;
}

std::vector<JobResult>
ResultsStore::withStatus(JobStatus s) const
{
    std::vector<JobResult> out;
    for (auto &r : sorted()) {
        if (r.status == s)
            out.push_back(std::move(r));
    }
    return out;
}

void
ResultsStore::toJson(std::ostream &os, bool deterministic_only) const
{
    json::Value doc = json::Value::object();
    doc.set("schema", schemaTag);
    json::Value results = json::Value::array();
    for (const auto &r : sorted())
        results.asArray().push_back(
            jobResultToJson(r, deterministic_only));
    doc.set("results", std::move(results));
    doc.write(os, 2);
    os << "\n";
}

std::string
ResultsStore::toJsonString(bool deterministic_only) const
{
    std::ostringstream os;
    toJson(os, deterministic_only);
    return os.str();
}

ResultsStore
ResultsStore::fromJsonString(const std::string &text)
{
    const json::Value doc = json::Value::parse(text);
    if (const json::Value *schema = doc.find("schema")) {
        if (schema->asString() != schemaTag)
            throw std::runtime_error(
                "ResultsStore: unknown schema '" +
                schema->asString() + "'");
    } else {
        throw std::runtime_error("ResultsStore: missing schema tag");
    }
    ResultsStore store;
    for (const auto &r : doc.at("results").asArray())
        store.add(jobResultFromJson(r));
    return store;
}

ResultsStore
ResultsStore::fromJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    return fromJsonString(buf.str());
}

std::uint64_t
ResultsStore::deterministicDigest() const
{
    return core::fnv1a(toJsonString(/*deterministic_only=*/true));
}

} // namespace qtenon::service

