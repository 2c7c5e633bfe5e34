/**
 * @file
 * The daemon-mix workload: an in-process qtenond serving a closed
 * loop of clients over its AF_UNIX socket. Each client waits for
 * its reply before sending the next request, as sweep clients do.
 * Three in four requests repeat a variant that client already
 * received (a result-cache hit); the rest carry a new seed (a miss,
 * which runs a job and usually hits the compile cache). Variants
 * are private to their client, so the benchmark knows in advance
 * whether each request must hit or miss and checks that it did.
 */

#include <unistd.h>

#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "core/hash.hh"
#include "obs/metrics.hh"
#include "service/daemon/client.hh"
#include "service/daemon/daemon.hh"
#include "service/json.hh"
#include "service/results_store.hh"

namespace perfbench {

using namespace qtenon;
using service::daemon::DaemonClient;
using service::daemon::JobRequest;

namespace {

/** Requests per block; one of them is a miss, the rest repeats. */
constexpr unsigned kBlock = 4;
/** Set-up is cheap here (~10 ms), so repeat it more often. */
constexpr unsigned kSetupReps = 15;
/** Repeats pick among the client's most recent variants, which
 *  stay far inside the daemon's 1024-entry result cache. */
constexpr std::size_t kRecentVariants = 8;
/** Variants per client that enter the output digest. */
constexpr std::size_t kDigestVariants = 8;
/** Distinct miss variants replayed layer by layer when traced. */
constexpr std::size_t kReplayVariants = 48;

struct Variant {
    std::string algorithm;
    std::uint32_t qubits = 0;
    std::uint64_t seed = 0;

    std::string
    key() const
    {
        return algorithm + "/q" + std::to_string(qubits) + "/" +
            std::to_string(seed);
    }
};

JobRequest
requestOf(const Variant &v, unsigned client)
{
    JobRequest req;
    req.name = "perfbench";
    req.client = "client-" + std::to_string(client);
    req.algorithm = v.algorithm;
    req.qubits = v.qubits;
    req.shots = 200;
    req.iterations = 4;
    req.optimizer = "gd";
    req.seed = v.seed;
    req.hosts = {"rocket"};
    req.runBaseline = true;
    return req;
}

/** One client's deterministic request stream. */
class ClientPlan
{
  public:
    ClientPlan(std::uint64_t seed, unsigned client)
        : _rng(seed ^ (0x5bd1e995ull * (client + 1))), _client(client)
    {}

    /**
     * The next request and whether it must be a cache hit. Each
     * block of kBlock requests holds one miss at a seeded position
     * (the first request is always a miss), and misses cycle through
     * the four (algorithm, size) shapes, so every seed measures the
     * same mix.
     */
    std::pair<Variant, bool>
    next()
    {
        if (_count % kBlock == 0)
            _missSlot = _received.empty() ? 0 : pick(kBlock);
        if (_count++ % kBlock != _missSlot && !_received.empty()) {
            const auto window = std::min(kRecentVariants, _received.size());
            return {_received[_received.size() - 1 - pick(window)], true};
        }
        const unsigned shape = (_client + _fresh) % 4;
        Variant v;
        v.algorithm = shape & 1 ? "vqe" : "qaoa";
        v.qubits = shape & 2 ? 8 : 6;
        v.seed = _rng();
        ++_fresh;
        return {v, false};
    }

    void received(const Variant &v) { _received.push_back(v); }
    const std::vector<Variant> &variants() const { return _received; }

  private:
    /** Uniform in [0, n). */
    std::size_t
    pick(std::size_t n)
    {
        return static_cast<std::size_t>(_rng() % n);
    }

    std::mt19937_64 _rng;
    unsigned _client;
    unsigned _fresh = 0;
    std::uint64_t _count = 0;
    std::size_t _missSlot = 0;
    std::vector<Variant> _received;
};

/** What one client saw in one phase. */
struct ClientLog {
    std::vector<double> hitMs;
    std::vector<double> missMs;
    /** Traced phase: per miss, latency minus job host time, the
     *  waits the daemon recorded before the job started, and the
     *  overhead those waits leave unexplained. */
    std::vector<double> missOverheadMs;
    std::vector<double> missWaitMs;
    std::vector<double> missRestMs;
    std::uint64_t sent = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    Clock::time_point lastReply{};
};

/** Sum/count snapshot of the histograms a miss moves. */
struct MissCounters {
    std::uint64_t jobs = 0;
    std::uint64_t runNs = 0;
    std::uint64_t schedWaitNs = 0;
    std::uint64_t admitWaitNs = 0;

    static MissCounters
    now()
    {
        static auto &run = obs::histogram("service.job.run_ns");
        static auto &sched = obs::histogram("service.job.queue_wait_ns");
        static auto &admit =
            obs::histogram("daemon.request.queue_wait_ns");
        return {run.count(), run.sum(), sched.sum(), admit.sum()};
    }
};

struct Fleet {
    std::unique_ptr<service::daemon::Daemon> daemon;
    std::vector<std::unique_ptr<DaemonClient>> clients;
    std::vector<ClientPlan> plans;
    /** Result bytes per variant key, per client. */
    std::vector<std::map<std::string, std::string>> bytes;

    void
    stop()
    {
        clients.clear();
        if (daemon)
            daemon->stop();
        daemon.reset();
    }
};

/**
 * Drive every client until @p seconds have passed. A traced phase
 * lets only one miss be in flight at a time, so the program's job
 * histograms move by exactly that miss's job between its submit and
 * its reply.
 */
std::vector<ClientLog>
runPhase(Fleet &fleet, double seconds, bool traced)
{
    std::vector<ClientLog> logs(fleet.clients.size());
    std::mutex miss_mutex;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < fleet.clients.size(); ++c) {
        threads.emplace_back([&, c] {
            auto &client = *fleet.clients[c];
            auto &plan = fleet.plans[c];
            auto &seen = fleet.bytes[c];
            auto &log = logs[c];
            std::uint64_t id = 0;
            while (Clock::now() < deadline) {
                const auto [variant, hit] = plan.next();
                const auto req = requestOf(variant, c);
                std::unique_lock<std::mutex> one_miss(miss_mutex,
                                                      std::defer_lock);
                MissCounters before;
                if (traced && !hit) {
                    one_miss.lock();
                    before = MissCounters::now();
                }
                const auto t0 = Clock::now();
                service::daemon::Response resp;
                try {
                    resp = client.submit(req, ++id);
                } catch (const std::exception &e) {
                    ++log.sent;
                    ++log.failed;
                    log.problems.push_back(e.what());
                    break;
                }
                log.lastReply = Clock::now();
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        log.lastReply - t0)
                        .count();
                ++log.sent;
                if (!resp.isResult()) {
                    ++log.failed;
                    log.problems.push_back(
                        "request " + variant.key() + " got " +
                        resp.type + " " + resp.reason + resp.error);
                    continue;
                }
                if (resp.cacheState != (hit ? "hit" : "miss"))
                    log.problems.push_back(
                        "request " + variant.key() + " was a " +
                        resp.cacheState + ", expected " +
                        (hit ? "hit" : "miss"));
                if (hit) {
                    log.hitMs.push_back(ms);
                    if (seen[variant.key()] != resp.resultBytes)
                        log.problems.push_back(
                            "hit bytes of " + variant.key() +
                            " differ from its miss");
                    continue;
                }
                log.missMs.push_back(ms);
                seen[variant.key()] = resp.resultBytes;
                plan.received(variant);
                if (!traced)
                    continue;
                const auto after = MissCounters::now();
                if (after.jobs != before.jobs + 1) {
                    log.problems.push_back(
                        "miss " + variant.key() + " ran " +
                        std::to_string(after.jobs - before.jobs) +
                        " jobs");
                    continue;
                }
                const double job_ms =
                    static_cast<double>(after.runNs - before.runNs) / 1e6;
                const double wait_ms =
                    static_cast<double>(
                        (after.schedWaitNs - before.schedWaitNs) +
                        (after.admitWaitNs - before.admitWaitNs)) /
                    1e6;
                log.missOverheadMs.push_back(ms - job_ms);
                log.missWaitMs.push_back(wait_ms);
                log.missRestMs.push_back(ms - job_ms - wait_ms);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return logs;
}

std::vector<double>
gather(const std::vector<ClientLog> &logs,
       std::vector<double> ClientLog::*field)
{
    std::vector<double> all;
    for (const auto &log : logs)
        all.insert(all.end(), (log.*field).begin(), (log.*field).end());
    return all;
}

std::vector<double>
allLatencies(const std::vector<ClientLog> &logs)
{
    auto v = gather(logs, &ClientLog::hitMs);
    const auto m = gather(logs, &ClientLog::missMs);
    v.insert(v.end(), m.begin(), m.end());
    return v;
}

/** Count sends and failures; turn client problems into failed
 *  checks (the first few are printed). */
void
account(const std::vector<ClientLog> &logs, Outcome &out)
{
    std::size_t shown = 0;
    for (const auto &log : logs) {
        out.attempted += log.sent;
        out.failed += log.failed;
        for (const auto &p : log.problems) {
            if (shown++ < 5)
                out.fail(p);
            else
                out.correct = false;
        }
    }
}

/** Phase wall: first send until the last reply. */
double
phaseSeconds(const std::vector<ClientLog> &logs, Clock::time_point t0)
{
    auto last = t0;
    for (const auto &log : logs)
        last = std::max(last, log.lastReply);
    return std::chrono::duration<double>(last - t0).count();
}

/** The first kDigestVariants variants of every client, in order. */
std::string
fleetDigest(const Fleet &fleet, Outcome &out)
{
    std::string text;
    for (std::size_t c = 0; c < fleet.plans.size(); ++c) {
        const auto &vs = fleet.plans[c].variants();
        if (vs.size() < kDigestVariants)
            out.fail("client " + std::to_string(c) + " received only " +
                     std::to_string(vs.size()) + " variants");
        for (std::size_t k = 0; k < std::min(kDigestVariants, vs.size());
             ++k) {
            text += vs[k].key() + "=" + fleet.bytes[c].at(vs[k].key()) +
                "\n";
        }
    }
    return core::fnv1a128(text).hex();
}

} // namespace

Outcome
runDaemonMix(const Options &opt)
{
    Outcome out;
    obs::setMetricsEnabled(false);
    const unsigned num_clients = opt.workers;

    // Set-up: plans, daemon start, connections, one warm-up request
    // (a variant no client asks for).
    Fleet fleet;
    std::vector<Fleet> spare;
    unsigned rep = 0;
    const double setup_s = medianSetupSeconds(kSetupReps, [&](bool keep) {
        const std::string socket = opt.outDir + "/perfbench-" +
            std::to_string(::getpid()) + "-" + std::to_string(rep++) +
            ".sock";
        Fleet f;
        for (unsigned c = 0; c < num_clients; ++c)
            f.plans.emplace_back(opt.seed, c);
        f.bytes.resize(num_clients);
        service::daemon::DaemonConfig cfg;
        cfg.socketPath = socket;
        cfg.workers = opt.workers;
        f.daemon = std::make_unique<service::daemon::Daemon>(cfg);
        f.daemon->start();
        for (unsigned c = 0; c < num_clients; ++c) {
            f.clients.push_back(std::make_unique<DaemonClient>());
            f.clients.back()->connectWithRetry(socket);
        }
        const Variant warm{"qaoa", 6, ~std::uint64_t{0}};
        const auto resp = f.clients[0]->submit(requestOf(warm, 0), 0);
        if (!resp.isResult() || resp.cacheState != "miss")
            throw std::runtime_error("daemon warm-up request failed: " +
                                     resp.type + resp.error);
        if (keep) {
            fleet = std::move(f);
        } else {
            // Stopped after set-up timing, below.
            spare.push_back(std::move(f));
        }
    });
    for (auto &f : spare)
        f.stop();
    spare.clear();

    const double phase_s = opt.trace ? 0.4 * opt.seconds : opt.seconds;
    const auto t0 = Clock::now();
    const auto logs = runPhase(fleet, phase_s, false);
    const double window = phaseSeconds(logs, t0);
    account(logs, out);
    out.digest = fleetDigest(fleet, out);

    const auto latency = allLatencies(logs);
    if (latency.size() < 100)
        out.fail("only " + std::to_string(latency.size()) +
                 " requests completed; p90 needs at least 100");

    if (!opt.trace) {
        // Every miss of this run is one distinct variant.
        double evals = 0.0;
        std::vector<double> e2e, classical;
        for (const auto &seen : fleet.bytes) {
            for (const auto &[key, bytes] : seen) {
                const auto r = service::jobResultFromJson(
                    service::json::Value::parse(bytes));
                evals += static_cast<double>(r.rounds);
                e2e.push_back(simSpeedup(r, false));
                classical.push_back(simSpeedup(r, true));
            }
        }
        const auto miss_ms = gather(logs, &ClientLog::missMs);
        out.set("setup_s", setup_s, "s");
        out.set("evals_per_s", evals / window, "1/s");
        out.set("job_s_p50", median(miss_ms) / 1e3, "s");
        out.set("req_ms_p50", quantile(latency, 0.5), "ms");
        out.set("req_ms_p90", quantile(latency, 0.9), "ms");
        out.set("req_per_s", static_cast<double>(latency.size()) / window,
                "1/s");
        out.set("sim_speedup_e2e", geomean(e2e), "x");
        out.set("sim_speedup_classical", geomean(classical), "x");
        out.set("peak_rss_mb", peakRssMb(), "MB");
        out.note("requests: " + std::to_string(latency.size()) +
                 " (" + std::to_string(miss_ms.size()) + " misses) in " +
                 std::to_string(window) + " s");
        fleet.stop();
        return out;
    }

    // Traced phase: program metrics on, one miss in flight at a time.
    obs::setMetricsEnabled(true);
    const auto traced = runPhase(fleet, 0.4 * opt.seconds, true);
    obs::setMetricsEnabled(false);
    account(traced, out);
    const auto stats_frame = fleet.clients[0]->stats(0);
    const auto stats = fleet.daemon->stats();
    fleet.stop();

    const auto rest = gather(traced, &ClientLog::missRestMs);
    for (double r : rest) {
        if (r < -0.001)
            out.fail("a miss's job and recorded waits exceed its "
                     "client latency by " +
                     std::to_string(-r) + " ms");
    }

    // Replay the daemon's first miss variants layer by layer, in
    // process, and require the daemon's exact result bytes.
    std::vector<service::JobSpec> specs;
    std::vector<std::string> expected;
    for (unsigned c = 0; c < num_clients; ++c) {
        const auto &vs = fleet.plans[c].variants();
        for (std::size_t k = 0;
             k < std::min(vs.size(), kReplayVariants / num_clients); ++k) {
            specs.push_back(requestOf(vs[k], c).toJobSpec());
            expected.push_back(fleet.bytes[c].at(vs[k].key()));
        }
    }
    isa::CompileCache cache(service::daemon::DaemonConfig{}
                                .compileCacheCapacity);
    service::BatchScheduler sched(
        service::SchedulerConfig{opt.workers, {}});
    auto replay = runClosedLoop(sched, specs, 0.0, specs.size(),
                                /*traced=*/true, &cache);
    double serialize_ns = 0.0;
    for (const auto &rec : replay.records) {
        auto r = rec.result;
        r.jobId = 0;
        r.name.clear();
        const auto ts = Clock::now();
        const auto bytes = resultBytes(r);
        serialize_ns +=
            std::chrono::duration<double, std::nano>(Clock::now() - ts)
                .count();
        if (bytes != expected[rec.corpusIndex])
            out.fail("traced replay of miss " +
                     std::to_string(rec.corpusIndex) +
                     " differs from the daemon's result bytes");
    }

    zeroLayerMetrics(out);
    addJobLayerMetrics(out, replay.records, serialize_ns);
    const auto hit_ms = gather(traced, &ClientLog::hitMs);
    const auto miss_ms = gather(traced, &ClientLog::missMs);
    const auto overhead = gather(traced, &ClientLog::missOverheadMs);
    out.set("daemon.hit_ms_p50", median(hit_ms), "ms");
    out.set("daemon.miss_ms_p50", median(miss_ms), "ms");
    out.set("daemon.overhead_ms_p50", median(overhead), "ms");
    out.set("daemon.queue_wait_ms_p50",
            median(gather(traced, &ClientLog::missWaitMs)), "ms");
    out.set("daemon.unattributed_ms_p50", median(rest), "ms");
    out.set("daemon.result_hit_ratio", stats.cache.hitRate(), "ratio");
    out.set("daemon.rejected",
            static_cast<double>(stats.rejectedQueueFull +
                                stats.rejectedQuota +
                                stats.rejectedDraining),
            "count");
    if (const auto *cc = stats_frame.body.find("compile_cache"))
        out.set("isa.cache_hit_ratio", cc->at("hit_rate").asDouble(),
                "ratio");
    out.set("trace.overhead_ms",
            quantile(allLatencies(traced), 0.5) - quantile(latency, 0.5),
            "ms");
    const bool hit_is_overhead = median(hit_ms) < 0.1 * median(miss_ms);
    out.note("confirm: hit p50 " + std::to_string(median(hit_ms)) +
             " ms is serving overhead only (miss p50 " +
             std::to_string(median(miss_ms)) + " ms, of which " +
             std::to_string(median(overhead)) +
             " ms overhead): " + (hit_is_overhead ? "yes" : "NO"));
    out.note("traced misses: " + std::to_string(miss_ms.size()) +
             ", replayed layer by layer: " +
             std::to_string(replay.records.size()));
    writeSpans(opt.outDir + "/spans-" + opt.workload + ".json",
               replay.records);
    return out;
}

} // namespace perfbench
