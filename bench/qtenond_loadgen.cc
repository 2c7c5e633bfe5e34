/**
 * @file
 * qtenond load generator: N concurrent clients replaying a mix of
 * VQA job requests against a serving daemon, reporting end-to-end
 * latency quantiles (p50/p99/p999 via the obs log2-histogram bucket
 * interpolation) for a cold pass (empty cache) and a warm pass
 * (same request set again, served from the content-addressed
 * cache), plus the byte-identity determinism check: every response
 * for the same request must carry byte-identical result bytes,
 * whether computed or replayed from cache.
 *
 * Two ways to get a daemon:
 *   --spawn            run one in-process (self-contained local use)
 *   --socket PATH      connect to an externally started qtenond
 *                      (the CI smoke job does this)
 *
 * Writes a machine-checkable artifact (--out, schema
 * "qtenon.daemon-loadgen.v1") whose criteria block is re-checked by
 * tests/test_artifacts.cc; --smoke exits nonzero unless every
 * criterion holds.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "artifact.hh"
#include "obs/metrics.hh"
#include "service/daemon/client.hh"
#include "service/daemon/daemon.hh"
#include "sim/option_registry.hh"

namespace {

using namespace qtenon;
using namespace qtenon::service::daemon;

struct LoadgenConfig {
    std::string socketPath = "qtenond_loadgen.sock";
    bool spawn = false;
    bool shutdownAtEnd = false;
    bool smoke = false;
    std::string outPath;
    unsigned clients = 4;
    unsigned requestsPerClient = 8;
    /** Distinct request variants; 0 = every cold-pass request is
     *  distinct (clients x requests variants), so the cold pass
     *  measures pure compute and the warm pass pure cache. Smaller
     *  values add repeat traffic within a pass. */
    unsigned unique = 0;
    unsigned jobs = 3;
    unsigned qubits = 6;
    std::uint64_t shots = 200;
    unsigned iterations = 4;
};

/** Aggregate over one pass (cold or warm). */
struct PassStats {
    std::uint64_t requests = 0;
    std::uint64_t hits = 0;
    std::uint64_t errors = 0;
    std::uint64_t sumNs = 0;
    std::uint64_t wallNs = 0;
    double p50 = 0, p99 = 0, p999 = 0;

    double
    meanNs() const
    {
        return requests ? static_cast<double>(sumNs) /
                static_cast<double>(requests)
                        : 0.0;
    }
};

/** Shared byte-identity ledger: variant -> first result bytes. */
struct DeterminismLedger {
    std::mutex mutex;
    std::map<unsigned, std::string> firstBytes;
    std::atomic<bool> ok{true};

    void
    observe(unsigned variant, const std::string &bytes)
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto [it, inserted] = firstBytes.emplace(variant, bytes);
        if (!inserted && it->second != bytes)
            ok.store(false);
    }
};

JobRequest
makeRequest(const LoadgenConfig &cfg, unsigned variant,
            unsigned client)
{
    JobRequest req;
    req.name = "lg-" + std::to_string(variant);
    req.client = "client-" + std::to_string(client);
    req.algorithm = variant % 2 ? "vqe" : "qaoa";
    req.qubits = cfg.qubits;
    req.shots = cfg.shots;
    req.iterations = cfg.iterations;
    req.seed = 1000 + variant;
    return req;
}

PassStats
runPass(const LoadgenConfig &cfg, const char *pass_name,
        DeterminismLedger &ledger)
{
    auto &hist = obs::histogram(
        std::string("loadgen.") + pass_name + ".latency_ns",
        "client-observed submit->response latency");
    PassStats stats;
    std::mutex statsMutex;
    std::atomic<bool> failed{false};

    const auto passStart = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(cfg.clients);
    for (unsigned c = 0; c < cfg.clients; ++c) {
        threads.emplace_back([&, c] {
            try {
                DaemonClient client;
                client.connectWithRetry(cfg.socketPath);
                PassStats local;
                for (unsigned r = 0; r < cfg.requestsPerClient;
                     ++r) {
                    const unsigned variant =
                        (c * cfg.requestsPerClient + r) %
                        cfg.unique;
                    const JobRequest req =
                        makeRequest(cfg, variant, c);
                    const auto t0 =
                        std::chrono::steady_clock::now();
                    const Response resp =
                        client.submit(req, r + 1);
                    const auto ns = static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
                    hist.record(ns);
                    ++local.requests;
                    local.sumNs += ns;
                    if (resp.isResult()) {
                        if (resp.cacheState == "hit")
                            ++local.hits;
                        ledger.observe(variant, resp.resultBytes);
                    } else {
                        ++local.errors;
                        std::fprintf(
                            stderr,
                            "loadgen: client %u request %u: "
                            "%s (%s%s)\n",
                            c, r, resp.type.c_str(),
                            resp.reason.c_str(),
                            resp.error.c_str());
                    }
                }
                std::lock_guard<std::mutex> lock(statsMutex);
                stats.requests += local.requests;
                stats.hits += local.hits;
                stats.errors += local.errors;
                stats.sumNs += local.sumNs;
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "loadgen: client %u: %s\n", c,
                             e.what());
                failed.store(true);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    stats.wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - passStart)
            .count());
    if (failed.load())
        stats.errors += 1;

    const auto snap = hist.snapshot();
    stats.p50 = snap.p50();
    stats.p99 = snap.p99();
    stats.p999 = snap.p999();
    return stats;
}

service::json::Value
passJson(const PassStats &s)
{
    using service::json::Value;
    Value v = Value::object();
    v.set("requests", s.requests);
    v.set("cache_hits", s.hits);
    v.set("errors", s.errors);
    v.set("wall_ns", s.wallNs);
    v.set("mean_ns", s.meanNs());
    v.set("p50_ns", s.p50);
    v.set("p99_ns", s.p99);
    v.set("p999_ns", s.p999);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    LoadgenConfig cfg;
    cli::OptionRegistry reg;
    reg.str("--socket", "PATH",
            "daemon socket (default qtenond_loadgen.sock)",
            &cfg.socketPath);
    reg.flag("--spawn", "run an in-process daemon", &cfg.spawn);
    reg.flag("--shutdown",
             "send a shutdown frame at the end and verify the drain",
             &cfg.shutdownAtEnd);
    reg.uns("--clients", "N", "concurrent clients (default 4)",
            &cfg.clients, 1, "--clients must be a positive integer");
    reg.uns("--requests", "N",
            "requests per client per pass (default 8)",
            &cfg.requestsPerClient, 1,
            "--requests must be a positive integer");
    reg.uns("--unique", "N",
            "distinct request variants (default 0 = all distinct)",
            &cfg.unique, 0, "--unique must be a non-negative integer");
    reg.uns("--jobs", "N", "spawned daemon's workers (default 3)",
            &cfg.jobs, 0, "--jobs must be a non-negative integer");
    reg.uns("--qubits", "N", "workload size (default 6)",
            &cfg.qubits, 1, "--qubits must be a positive integer");
    reg.u64("--shots", "N", "shots per evaluation (default 200)",
            &cfg.shots);
    reg.uns("--iterations", "N",
            "optimizer iterations (default 4)", &cfg.iterations, 1,
            "--iterations must be a positive integer");
    reg.str("--out", "PATH", "write the JSON artifact",
            &cfg.outPath);
    reg.flag("--smoke",
             "small fast run; exit 1 unless every criterion holds",
             &cfg.smoke);
    reg.parse(argc, argv);
    if (cfg.smoke) {
        // Small enough for CI, big enough to exercise concurrency
        // and repeat traffic.
        cfg.requestsPerClient = 6;
        cfg.unique = 0;
        cfg.qubits = 6;
        cfg.shots = 100;
        cfg.iterations = 3;
    }
    if (cfg.unique == 0)
        cfg.unique = cfg.clients * cfg.requestsPerClient;

    // The latency quantiles come from the obs histogram snapshots.
    obs::setMetricsEnabled(true);

    std::unique_ptr<Daemon> daemon;
    if (cfg.spawn) {
        DaemonConfig dcfg;
        dcfg.socketPath = cfg.socketPath;
        dcfg.workers = cfg.jobs;
        daemon = std::make_unique<Daemon>(dcfg);
        daemon->start();
    }

    DeterminismLedger ledger;
    std::printf("qtenond_loadgen: %u clients x %u requests "
                "(%u variants) -> %s\n",
                cfg.clients, cfg.requestsPerClient, cfg.unique,
                cfg.socketPath.c_str());

    const PassStats cold = runPass(cfg, "cold", ledger);
    const PassStats warm = runPass(cfg, "warm", ledger);

    // Daemon-side accounting, read over the wire like any client.
    service::json::Value daemonStats;
    bool cleanDrain = true;
    try {
        DaemonClient admin;
        admin.connectWithRetry(cfg.socketPath);
        Response s = admin.stats(1);
        daemonStats = s.body;
        if (cfg.shutdownAtEnd) {
            Response bye = admin.shutdown(2);
            cleanDrain = bye.type == "shutting_down";
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "loadgen: admin client: %s\n",
                     e.what());
        cleanDrain = false;
    }
    if (daemon) {
        daemon->stop();
        const auto s = daemon->stats();
        cleanDrain = cleanDrain && s.served + s.errors >= s.requests;
        daemon.reset();
    }

    auto ms = [](double ns) { return ns / 1e6; };
    std::printf("  pass    req   hits   p50(ms)   p99(ms)  "
                "p999(ms)  mean(ms)\n");
    std::printf("  cold  %5llu  %5llu  %8.3f  %8.3f  %8.3f  %8.3f\n",
                static_cast<unsigned long long>(cold.requests),
                static_cast<unsigned long long>(cold.hits),
                ms(cold.p50), ms(cold.p99), ms(cold.p999),
                ms(cold.meanNs()));
    std::printf("  warm  %5llu  %5llu  %8.3f  %8.3f  %8.3f  %8.3f\n",
                static_cast<unsigned long long>(warm.requests),
                static_cast<unsigned long long>(warm.hits),
                ms(warm.p50), ms(warm.p99), ms(warm.p999),
                ms(warm.meanNs()));

    using service::json::Value;
    bench::Artifact art("qtenon.daemon-loadgen.v1");
    Value conf = Value::object();
    conf.set("clients", cfg.clients);
    conf.set("requests_per_client", cfg.requestsPerClient);
    conf.set("unique_variants", cfg.unique);
    conf.set("qubits", cfg.qubits);
    conf.set("shots", cfg.shots);
    conf.set("iterations", cfg.iterations);
    conf.set("spawned_daemon", cfg.spawn);
    art.set("config", std::move(conf));
    art.set("cold", passJson(cold));
    art.set("warm", passJson(warm));
    art.set("daemon", std::move(daemonStats));
    art.criterion("warm_hit_rate_ok", warm.hits > 0);
    art.criterion("warm_p50_improved", warm.p50 > 0 && cold.p50 > 0 &&
                                           warm.p50 < cold.p50);
    art.criterion("determinism_ok", ledger.ok.load() &&
                                        cold.errors == 0 &&
                                        warm.errors == 0);
    art.criterion("clean_drain", cleanDrain);
    return art.finish(cfg.outPath, cfg.smoke);
}
