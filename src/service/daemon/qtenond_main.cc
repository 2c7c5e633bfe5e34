/**
 * @file
 * The qtenond binary: run the serving daemon until SIGTERM/SIGINT
 * (or a client "shutdown" frame), then drain gracefully — every
 * admitted job completes and flushes its response before exit.
 *
 *   qtenond --socket qtenond.sock --jobs 4 --cache 1024
 *
 * Options are declared on cli::OptionRegistry like every bench's:
 * `--help` is generated, and a bad value ends the run with a
 * `fatal:` line and exit code 1.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "daemon.hh"
#include "obs/metrics.hh"
#include "sim/option_registry.hh"

namespace {

std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qtenon;

    service::daemon::DaemonConfig cfg;
    std::string metricsJsonPath;

    cli::OptionRegistry reg;
    // A count option bounded only by its type; 0 is allowed.
    auto count = [&reg](const char *name, const char *help,
                        std::size_t *target) {
        reg.add(name, "N", help, [name, target](const std::string &v) {
            *target = cli::parseValue<std::size_t>(name, v, 0,
                                                   SIZE_MAX);
        });
    };
    reg.str("--socket", "PATH",
            "AF_UNIX socket path (default qtenond.sock)",
            &cfg.socketPath);
    reg.uns("--jobs", "N",
            "job threads (default: QTENON_JOBS, then hardware)",
            &cfg.workers, 0, "--jobs must be a non-negative integer");
    count("--queue-depth", "admission queue depth (default 64)",
          &cfg.maxQueueDepth);
    count("--quota", "per-client in-flight quota (default 16)",
          &cfg.perClientQuota);
    count("--cache", "result-cache entries; 0 disables (default 1024)",
          &cfg.cacheCapacity);
    count("--compile-cache",
          "compile-cache structural entries; 0 disables (default 256)",
          &cfg.compileCacheCapacity);
    reg.add("--timeout-ms", "N", "default per-job deadline; 0 = none",
            [&cfg](const std::string &v) {
                cfg.defaultTimeout = std::chrono::milliseconds(
                    cli::parseValue<std::chrono::milliseconds::rep>(
                        "--timeout-ms", v, 0, INT64_MAX));
            });
    reg.str("--metrics-json", "PATH", "enable metrics, dump on exit",
            &metricsJsonPath);
    reg.parse(argc, argv);

    if (!metricsJsonPath.empty())
        obs::setMetricsEnabled(true);

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    auto daemon = std::make_unique<service::daemon::Daemon>(cfg);
    try {
        daemon->start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qtenond: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr,
                 "qtenond: serving on %s (%u workers, queue %zu, "
                 "quota %zu, cache %zu)\n",
                 daemon->socketPath().c_str(),
                 daemon->stats().workers, cfg.maxQueueDepth,
                 cfg.perClientQuota, cfg.cacheCapacity);

    // Serve until a signal arrives or a client frame started the
    // drain; then complete everything admitted and exit.
    while (g_signal.load() == 0 && !daemon->stats().draining)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
    if (const int sig = g_signal.load())
        std::fprintf(stderr,
                     "qtenond: signal %d, draining...\n", sig);
    else
        std::fprintf(stderr,
                     "qtenond: shutdown requested, draining...\n");
    daemon->stop();

    const auto s = daemon->stats();
    daemon.reset(); // publishes its and its caches' totals

    std::fprintf(stderr,
                 "qtenond: drained (served %llu of %llu requests, "
                 "cache %llu/%llu hits)\n",
                 static_cast<unsigned long long>(s.served),
                 static_cast<unsigned long long>(s.requests),
                 static_cast<unsigned long long>(s.cache.hits),
                 static_cast<unsigned long long>(s.cache.hits +
                                                 s.cache.misses));

    if (!metricsJsonPath.empty()) {
        std::ofstream os(metricsJsonPath);
        if (!os) {
            std::fprintf(stderr,
                         "qtenond: cannot open --metrics-json "
                         "path '%s'\n",
                         metricsJsonPath.c_str());
            return 1;
        }
        obs::registry().writeJson(os);
    }
    return 0;
}
