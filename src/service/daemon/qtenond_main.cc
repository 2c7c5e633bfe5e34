/**
 * @file
 * The qtenond binary: run the serving daemon until SIGTERM/SIGINT
 * (or a client "shutdown" frame), then drain gracefully — every
 * admitted job completes and flushes its response before exit.
 *
 *   qtenond --socket qtenond.sock --jobs 4 --cache 1024
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "daemon.hh"
#include "obs/metrics.hh"
#include "sim/parse.hh"

namespace {

std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig);
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --socket PATH       AF_UNIX socket path "
        "(default qtenond.sock)\n"
        "  --jobs N            job threads "
        "(default: QTENON_JOBS, then hardware)\n"
        "  --queue-depth N     admission queue depth (default 64)\n"
        "  --quota N           per-client in-flight quota "
        "(default 16)\n"
        "  --cache N           result-cache entries; 0 disables "
        "(default 1024)\n"
        "  --compile-cache N   compile-cache structural entries; "
        "0 disables (default 256)\n"
        "  --timeout-ms N      default per-job deadline; 0 = none\n"
        "  --metrics-json PATH enable metrics, dump on exit\n"
        "  --help              this text\n",
        argv0);
}

/** @p value as a whole unsigned number that fits @p T; anything
 *  else exits with the usage code. */
template <typename T>
T
parseCount(const char *flag, const char *value)
{
    const auto n = qtenon::sim::toUint(value, 0,
                                       std::numeric_limits<T>::max());
    if (!n) {
        std::fprintf(stderr, "qtenond: bad value for %s: '%s'\n",
                     flag, value);
        std::exit(2);
    }
    return static_cast<T>(*n);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qtenon;

    service::daemon::DaemonConfig cfg;
    std::string metricsJsonPath;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "qtenond: %s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--socket") {
            cfg.socketPath = value("--socket");
        } else if (arg == "--jobs") {
            cfg.workers =
                parseCount<unsigned>("--jobs", value("--jobs"));
        } else if (arg == "--queue-depth") {
            cfg.maxQueueDepth = parseCount<std::size_t>(
                "--queue-depth", value("--queue-depth"));
        } else if (arg == "--quota") {
            cfg.perClientQuota =
                parseCount<std::size_t>("--quota", value("--quota"));
        } else if (arg == "--cache") {
            cfg.cacheCapacity =
                parseCount<std::size_t>("--cache", value("--cache"));
        } else if (arg == "--compile-cache") {
            cfg.compileCacheCapacity = parseCount<std::size_t>(
                "--compile-cache", value("--compile-cache"));
        } else if (arg == "--timeout-ms") {
            cfg.defaultTimeout = std::chrono::milliseconds(
                parseCount<std::chrono::milliseconds::rep>(
                    "--timeout-ms", value("--timeout-ms")));
        } else if (arg == "--metrics-json") {
            metricsJsonPath = value("--metrics-json");
        } else {
            std::fprintf(stderr, "qtenond: unknown option '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

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
