/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--expect-digest HEX] [--workers W] [--out-dir DIR]
 *
 * Prints the run's environment and notes, then as its last stdout
 * line one JSON object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer
 * metrics with --trace 1. Exits 1 when a correctness check fails,
 * 2 on bad arguments, 3 when built without optimization.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.hh"
#include "quantum/statevector.hh"

namespace perfbench {

void
Outcome::fail(const std::string &why)
{
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace perfbench

namespace {

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "gd-sv16|gd-mf64|spsa-320|daemon-mix --seed N "
                 "--seconds S --trace 0|1 [--expect-digest HEX] "
                 "[--workers W] [--out-dir DIR]\n",
                 why);
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The environment the figures were measured in, as one JSON line. */
std::string
environmentJson(const Options &opt)
{
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    const std::string simd =
        qtenon::quantum::StateVector(1, 24, {}).simdBackendName();
    return "{\"nproc\":" + std::to_string(nproc) +
        ",\"hardware_concurrency\":" +
        std::to_string(std::thread::hardware_concurrency()) +
        ",\"workers\":" + std::to_string(opt.workers) +
        ",\"simd_backend\":" + jsonString(simd) +
        ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
        ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opt.workload = value;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (arg == "--trace") {
                opt.trace = std::stoi(value) != 0;
                have_trace = true;
            } else if (arg == "--expect-digest") {
                opt.expectDigest = value;
            } else if (arg == "--workers") {
                opt.workers =
                    static_cast<unsigned>(std::stoul(value));
            } else if (arg == "--out-dir") {
                opt.outDir = value;
            } else {
                return usage(("unknown option " + arg).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (opt.workload.empty() || !have_trace)
        return usage("--workload and --trace are required");
    if (!(opt.seconds > 0.0) || opt.workers == 0)
        return usage("--seconds and --workers must be positive");

    std::printf("env: %s\n", environmentJson(opt).c_str());
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to report figures from "
                         "an unoptimized build\n");
    return 3;
#endif

    Outcome out;
    try {
        if (isBatchWorkload(opt.workload))
            out = runBatchWorkload(opt);
        else if (opt.workload == "daemon-mix")
            out = runDaemonMix(opt);
        else
            return usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    if (!opt.expectDigest.empty() && out.digest != opt.expectDigest)
        out.fail("output digest " + out.digest +
                 " differs from the recorded " + opt.expectDigest);
    if (out.attempted == 0)
        out.fail("no operation completed in the measured window");

    for (const auto &line : out.notes)
        std::printf("%s\n", line.c_str());
    std::printf("digest: %s\n", out.digest.c_str());
    std::string metrics;
    for (const auto &[name, m] : out.metrics) {
        metrics += (metrics.empty() ? "" : ", ") + jsonString(name) +
            ": {\"value\": " + number(m.value) +
            ", \"unit\": " + jsonString(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    std::fflush(stdout);
    return out.correct ? 0 : 1;
}
