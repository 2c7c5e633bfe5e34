/**
 * @file
 * Shared command-line parsing for the service-backed sweep binaries:
 *
 *   --jobs N         worker threads (default: QTENON_JOBS env, then
 *                    hardware concurrency)
 *   --qubits a,b,c   override the qubit sizes swept
 *   --seed S         base RNG seed (each job derives its own)
 *   --json PATH      export the batch's ResultsStore as JSON
 *   --timeout-ms N   per-job cooperative deadline
 *   --backend NAME   force the functional engine (auto, statevector,
 *                    meanfield, stabilizer, densitymatrix)
 *   --sv-fusion      enable single-qubit gate fusion in the
 *                    statevector kernels
 *   --sv-threads N   statevector kernel threads (1 = serial,
 *                    0 = auto up to the batch budget)
 *   --sv-simd MODE   statevector kernel backend (auto = widest
 *                    instruction set the CPU supports, scalar =
 *                    force the portable backend)
 *   --isa-vector     compile + replay with the vector ISA
 *   --metrics-json PATH  enable the obs metrics registry and dump
 *                    its JSON snapshot at exit
 *   --trace-out PATH install a Chrome trace-event sink and write
 *                    the timeline JSON at exit (load in Perfetto)
 *   --fault-spec S   deterministic fault plan, e.g.
 *                    eth.drop=0.01,adi.jitter=200 (see
 *                    fault::FaultSpec::parse)
 *   --dump-after PASS print the compile context after the named
 *                    lowering pass (isa/pass/)
 *   --compile-cache N share a content-addressed compile cache of
 *                    N structural images across the batch
 *   --retry-attempts N    job-level retry budget (default 1)
 *   --retry-backoff-ms N  base backoff before the first job retry
 *   --retry-jitter F      backoff jitter fraction in [0, 1)
 *
 * so sweeps are reconfigurable without recompiling. Options are
 * declared against `cli::OptionRegistry` (one registration each,
 * generated --help); binaries add private options via the `extra`
 * hook of parseSweepCli. Every job spec a sweep binary runs comes
 * from SweepCli::job, so every option that describes a job reaches
 * every job; a job with a custom body fails with a ConfigError when
 * --fault-spec is given (service::runJobSpec cannot inject into a
 * body it does not run). The statevector knobs default to the
 * bit-identical configuration (auto backend, no fusion, serial
 * kernels) and the fault plan defaults to empty, so figure outputs
 * only change when a knob is passed explicitly.
 */

#ifndef QTENON_BENCH_SWEEP_CLI_HH
#define QTENON_BENCH_SWEEP_CLI_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "fault/fault.hh"
#include "isa/pass/compile_cache.hh"
#include "isa/pass/pass_manager.hh"
#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "quantum/backend.hh"
#include "service/batch_scheduler.hh"
#include "sim/logging.hh"
#include "sim/option_registry.hh"

namespace qtenon::bench {

/** Parsed sweep options. */
struct SweepCli {
    unsigned jobs = 0; // 0 = QTENON_JOBS env / hardware
    std::vector<std::uint32_t> qubits; // empty = binary default
    std::uint64_t seed = 7;
    std::string jsonPath;
    std::chrono::milliseconds timeout{0};
    quantum::BackendKind backend = quantum::BackendKind::Auto;
    bool svFusion = false;
    unsigned svThreads = 1; // 1 = serial, 0 = auto (budgeted)
    quantum::SimdMode svSimd = quantum::SimdMode::Auto;
    /** --isa-vector: compile + replay with the wave-granular vector
     *  ISA (q_update.v / q_gen.v); off keeps the byte-stable scalar
     *  instruction stream. */
    bool isaVector = false;
    std::string metricsJsonPath;
    std::string traceOutPath;
    /** Parsed --fault-spec; empty = perfect links. */
    fault::FaultSpec faultSpec;
    /** Job-level retry policy (--retry-*), in milliseconds. */
    fault::RetryPolicy retry;
    /** The installed trace sink (kept alive until finish()). */
    std::shared_ptr<obs::TraceEventSink> trace;
    /** --dump-after pass name (empty = no dump). */
    std::string dumpAfter;
    /** --compile-cache capacity; 0 = no cache (the default). */
    std::size_t compileCacheCap = 0;
    /** The compile cache --compile-cache made, shared by every job
     *  (kept alive until writeObservability() releases it, which
     *  publishes its counts before the metrics dump). */
    mutable std::shared_ptr<isa::CompileCache> compileCache;

    /**
     * paperConfig(@p alg, @p opt, @p qubits, @p host) with every
     * shared option that describes a job applied: the seed, the
     * engine and kernel knobs, --isa-vector, the --compile-cache
     * cache, --fault-spec and --retry-*. Every job a sweep binary
     * runs starts here.
     */
    service::JobSpec
    job(vqa::Algorithm alg, vqa::OptimizerKind opt,
        std::uint32_t qubits,
        runtime::HostCoreModel host =
            runtime::HostCoreModel::rocket()) const
    {
        auto spec = paperConfig(alg, opt, qubits, std::move(host));
        auto &d = spec.driver;
        d.seed = seed;
        d.backend = backend;
        d.kernel.fuse1q = svFusion;
        d.kernel.threads = svThreads;
        d.kernel.simd = svSimd;
        d.isaVector = isaVector;
        d.compileCache = compileCache.get();
        spec.faultSpec = faultSpec;
        spec.retry = retry;
        return spec;
    }

    /** Scheduler config honouring --jobs and --timeout-ms. */
    service::SchedulerConfig
    schedulerConfig() const
    {
        service::SchedulerConfig cfg;
        cfg.workers = jobs;
        cfg.defaultTimeout = timeout;
        return cfg;
    }

    /** The swept sizes, or @p fallback when --qubits was not given. */
    std::vector<std::uint32_t>
    qubitsOr(std::vector<std::uint32_t> fallback) const
    {
        return qubits.empty() ? std::move(fallback) : qubits;
    }

    /** Write the store to --json (if given) and report metrics. */
    void
    finish(const service::BatchScheduler &sched) const
    {
        const auto m = sched.metrics();
        std::printf("\nscheduler: %zu jobs on %u workers in %.2f s "
                    "(serial-equivalent %.2f s, speedup %.2fx); "
                    "%zu ok, %zu failed, %zu timed out, %zu "
                    "cancelled\n",
                    m.completed, m.workers,
                    static_cast<double>(m.batchWallNs) / 1e9,
                    static_cast<double>(m.totalJobWallNs) / 1e9,
                    m.speedup(), m.ok, m.failed, m.timedOut,
                    m.cancelled);
        if (!jsonPath.empty()) {
            std::ofstream os(jsonPath);
            if (!os)
                sim::fatal("cannot open --json path '", jsonPath,
                           "'");
            sched.results().toJson(os);
            std::printf("results exported to %s\n",
                        jsonPath.c_str());
        }
        writeObservability();
    }

    /**
     * Release the compile cache, dump --metrics-json /
     * --trace-out (when given) and uninstall the trace sink. Call
     * once, after the batch finished; finish() does it for
     * scheduler-backed binaries.
     */
    void
    writeObservability() const
    {
        compileCache.reset();
        if (!metricsJsonPath.empty()) {
            std::ofstream os(metricsJsonPath);
            if (!os)
                sim::fatal("cannot open --metrics-json path '",
                           metricsJsonPath, "'");
            obs::registry().writeJson(os);
            std::printf("metrics exported to %s\n",
                        metricsJsonPath.c_str());
        }
        if (trace) {
            obs::setTraceSink(nullptr);
            std::ofstream os(traceOutPath);
            if (!os)
                sim::fatal("cannot open --trace-out path '",
                           traceOutPath, "'");
            trace->write(os);
            std::printf("trace timeline exported to %s "
                        "(load in https://ui.perfetto.dev)\n",
                        traceOutPath.c_str());
        }
    }
};

/** Register the shared sweep options against @p cli. */
inline void
registerSweepOptions(cli::OptionRegistry &reg, SweepCli &cli)
{
    reg.uns("--jobs", "N",
            "worker threads (default: QTENON_JOBS env, then "
            "hardware concurrency)",
            &cli.jobs, 1, "--jobs must be a positive integer");
    reg.list<std::uint32_t>("--qubits", "a,b,c",
                            "override the qubit sizes swept",
                            &cli.qubits, 1, UINT32_MAX);
    reg.u64("--seed", "S",
            "base RNG seed (each job derives its own)", &cli.seed);
    reg.str("--json", "PATH",
            "export the batch's ResultsStore as JSON",
            &cli.jsonPath);
    reg.ms("--timeout-ms", "N", "per-job cooperative deadline",
           &cli.timeout, "--timeout-ms must be positive");
    reg.add("--backend", "NAME",
            "force the functional engine (auto, statevector, "
            "meanfield, stabilizer, densitymatrix)",
            [&cli](const std::string &v) {
                cli.backend = quantum::backendKindFromName(v);
            });
    reg.flag("--sv-fusion",
             "enable single-qubit gate fusion in the statevector "
             "kernels",
             &cli.svFusion);
    reg.uns("--sv-threads", "N",
            "statevector kernel threads (1 = serial, 0 = auto up "
            "to the batch budget)",
            &cli.svThreads, 0,
            "--sv-threads must be a non-negative integer");
    reg.add("--sv-simd", "MODE",
            "statevector kernel backend (auto, scalar); all "
            "backends are bit-identical",
            [&cli](const std::string &v) {
                cli.svSimd = quantum::simdModeFromName(v);
            });
    reg.flag("--isa-vector",
             "compile and replay with the wave-granular vector ISA "
             "(q_update.v / q_gen.v); off keeps the byte-stable "
             "scalar instruction stream",
             &cli.isaVector);
    reg.str("--metrics-json", "PATH",
            "enable the obs metrics registry and dump its JSON "
            "snapshot at exit",
            &cli.metricsJsonPath);
    reg.str("--trace-out", "PATH",
            "install a Chrome trace-event sink and write the "
            "timeline JSON at exit (load in Perfetto)",
            &cli.traceOutPath);
    reg.str("--dump-after", "PASS",
            "print the compile context after the named lowering "
            "pass (gate-fusion, swap-routing, edge-coloring, "
            "slt-layout, entry-packing)",
            &cli.dumpAfter);
    reg.add("--compile-cache", "N",
            "share a content-addressed compile cache of N "
            "structural images across the batch (0 = no cache, "
            "the default; images are byte-identical either way)",
            [&cli](const std::string &v) {
                cli.compileCacheCap = cli::parseValue<std::size_t>(
                    "--compile-cache", v, 0, SIZE_MAX);
            });
    reg.add("--fault-spec", "SPEC",
            "deterministic fault plan, e.g. "
            "eth.drop=0.01,adi.jitter=200 (kinds: drop dup corrupt "
            "reorder error stall flip jitter stall_ns; seed=N pins "
            "the injection seed)",
            [&cli](const std::string &v) {
                cli.faultSpec = fault::FaultSpec::parse(v);
            });
    reg.uns("--retry-attempts", "N",
            "job-level retry budget, attempts including the first "
            "(default 1 = no retry)",
            &cli.retry.maxAttempts, 1,
            "--retry-attempts must be a positive integer");
    reg.u64("--retry-backoff-ms", "N",
            "base backoff before the first job retry "
            "(doubles per further retry)",
            &cli.retry.backoff);
    reg.add("--retry-jitter", "F",
            "deterministic backoff jitter fraction in [0, 1)",
            [&cli](const std::string &v) {
                const auto f = cli::toReal(v, 0.0, 1.0);
                if (!f || *f >= 1.0)
                    sim::fatal("--retry-jitter must be in [0, 1)");
                cli.retry.jitter = *f;
            });
}

/**
 * Parse the shared sweep arguments; exits on --help or bad input.
 * @p extra lets a binary register its own options on the same
 * registry (they appear in the generated --help too).
 */
inline SweepCli
parseSweepCli(int argc, char **argv,
              const std::function<void(cli::OptionRegistry &)>
                  &extra = {})
{
    SweepCli cli;
    cli::OptionRegistry reg;
    registerSweepOptions(reg, cli);
    if (extra)
        extra(reg);
    reg.parse(argc, argv);
    if (!cli.metricsJsonPath.empty())
        obs::setMetricsEnabled(true);
    if (!cli.dumpAfter.empty())
        isa::pass::setDumpAfter(cli.dumpAfter);
    if (cli.compileCacheCap > 0)
        cli.compileCache = std::make_shared<isa::CompileCache>(
            cli.compileCacheCap);
    if (!cli.traceOutPath.empty()) {
        cli.trace = std::make_shared<obs::TraceEventSink>();
        obs::setTraceSink(cli.trace.get());
    }
    return cli;
}

} // namespace qtenon::bench

#endif // QTENON_BENCH_SWEEP_CLI_HH
