/**
 * @file
 * Span recording and the traced layer-by-layer job replay.
 *
 * The replay calls each layer's public entry point itself — the same
 * calls, in the same order, with the same RNG stream as
 * service::runJobSpec and vqa::VqaDriver::run — so its result must
 * be bit-identical to an untraced job, and the time between the
 * calls is what each layer costs.
 */

#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hh"
#include "core/qtenon_system.hh"
#include "quantum/backend.hh"
#include "service/json.hh"
#include "service/results_store.hh"
#include "vqa/optimizer.hh"

namespace perfbench {

using namespace qtenon;

namespace {

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

/** The calling thread's open and closed spans. */
struct ThreadSpans {
    std::vector<Span> spans;
    /** Child time per span, parallel to spans. */
    std::vector<std::int64_t> childNs;
    std::int32_t open = -1;
    std::uint32_t thread = 0;
};

std::atomic<std::uint32_t> nextThread{0};

ThreadSpans &
threadSpans()
{
    thread_local ThreadSpans t = [] {
        ThreadSpans s;
        s.thread = nextThread++;
        return s;
    }();
    return t;
}

} // namespace

Layer::Layer(const char *name)
{
    auto &t = threadSpans();
    _index = static_cast<std::int32_t>(t.spans.size());
    Span s;
    s.name = name;
    s.parent = t.open;
    s.thread = t.thread;
    s.startNs = nowNs();
    t.spans.push_back(s);
    t.childNs.push_back(0);
    t.open = _index;
}

Layer::~Layer()
{
    auto &t = threadSpans();
    Span &s = t.spans[static_cast<std::size_t>(_index)];
    s.endNs = nowNs();
    const std::int64_t dur = s.endNs - s.startNs;
    s.selfNs = dur - t.childNs[static_cast<std::size_t>(_index)];
    if (s.parent >= 0)
        t.childNs[static_cast<std::size_t>(s.parent)] += dur;
    t.open = s.parent;
}

std::vector<Span>
takeThreadSpans()
{
    auto &t = threadSpans();
    if (t.open >= 0)
        throw std::logic_error("takeThreadSpans inside an open span");
    std::vector<Span> spans;
    spans.swap(t.spans);
    // Pre-size for the next job so span pushes rarely reallocate
    // inside a measured span.
    t.spans.reserve(spans.size());
    t.childNs.clear();
    return spans;
}

void
writeSpans(const std::string &path,
           const std::vector<JobRecord> &records)
{
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    const char *sep = "\n";
    for (const auto &rec : records) {
        for (const auto &s : rec.layers.spans) {
            os << sep << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
               << ",\"name\":\"" << s.name
               << "\",\"ts\":" << static_cast<double>(s.startNs) / 1e3
               << ",\"dur\":"
               << static_cast<double>(s.endNs - s.startNs) / 1e3
               << ",\"args\":{\"job\":" << rec.result.jobId
               << ",\"self_us\":" << static_cast<double>(s.selfNs) / 1e3
               << "}}";
            sep = ",\n";
        }
    }
    os << "\n]}\n";
    if (!os)
        throw std::runtime_error("cannot write span dump " + path);
}

std::string
resultBytes(const service::JobResult &r)
{
    return service::jobResultToJson(r, /*deterministic_only=*/true)
        .dump(0);
}

void
runTracedJob(const service::JobSpec &spec, service::JobContext &ctx,
             isa::CompileCache *cache, JobLayers &out)
{
    const auto &dcfg = spec.driver;
    if (!spec.faultSpec.empty() || dcfg.injector ||
        dcfg.useExactCost || dcfg.readoutError != 0.0)
        throw std::invalid_argument(
            "traced replay mirrors only the fault-free sampled path");

    Layer job("job");
    service::JobResult &r = ctx.result;
    r.compileMode =
        runtime::compileModeName(spec.qtenon.software.compile);
    ctx.token.checkpoint();

    std::optional<vqa::Workload> w;
    {
        Layer l("vqa.build");
        w.emplace(vqa::Workload::build(spec.workload));
    }
    auto &circuit = w->circuit;
    const auto n = circuit.numQubits();

    // vqa::VqaDriver::run, one public call per span.
    runtime::VqaTrace trace;
    trace.numQubits = n;
    isa::PipelineConfig pipe;
    pipe.vectorIsa = dcfg.isaVector;
    isa::QtenonCompiler compiler(isa::CompilerCostModel{}, pipe);
    {
        Layer l("isa.compile");
        bool hit = false;
        trace.image = cache ? cache->compile(circuit, compiler, &hit)
                            : compiler.compile(circuit);
        out.compiles += 1;
        out.compileHits += hit ? 1 : 0;
    }

    quantum::BackendConfig bcfg;
    bcfg.kind = dcfg.backend;
    bcfg.exactCap = dcfg.exactCap;
    bcfg.kernel = dcfg.kernel;
    std::unique_ptr<quantum::Backend> backend;
    {
        Layer l("quantum.alloc");
        backend = quantum::makeBackend(n, bcfg);
    }
    sim::Rng rng(ctx.seed);
    trace.backend = backend->name();

    std::unique_ptr<vqa::Optimizer> opt;
    if (dcfg.optimizer == vqa::OptimizerKind::GradientDescent)
        opt = std::make_unique<vqa::GradientDescent>();
    else
        opt = std::make_unique<vqa::Spsa>(0.2, 0.2,
                                          ctx.seed ^ 0xABCDu);
    const auto num_params = circuit.numParameters();
    const double opt_ops_per_round =
        opt->optimizerOps(num_params) /
        static_cast<double>(opt->evalsPerIteration(num_params));
    const bool record_shots = dcfg.recordShotData && n <= 64;
    std::vector<double> prev_params = circuit.parameters();

    vqa::EvalOracle oracle = [&](const std::vector<double> &params) {
        Layer eval("vqa.evaluate");
        circuit.setParameters(params);
        runtime::RoundRecord round;
        {
            Layer l("isa.plan_updates");
            round.updates =
                compiler.planUpdates(trace.image, prev_params, params);
        }
        prev_params = params;
        round.shots = dcfg.shots;
        round.postOpsPerShot = w->cost->opsPerShot();
        round.optimizerOps = opt_ops_per_round;
        {
            Layer l("quantum.run");
            backend->run(circuit);
        }
        out.quantumRuns += 1;
        double cost = 0.0;
        if (n <= 64) {
            std::vector<std::uint64_t> shots;
            {
                Layer l("vqa.sample");
                shots = backend->sample(dcfg.shots, rng);
            }
            {
                Layer l("vqa.score");
                cost = w->cost->fromShots(shots);
            }
            if (record_shots)
                round.shotData = std::move(shots);
        } else {
            std::vector<double> p1;
            {
                Layer l("vqa.marginals");
                p1 = backend->marginals();
            }
            Layer l("vqa.score");
            cost = w->cost->fromMarginals(p1);
        }
        trace.rounds.push_back(std::move(round));
        return cost;
    };

    std::vector<double> params = circuit.parameters();
    for (std::uint32_t it = 0; it < dcfg.iterations; ++it) {
        Layer l("vqa.optimizer");
        trace.costHistory.push_back(opt->iterate(params, oracle));
    }
    circuit.setParameters(params);
    {
        Layer l("quantum.alloc");
        backend.reset();
    }

    r.backend = trace.backend;
    r.costHistory = trace.costHistory;
    r.finalCost =
        trace.costHistory.empty() ? 0.0 : trace.costHistory.back();
    r.rounds = trace.rounds.size();
    ctx.token.checkpoint();

    // service::runJobSpec's replay on every host, then the baseline.
    auto hosts = spec.hosts;
    if (hosts.empty())
        hosts.push_back(spec.qtenon.host);
    for (std::size_t h = 0; h < hosts.size(); ++h) {
        auto qcfg = spec.qtenon;
        qcfg.numQubits = spec.workload.numQubits;
        qcfg.host = hosts[h];
        qcfg.software.vectorIsa = dcfg.isaVector;
        std::optional<core::QtenonSystem> sys;
        {
            Layer l("runtime.system");
            sys.emplace(qcfg);
        }
        const sim::Tick shot = sys->shotDuration(circuit);
        r.shotDuration = shot;
        service::SystemRun run;
        run.label = hosts[h].name;
        const auto replay_start = Clock::now();
        {
            Layer l("runtime.install");
            run.setup = sys->executor().installProgram(trace.image);
        }
        for (const auto &round : trace.rounds) {
            ctx.token.checkpoint();
            Layer l("runtime.round");
            run.rounds +=
                sys->executor().executeRound(round, trace.image, shot);
        }
        out.replayNs += static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - replay_start)
                .count());
        run.total = run.setup;
        run.total += run.rounds;
        run.busTransactions = sys->bus().transactions.value();
        run.pulsesGenerated = sys->controller().pulsesGenerated.value();
        run.sltHits = sys->controller().slt().hits;
        run.sltMisses = sys->controller().slt().misses;
        run.simTicks = sys->eventQueue().curTick();
        out.qtenonRounds += static_cast<double>(trace.rounds.size());
        out.busTxnsAllHosts += run.busTransactions;
        if (h == 0) {
            out.busTxns += run.busTransactions;
            out.l2Hits += sys->l2().hits.value();
            out.l2Misses += sys->l2().misses.value();
            out.pulses += run.pulsesGenerated;
            out.roccTransfers +=
                sys->controller().roccTransfers.value();
            out.sltHits += static_cast<double>(run.sltHits);
            out.sltMisses += static_cast<double>(run.sltMisses);
        }
        r.simTicks += run.simTicks;
        r.systems.push_back(std::move(run));
        Layer l("runtime.system");
        sys.reset();
    }

    if (spec.runBaseline) {
        ctx.token.checkpoint();
        std::optional<baseline::DecoupledSystem> base;
        {
            Layer l("baseline.replay");
            base.emplace(spec.baselineCfg);
        }
        service::SystemRun run;
        run.label = "baseline";
        for (const auto &round : trace.rounds) {
            ctx.token.checkpoint();
            Layer l("baseline.replay");
            run.rounds += base->executeRound(circuit, round);
        }
        run.total = run.rounds;
        r.systems.push_back(std::move(run));
    }

    Layer l("vqa.build");
    w.reset();
}

namespace {

/** Per-layer metric names and units, in report order. */
const std::pair<const char *, const char *> layerMetrics[] = {
    {"quantum.run_ms", "ms"},
    {"quantum.runs", "count"},
    {"quantum.alloc_ms", "ms"},
    {"vqa.build_ms", "ms"},
    {"vqa.sample_ms", "ms"},
    {"vqa.score_ms", "ms"},
    {"vqa.marginals_ms", "ms"},
    {"vqa.optimizer_ms", "ms"},
    {"vqa.evaluate_ms", "ms"},
    {"isa.compile_ms", "ms"},
    {"isa.plan_ms", "ms"},
    {"isa.cache_hit_ratio", "ratio"},
    {"runtime.system_ms", "ms"},
    {"runtime.install_ms", "ms"},
    {"runtime.round_us", "us"},
    {"runtime.rounds", "count"},
    {"runtime.ns_per_bus_txn", "ns"},
    {"memory.bus_txns", "count"},
    {"memory.l2_hit_ratio", "ratio"},
    {"controller.pulses", "count"},
    {"controller.rocc_transfers", "count"},
    {"controller.slt_hit_ratio", "ratio"},
    {"sim.pulsegen_ms", "ms"},
    {"sim.comm_ms", "ms"},
    {"sim.host_ms", "ms"},
    {"sim.quantum_ms", "ms"},
    {"baseline.replay_ms", "ms"},
    {"service.serialize_ms", "ms"},
    {"daemon.hit_ms_p50", "ms"},
    {"daemon.miss_ms_p50", "ms"},
    {"daemon.overhead_ms_p50", "ms"},
    {"daemon.queue_wait_ms_p50", "ms"},
    {"daemon.unattributed_ms_p50", "ms"},
    {"daemon.result_hit_ratio", "ratio"},
    {"daemon.rejected", "count"},
    {"trace.overhead_ms", "ms"},
    {"accounting.unattributed_pct", "%"},
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
zeroLayerMetrics(Outcome &out)
{
    for (const auto &[name, unit] : layerMetrics)
        out.set(name, 0.0, unit);
}

double
simSpeedup(const service::JobResult &r, bool classical)
{
    const auto *rocket = r.system("rocket");
    const auto *base = r.system("baseline");
    if (!rocket || !base)
        throw std::runtime_error("job '" + r.name +
                                 "' lacks a rocket or baseline replay");
    const auto num = classical ? base->total.classical()
                               : base->total.wall;
    const auto den = classical ? rocket->total.classical()
                               : rocket->total.wall;
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

void
addJobLayerMetrics(Outcome &out, const std::vector<JobRecord> &traced,
                   double serialize_ns)
{
    if (traced.empty())
        return;
    std::map<std::string, double> self;
    JobLayers sum;
    runtime::TimeBreakdown sim;
    double wall_ns = 0.0;
    double unattributed_ns = 0.0;
    for (const auto &rec : traced) {
        const auto &l = rec.layers;
        double layered = 0.0;
        for (const auto &s : l.spans) {
            const auto ns = static_cast<double>(s.selfNs);
            self[s.name] += ns;
            if (s.parent >= 0)
                layered += ns;
        }
        const auto wall = static_cast<double>(rec.result.wallNs);
        const double rest = wall - layered;
        wall_ns += wall;
        unattributed_ns += rest;
        if (std::abs(rest) >
            kAccountingTolerance * wall + kAccountingSlackNs)
            out.fail("layer self times of job '" + rec.result.name +
                     "' leave " + std::to_string(rest / 1e6) +
                     " ms of its " + std::to_string(wall / 1e6) +
                     " ms host time unattributed");
        sum.quantumRuns += l.quantumRuns;
        sum.qtenonRounds += l.qtenonRounds;
        sum.replayNs += l.replayNs;
        sum.busTxns += l.busTxns;
        sum.busTxnsAllHosts += l.busTxnsAllHosts;
        sum.l2Hits += l.l2Hits;
        sum.l2Misses += l.l2Misses;
        sum.pulses += l.pulses;
        sum.roccTransfers += l.roccTransfers;
        sum.sltHits += l.sltHits;
        sum.sltMisses += l.sltMisses;
        sum.compileHits += l.compileHits;
        sum.compiles += l.compiles;
        if (const auto *rocket = rec.result.system("rocket"))
            sim += rocket->total;
    }

    const auto jobs = static_cast<double>(traced.size());
    auto per_job_ms = [&](const char *span) {
        return self[span] / jobs / 1e6;
    };
    auto sim_ms = [&](sim::Tick t) {
        return static_cast<double>(t) /
            static_cast<double>(sim::msTicks) / jobs;
    };
    out.set("quantum.run_ms", per_job_ms("quantum.run"), "ms");
    out.set("quantum.runs", sum.quantumRuns / jobs, "count");
    out.set("quantum.alloc_ms", per_job_ms("quantum.alloc"), "ms");
    out.set("vqa.build_ms", per_job_ms("vqa.build"), "ms");
    out.set("vqa.sample_ms", per_job_ms("vqa.sample"), "ms");
    out.set("vqa.score_ms", per_job_ms("vqa.score"), "ms");
    out.set("vqa.marginals_ms", per_job_ms("vqa.marginals"), "ms");
    out.set("vqa.optimizer_ms", per_job_ms("vqa.optimizer"), "ms");
    out.set("vqa.evaluate_ms", per_job_ms("vqa.evaluate"), "ms");
    out.set("isa.compile_ms", per_job_ms("isa.compile"), "ms");
    out.set("isa.plan_ms", per_job_ms("isa.plan_updates"), "ms");
    out.set("isa.cache_hit_ratio", ratio(sum.compileHits, sum.compiles),
            "ratio");
    out.set("runtime.system_ms", per_job_ms("runtime.system"), "ms");
    out.set("runtime.install_ms", per_job_ms("runtime.install"), "ms");
    out.set("runtime.round_us",
            ratio(self["runtime.round"], sum.qtenonRounds) / 1e3, "us");
    out.set("runtime.rounds", sum.qtenonRounds / jobs, "count");
    out.set("runtime.ns_per_bus_txn",
            ratio(sum.replayNs, sum.busTxnsAllHosts), "ns");
    out.set("memory.bus_txns", sum.busTxns / jobs, "count");
    out.set("memory.l2_hit_ratio",
            ratio(sum.l2Hits, sum.l2Hits + sum.l2Misses), "ratio");
    out.set("controller.pulses", sum.pulses / jobs, "count");
    out.set("controller.rocc_transfers", sum.roccTransfers / jobs,
            "count");
    out.set("controller.slt_hit_ratio",
            ratio(sum.sltHits, sum.sltHits + sum.sltMisses), "ratio");
    out.set("sim.pulsegen_ms", sim_ms(sim.pulseGen), "ms");
    out.set("sim.comm_ms", sim_ms(sim.comm), "ms");
    out.set("sim.host_ms", sim_ms(sim.host), "ms");
    out.set("sim.quantum_ms", sim_ms(sim.quantum), "ms");
    out.set("baseline.replay_ms", per_job_ms("baseline.replay"), "ms");
    out.set("service.serialize_ms", serialize_ns / jobs / 1e6, "ms");
    out.set("accounting.unattributed_pct",
            100.0 * ratio(unattributed_ns, wall_ns), "%");
}

void
confirmLargestLayer(Outcome &out, const std::string &expected)
{
    auto m = [&](const char *name) { return out.metrics[name].value; };
    const std::pair<std::string, double> layers[] = {
        {"quantum.run", m("quantum.run_ms")},
        {"vqa.sample+score", m("vqa.sample_ms") + m("vqa.score_ms")},
        {"vqa.marginals", m("vqa.marginals_ms")},
        {"vqa.optimizer", m("vqa.optimizer_ms")},
        {"vqa.build+evaluate", m("vqa.build_ms") + m("vqa.evaluate_ms")},
        {"isa.compile+plan", m("isa.compile_ms") + m("isa.plan_ms")},
        {"runtime.install+rounds",
         m("runtime.install_ms") +
             m("runtime.round_us") * m("runtime.rounds") / 1e3},
        {"runtime.system", m("runtime.system_ms")},
        {"baseline.replay", m("baseline.replay_ms")},
    };
    const auto *best = &layers[0];
    double total = 0.0;
    for (const auto &l : layers) {
        total += l.second;
        if (l.second > best->second)
            best = &l;
    }
    out.note("confirm: largest layer " + best->first + " (" +
             std::to_string(100.0 * ratio(best->second, total)) +
             "% of layered job time), expected " + expected + ": " +
             (best->first == expected ? "yes" : "NO"));
}

} // namespace perfbench
