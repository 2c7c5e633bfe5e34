#include "driver.hh"

#include <bit>
#include <memory>
#include <optional>

#include "evaluator.hh"
#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "quantum/kernels.hh"

namespace qtenon::vqa {

std::string
canonicalText(const DriverConfig &cfg)
{
    static const char digits[] = "0123456789abcdef";
    const auto ro = std::bit_cast<std::uint64_t>(cfg.readoutError);
    std::string rohex(16, '0');
    for (int i = 0; i < 16; ++i)
        rohex[15 - i] = digits[(ro >> (4 * i)) & 0xf];

    std::string out;
    out += "shots=" + std::to_string(cfg.shots);
    out += ";iters=" + std::to_string(cfg.iterations);
    out += ";opt=";
    out += cfg.optimizer == OptimizerKind::GradientDescent ? "gd"
                                                           : "spsa";
    out += ";seed=" + std::to_string(cfg.seed);
    out += ";cap=" + std::to_string(cfg.exactCap);
    out += ";backend=";
    out += quantum::backendKindName(cfg.backend);
    out += ";fuse=" + std::to_string(cfg.kernel.fuse1q ? 1 : 0);
    out += ";threads=" + std::to_string(cfg.kernel.threads);
    out += ";pmin=" + std::to_string(cfg.kernel.parallelMinQubits);
    out += ";simd=";
    out += quantum::simdModeName(cfg.kernel.simd);
    out += ";shotdata=" +
        std::to_string(cfg.recordShotData ? 1 : 0);
    out += ";exact=" + std::to_string(cfg.useExactCost ? 1 : 0);
    out += ";ro=" + rohex;
    // Appended only when set so historical cache keys survive.
    if (cfg.isaVector)
        out += ";vector=1";
    return out;
}

runtime::VqaTrace
VqaDriver::run(Workload &w)
{
    const auto n = w.circuit.numQubits();
    runtime::VqaTrace trace;
    trace.numQubits = n;

    isa::PipelineConfig pipe;
    pipe.vectorIsa = _cfg.isaVector;
    isa::QtenonCompiler compiler(isa::CompilerCostModel{}, pipe);
    trace.image = _cfg.compileCache
        ? _cfg.compileCache->compile(w.circuit, compiler)
        : compiler.compile(w.circuit);

    EvaluatorConfig ecfg;
    ecfg.backend.kind = _cfg.backend;
    ecfg.backend.exactCap = _cfg.exactCap;
    ecfg.backend.kernel = _cfg.kernel;
    ecfg.shots = _cfg.shots;
    ecfg.useExactCost = _cfg.useExactCost;
    ecfg.readoutError = _cfg.readoutError;
    ecfg.injector = _cfg.injector;
    CostEvaluator eval(n, ecfg, _cfg.seed);
    trace.backend = eval.backend().name();

    std::unique_ptr<Optimizer> opt;
    if (_cfg.optimizer == OptimizerKind::GradientDescent)
        opt = std::make_unique<GradientDescent>();
    else
        opt = std::make_unique<Spsa>(0.2, 0.2, _cfg.seed ^ 0xABCDu);

    const auto num_params = w.circuit.numParameters();
    const double opt_ops_per_round =
        opt->optimizerOps(num_params) /
        static_cast<double>(opt->evalsPerIteration(num_params));
    const bool record_shots = _cfg.recordShotData && n <= 64;

    std::vector<double> prev_params = w.circuit.parameters();

    fault::FaultInjector *inj = _cfg.injector;
    const fault::SiteId eval_site = inj ? inj->site("eval") : 0;
    const bool eval_faults = inj && inj->active(eval_site);
    const std::uint32_t eval_budget = eval_faults
        ? std::max(1u, _cfg.evalRetry.maxAttempts) : 1;
    double last_good = 0.0;
    bool have_good = false;
    // The parameters an iteration starts from: every oracle call of
    // that iteration is a probe around them.
    std::vector<double> base;

    const std::string engine = trace.backend;
    EvalOracle oracle = [&](const std::vector<double> &params) {
        std::optional<obs::ScopedSpan> span;
        if (obs::tracingEnabled())
            span.emplace("evaluate", "vqa",
                         std::vector<std::pair<std::string,
                                               std::string>>{
                             {"backend", engine}});
        if (obs::metricsEnabled()) {
            static auto &c = obs::counter(
                "vqa.evaluations", "cost-oracle evaluations");
            c.inc();
        }
        w.circuit.setParameters(params);
        double cost = 0.0;
        bool ok = false;
        for (std::uint32_t attempt = 1; attempt <= eval_budget;
             ++attempt) {
            // Every attempt costs a full round in the timing trace:
            // the shots ran even when the result is then lost. A
            // re-run needs no new parameter updates (prev == params).
            runtime::RoundRecord round;
            round.updates = compiler.planUpdates(trace.image,
                                                 prev_params, params);
            prev_params = params;
            round.shots = _cfg.shots;
            round.postOpsPerShot = w.cost->opsPerShot();
            round.optimizerOps = opt_ops_per_round;

            cost = eval.evaluate(
                w.circuit, *w.cost, base,
                record_shots ? &round.shotData : nullptr);
            trace.rounds.push_back(std::move(round));

            if (!eval_faults || !(inj->shouldDrop(eval_site) ||
                                  inj->shouldCorrupt(eval_site))) {
                ok = true;
                break;
            }
            if (attempt < eval_budget)
                inj->count(eval_site, "requeued");
        }
        if (!ok) {
            // Budget spent: discard the evaluation. Returning the
            // last good cost keeps GD finite differences at zero for
            // this term and keeps SPSA's symmetric step bounded,
            // instead of poisoning the optimizer with a corrupted
            // value.
            inj->count(eval_site, "discarded");
            if (have_good)
                cost = last_good;
        }
        last_good = cost;
        have_good = true;
        return cost;
    };

    std::vector<double> params = w.circuit.parameters();
    for (std::uint32_t it = 0; it < _cfg.iterations; ++it) {
        std::optional<obs::ScopedSpan> span;
        if (obs::tracingEnabled())
            span.emplace("iterate", "vqa",
                         std::vector<std::pair<std::string,
                                               std::string>>{
                             {"iteration", std::to_string(it)},
                             {"backend", engine}});
        if (obs::metricsEnabled()) {
            static auto &c = obs::counter(
                "vqa.iterations", "optimizer iterations");
            c.inc();
        }
        base = params;
        const double cost = opt->iterate(params, oracle);
        trace.costHistory.push_back(cost);
    }
    w.circuit.setParameters(params);

    return trace;
}

} // namespace qtenon::vqa
