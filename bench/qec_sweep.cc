/**
 * @file
 * QEC feed-forward deadline sweep (src/qec/): repeated
 * repetition-code stabilizer rounds with decode -> correct
 * feed-forward under a per-round deadline, timed on the
 * tightly-coupled Qtenon path and on the decoupled UDP/Ethernet
 * baseline, at several injected loss rates, with corrections
 * delivered scalar (q_update) or vector (q_update.v, --isa-vector).
 *
 * Writes a machine-checkable artifact (--out, schema
 * "qtenon.qec-sweep.v1") whose criteria block is re-checked by
 * tests/test_artifacts.cc; --smoke exits nonzero unless every
 * criterion holds:
 *   - jobs_invariant: re-running the whole sweep on one worker
 *     reproduces every per-config digest bit for bit
 *   - tight_beats_decoupled: the tight path's deadline-miss rate is
 *     strictly below the decoupled baseline's at every tested loss
 *     rate, in both ISA modes
 *   - vector_reduces_rocc: the vector lowering issues strictly fewer
 *     RoCC instructions than the scalar one, both in the measured
 *     QEC rounds and in the analytic count for a >= 32-qubit ansatz
 *   - vector_moves_elements: q_update.v actually carried packed
 *     elements when enabled, and never fired when disabled
 */

#include <cstdio>
#include <string>
#include <vector>

#include "artifact.hh"
#include "bench_util.hh"
#include "sweep_cli.hh"

#include "core/hash.hh"
#include "isa/compiler.hh"
#include "qec/feed_forward.hh"
#include "service/batch_scheduler.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

struct Config {
    /** Stabilizer-measurement rounds per job. */
    std::uint32_t rounds = 10;
    /** Repetition-code distance (data qubits). */
    std::uint32_t distance = 5;
    /** Per-round feed-forward deadline. */
    std::uint64_t deadlineNs = 10000;
    std::vector<double> losses = {0.0, 0.01, 0.05};
    double dataErrorRate = 0.05;
    std::uint32_t ansatzQubits = 32;
    std::string outPath;
    bool smoke = false;
};

/** One (loss, isa-mode) configuration's results. */
struct Row {
    double loss = 0.0;
    bool vector = false;
    std::uint64_t rounds = 0;
    std::uint64_t tightMisses = 0;
    std::uint64_t decoupledMisses = 0;
    double tightMissRate = 0.0;
    double decoupledMissRate = 0.0;
    std::uint64_t roccTransfers = 0;
    std::uint64_t roccVectorElements = 0;
    std::uint64_t injectedErrors = 0;
    std::uint64_t correctionsApplied = 0;
    bool logicalValue = false;
    core::Digest128 digest;
    bool rerunMatches = false;
};

/** Content digest of everything a feed-forward run reports. */
core::Digest128
runDigest(const qec::FeedForwardResult &res)
{
    core::Fnv1a128 h;
    for (const auto &r : res.rounds) {
        h.update(r.tightNs);
        h.update(r.decoupledNs);
        h.update(std::uint64_t{r.tightMiss});
        h.update(std::uint64_t{r.decoupledMiss});
        h.update(std::uint64_t{r.injectedErrors});
        h.update(std::uint64_t{r.corrections});
    }
    h.update(res.tightMisses);
    h.update(res.decoupledMisses);
    h.update(res.roccTransfers);
    h.update(res.roccVectorElements);
    h.update(res.injectedErrors);
    h.update(res.correctionsApplied);
    h.update(std::uint64_t{res.logicalValue});
    return h.digest();
}

/** The sweep's job list: (loss x {scalar, vector}) harness runs. */
std::vector<service::JobSpec>
buildJobs(const Config &cfg, const SweepCli &cli)
{
    std::vector<service::JobSpec> jobs;
    for (auto loss : cfg.losses) {
        for (bool vec : {false, true}) {
            // The harness runs no VQA workload: the spec carries the
            // shared options, of which the job reads the seed.
            auto spec = cli.job(vqa::Algorithm::Qaoa,
                                vqa::OptimizerKind::GradientDescent,
                                2 * cfg.distance - 1);
            spec.name = std::string("qec-sweep/") +
                (vec ? "vector" : "scalar") + "/loss" +
                std::to_string(loss);
            // Figure parity: the seed is used verbatim, so every
            // configuration replays the same functional QEC trace
            // and loss and ISA mode are the only variables.
            spec.custom = [loss, vec, cfg](service::JobContext &ctx) {
                qec::FeedForwardConfig fcfg;
                fcfg.distance = cfg.distance;
                fcfg.rounds = cfg.rounds;
                fcfg.deadlineNs = cfg.deadlineNs;
                fcfg.dataErrorRate = cfg.dataErrorRate;
                fcfg.vectorIsa = vec;
                fcfg.seed = ctx.seed;

                fault::FaultSpec fs;
                if (loss > 0.0)
                    fs.sites["eth"].drop = loss;
                fault::FaultInjector inj(fs,
                                         fault::mix64(ctx.seed));
                fcfg.injector = &inj;

                const qec::FeedForwardHarness harness(fcfg);
                const auto res = harness.run();

                auto &r = ctx.result;
                // The spec's workload only carries the options; the
                // row names what the job ran.
                r.algorithm = "repetition-code";
                r.optimizer = "none";
                r.rounds = res.rounds.size();
                r.metrics["loss"] = loss;
                r.metrics["vector"] = vec ? 1.0 : 0.0;
                r.metrics["tight_misses"] =
                    static_cast<double>(res.tightMisses);
                r.metrics["decoupled_misses"] =
                    static_cast<double>(res.decoupledMisses);
                r.metrics["tight_miss_rate"] = res.tightMissRate();
                r.metrics["decoupled_miss_rate"] =
                    res.decoupledMissRate();
                r.metrics["rocc_transfers"] =
                    static_cast<double>(res.roccTransfers);
                r.metrics["rocc_vector_elements"] =
                    static_cast<double>(res.roccVectorElements);
                r.metrics["injected_errors"] =
                    static_cast<double>(res.injectedErrors);
                r.metrics["corrections_applied"] =
                    static_cast<double>(res.correctionsApplied);
                r.metrics["logical_value"] =
                    res.logicalValue ? 1.0 : 0.0;
                inj.exportCounters(r.metrics);
                digestToMetrics(runDigest(res), r.metrics);
            };
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    const auto cli = parseSweepCli(
        argc, argv, [&](cli::OptionRegistry &reg) {
            reg.uns("--qec-rounds", "N",
                    "stabilizer-measurement rounds per QEC "
                    "feed-forward job",
                    &cfg.rounds, 1, "--qec-rounds must be positive");
            reg.uns("--qec-distance", "D",
                    "repetition-code distance (data qubits per block)",
                    &cfg.distance, 2, "--qec-distance must be >= 2");
            reg.u64("--qec-deadline-ns", "N",
                    "per-round decode->correct feed-forward deadline "
                    "in nanoseconds",
                    &cfg.deadlineNs);
            reg.list("--loss", "l1,l2",
                     "ethernet loss rates swept for the decoupled "
                     "baseline (default 0,0.01,0.05)",
                     &cfg.losses, 0.0, 1.0);
            reg.add("--error-rate", "P",
                    "per-data-qubit X-error probability per round "
                    "(default 0.05)",
                    [&](const std::string &v) {
                        cfg.dataErrorRate = cli::parseValue(
                            "--error-rate", v, 0.0, 1.0);
                    });
            reg.uns("--ansatz-qubits", "N",
                    "ansatz size for the analytic RoCC instruction "
                    "count (default 32, the criteria floor)",
                    &cfg.ansatzQubits, 32,
                    "--ansatz-qubits must be >= 32");
            reg.str("--out", "PATH", "write the JSON artifact",
                    &cfg.outPath);
            reg.flag("--smoke",
                     "small fast run; exit 1 unless every "
                     "criterion holds",
                     &cfg.smoke);
        });
    if (cfg.smoke)
        cfg.losses = {0.0, 0.1};

    banner("QEC feed-forward sweep: tight vs decoupled under a "
           "per-round deadline");
    std::printf("distance-%u repetition code, %u rounds, deadline "
                "%llu ns, error rate %.3f\n",
                cfg.distance, cfg.rounds,
                static_cast<unsigned long long>(cfg.deadlineNs),
                cfg.dataErrorRate);

    service::BatchScheduler sched(cli.schedulerConfig());
    const auto batch = runWithRerun(
        sched, cli.schedulerConfig(),
        [&] { return buildJobs(cfg, cli); });

    std::vector<Row> rows;
    bool jobsInvariant = true;
    bool tightBeatsDecoupled = true;
    bool vectorMovesElements = true;
    std::size_t idx = 0;
    for (auto loss : cfg.losses) {
        for (bool vec : {false, true}) {
            const auto &[r, rerunMatches] = batch.jobs[idx++];
            Row row;
            row.loss = loss;
            row.vector = vec;
            row.rounds = r.rounds;
            row.tightMisses = static_cast<std::uint64_t>(
                metric(r, "tight_misses"));
            row.decoupledMisses = static_cast<std::uint64_t>(
                metric(r, "decoupled_misses"));
            row.tightMissRate = metric(r, "tight_miss_rate");
            row.decoupledMissRate =
                metric(r, "decoupled_miss_rate");
            row.roccTransfers = static_cast<std::uint64_t>(
                metric(r, "rocc_transfers"));
            row.roccVectorElements = static_cast<std::uint64_t>(
                metric(r, "rocc_vector_elements"));
            row.injectedErrors = static_cast<std::uint64_t>(
                metric(r, "injected_errors"));
            row.correctionsApplied = static_cast<std::uint64_t>(
                metric(r, "corrections_applied"));
            row.logicalValue = metric(r, "logical_value") != 0.0;
            row.digest = digestFromMetrics(r.metrics);
            row.rerunMatches = rerunMatches;
            if (!row.rerunMatches)
                jobsInvariant = false;
            if (row.tightMissRate >= row.decoupledMissRate)
                tightBeatsDecoupled = false;
            if (vec != (row.roccVectorElements > 0))
                vectorMovesElements = false;
            rows.push_back(row);
        }
    }

    // The measured reduction: at every loss rate the vector run must
    // have issued strictly fewer RoCC instructions than the scalar
    // run of the identical functional trace.
    bool measuredReduction = true;
    for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
        if (rows[i + 1].roccTransfers >= rows[i].roccTransfers)
            measuredReduction = false;
    }

    // The analytic count on a >= 32-qubit ansatz: a full-parameter
    // update round under the scalar and the vector lowering.
    const auto workload = vqa::Workload::build(
        paperConfig(vqa::Algorithm::Qaoa, vqa::OptimizerKind::Spsa,
                    cfg.ansatzQubits)
            .workload);
    isa::QtenonCompiler scalar_comp;
    const auto scalar_img = scalar_comp.compile(workload.circuit);
    isa::PipelineConfig vpipe;
    vpipe.vectorIsa = true;
    isa::QtenonCompiler vector_comp(isa::CompilerCostModel{}, vpipe);
    const auto vector_img = vector_comp.compile(workload.circuit);
    const std::uint64_t updates_per_round =
        scalar_img.regfileInit.size();
    const auto scalar_count = isa::QtenonCompiler::countInstructions(
        scalar_img, 10, updates_per_round);
    const auto vector_count =
        isa::QtenonCompiler::countInstructionsVector(
            vector_img, 10, updates_per_round);
    const bool ansatzReduction =
        vector_count.total() < scalar_count.total();
    const bool vectorReducesRocc =
        measuredReduction && ansatzReduction;

    std::printf("\n%8s %8s %8s %12s %12s %10s %10s %8s\n", "loss",
                "isa", "rounds", "tight-miss", "dec-miss",
                "rocc", "vec-elems", "rerun");
    for (const auto &row : rows) {
        std::printf("%8.3f %8s %8llu %12.2f %12.2f %10llu %10llu "
                    "%8s\n",
                    row.loss, row.vector ? "vector" : "scalar",
                    static_cast<unsigned long long>(row.rounds),
                    row.tightMissRate, row.decoupledMissRate,
                    static_cast<unsigned long long>(
                        row.roccTransfers),
                    static_cast<unsigned long long>(
                        row.roccVectorElements),
                    row.rerunMatches ? "ok" : "DIFF");
    }
    std::printf("\n%u-qubit ansatz, 10 rounds x %llu updates: "
                "%llu scalar vs %llu vector instructions\n",
                cfg.ansatzQubits,
                static_cast<unsigned long long>(updates_per_round),
                static_cast<unsigned long long>(
                    scalar_count.total()),
                static_cast<unsigned long long>(
                    vector_count.total()));

    using service::json::Value;
    Artifact art("qtenon.qec-sweep.v1");
    Value conf = Value::object();
    conf.set("distance", std::uint64_t{cfg.distance});
    conf.set("rounds", std::uint64_t{cfg.rounds});
    conf.set("deadline_ns", cfg.deadlineNs);
    conf.set("error_rate", cfg.dataErrorRate);
    Value lv = Value::array();
    for (auto l : cfg.losses)
        lv.asArray().push_back(Value(l));
    conf.set("loss", std::move(lv));
    conf.set("ansatz_qubits", std::uint64_t{cfg.ansatzQubits});
    conf.set("seed", cli.seed);
    conf.set("smoke", cfg.smoke);
    art.set("config", std::move(conf));
    Value rv = Value::array();
    for (const auto &row : rows) {
        Value o = Value::object();
        o.set("loss", row.loss);
        o.set("vector", row.vector);
        o.set("rounds", row.rounds);
        o.set("tight_misses", row.tightMisses);
        o.set("decoupled_misses", row.decoupledMisses);
        o.set("tight_miss_rate", row.tightMissRate);
        o.set("decoupled_miss_rate", row.decoupledMissRate);
        o.set("rocc_transfers", row.roccTransfers);
        o.set("rocc_vector_elements", row.roccVectorElements);
        o.set("injected_errors", row.injectedErrors);
        o.set("corrections_applied", row.correctionsApplied);
        o.set("logical_value", row.logicalValue);
        o.set("digest", row.digest.hex());
        o.set("rerun_matches", row.rerunMatches);
        rv.asArray().push_back(std::move(o));
    }
    art.set("rows", std::move(rv));
    Value ansatz = Value::object();
    ansatz.set("qubits", std::uint64_t{cfg.ansatzQubits});
    ansatz.set("rounds", std::uint64_t{10});
    ansatz.set("updates_per_round", updates_per_round);
    ansatz.set("scalar_total", scalar_count.total());
    ansatz.set("vector_total", vector_count.total());
    ansatz.set("vector_q_update_v", vector_count.qUpdateV);
    ansatz.set("vector_q_gen_v", vector_count.qGenV);
    art.set("ansatz", std::move(ansatz));
    art.criterion("jobs_invariant", jobsInvariant);
    art.criterion("tight_beats_decoupled", tightBeatsDecoupled);
    art.criterion("vector_reduces_rocc", vectorReducesRocc);
    art.criterion("vector_moves_elements", vectorMovesElements);
    const int rc = art.finish(cfg.outPath, cfg.smoke);
    cli.finish(sched, batch.store);
    return rc;
}
