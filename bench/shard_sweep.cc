/**
 * @file
 * Fig. 17-style scalability sweep of the multi-chip sharded
 * controller (src/shard/): QAOA + SPSA replayed on 1/2/4/8-shard
 * compositions up to 320 qubits, at 0/1/5/10% inter-chip message
 * loss. Every configuration is one job on the batch service; the
 * per-config results are required to be byte-identical across
 * worker counts, and the single-shard composition must match the
 * plain single-controller replay exactly.
 *
 * Writes a machine-checkable artifact (--out, schema
 * "qtenon.shard-sweep.v1") whose criteria block is re-checked by
 * tests/test_artifacts.cc; --smoke exits nonzero unless every
 * criterion holds:
 *   - jobs_invariant: re-running the whole sweep on one worker
 *     reproduces every per-config digest bit for bit
 *   - single_shard_identity: the 1-shard composition's breakdown and
 *     cost history equal a direct core::QtenonSystem replay
 *   - cross_shard_routing: every multi-shard config routed at least
 *     one two-qubit gate through a shard boundary
 *   - faults_injected: lossy multi-shard configs paid inter-chip
 *     retransmissions
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "artifact.hh"
#include "bench_util.hh"
#include "sweep_cli.hh"

#include "core/hash.hh"
#include "service/batch_scheduler.hh"
#include "shard/sharded_controller.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

struct Config {
    std::vector<std::uint32_t> qubits = {64, 320};
    std::vector<std::uint32_t> shards = {1, 2, 4, 8};
    std::vector<double> losses = {0.0, 0.01, 0.05, 0.1};
    std::uint32_t iterations = 10;
    std::uint64_t shots = 500;
    std::string outPath;
    bool smoke = false;
};

/** One (qubits, shards, loss) configuration's results. */
struct Row {
    std::uint32_t qubits = 0;
    std::uint32_t shards = 0;
    double loss = 0.0;
    runtime::TimeBreakdown total;
    sim::Tick shotDuration = 0;
    std::uint64_t crossShardGates = 0;
    std::uint64_t swapsInserted = 0;
    std::uint64_t xlinkMessages = 0;
    std::uint64_t xlinkBytes = 0;
    std::uint64_t xlinkRetransmits = 0;
    std::uint64_t xlinkExhausted = 0;
    std::vector<double> costHistory;
    double finalCost = 0.0;
    core::Digest128 digest;
    bool rerunMatches = false;
};

/** The spec every configuration of the @p n-qubit register starts
 *  from: QAOA + SPSA at the sweep's iteration and shot counts. */
service::JobSpec
baseJob(const Config &cfg, const SweepCli &cli, std::uint32_t n)
{
    auto spec =
        cli.job(vqa::Algorithm::Qaoa, vqa::OptimizerKind::Spsa, n);
    spec.driver.iterations = cfg.iterations;
    spec.driver.shots = cfg.shots;
    return spec;
}

/** @p spec's workload optimized once under its driver settings at
 *  @p seed: the trace every configuration of that register
 *  replays. */
std::pair<vqa::Workload, runtime::VqaTrace>
functionalRun(const service::JobSpec &spec, std::uint64_t seed)
{
    auto driver = spec.driver;
    driver.seed = seed;
    auto workload = vqa::Workload::build(spec.workload);
    auto trace = vqa::VqaDriver(driver).run(workload);
    return {std::move(workload), std::move(trace)};
}

/** Content digest of everything a sharded run reports. */
core::Digest128
runDigest(const shard::ShardedRun &run,
          const std::vector<double> &cost_history)
{
    core::Fnv1a128 h;
    for (double c : cost_history)
        h.update(c);
    h.update(run.total.quantum);
    h.update(run.total.pulseGen);
    h.update(run.total.comm);
    h.update(run.total.host);
    h.update(run.total.hostBusy);
    h.update(run.total.wall);
    h.update(run.shotDuration);
    h.update(run.crossShardGates);
    h.update(run.swapsInserted);
    h.update(run.simTicks);
    for (const auto &st : run.shards) {
        h.update(st.total.wall);
        h.update(st.xlinkBytes);
        h.update(st.xlinkMessages);
        h.update(st.xlinkRetransmits);
        h.update(st.xlinkExhausted);
        h.update(st.simTicks);
    }
    return h.digest();
}

/** The sweep's job list, one custom job per configuration. */
std::vector<service::JobSpec>
buildJobs(const Config &cfg, const SweepCli &cli)
{
    std::vector<service::JobSpec> jobs;
    for (auto n : cfg.qubits) {
        for (auto k : cfg.shards) {
            for (auto loss : cfg.losses) {
                auto spec = baseJob(cfg, cli, n);
                spec.name = "shard-sweep/n" + std::to_string(n) +
                    "/k" + std::to_string(k) + "/loss" +
                    std::to_string(loss);
                // Figure parity (see fig17): the seed is used
                // verbatim, so every configuration of the same
                // register replays the same functional trace and
                // shard count and loss are the only variables.
                spec.custom = [n, k, loss, proto = spec](
                                  service::JobContext &ctx) {
                    auto [workload, trace] =
                        functionalRun(proto, ctx.seed);

                    shard::ShardedConfig scfg;
                    scfg.map = shard::ShardMap::uniform(n, k);
                    scfg.chip.numQubits = n;
                    fault::FaultSpec fs;
                    if (loss > 0.0)
                        for (std::uint32_t s = 0; s < k; ++s)
                            fs.sites["xchip" + std::to_string(s)]
                                .drop = loss;
                    fault::FaultInjector inj(
                        fs, fault::mix64(ctx.seed));
                    scfg.injector = &inj;

                    shard::ShardedController sc(std::move(scfg));
                    const auto run =
                        sc.execute(workload.circuit, trace);

                    auto &r = ctx.result;
                    r.numQubits = n;
                    r.costHistory = trace.costHistory;
                    r.finalCost = trace.costHistory.empty()
                        ? 0.0
                        : trace.costHistory.back();
                    r.rounds = trace.rounds.size();
                    r.shotDuration = run.shotDuration;
                    r.simTicks = run.simTicks;
                    r.metrics["shards"] = k;
                    r.metrics["loss"] = loss;
                    r.metrics["wall_ticks"] =
                        static_cast<double>(run.total.wall);
                    r.metrics["comm_ticks"] =
                        static_cast<double>(run.total.comm);
                    r.metrics["quantum_ticks"] =
                        static_cast<double>(run.total.quantum);
                    r.metrics["host_ticks"] =
                        static_cast<double>(run.total.host);
                    r.metrics["cross_shard_gates"] =
                        static_cast<double>(run.crossShardGates);
                    r.metrics["swaps_inserted"] =
                        static_cast<double>(run.swapsInserted);
                    std::uint64_t messages = 0, bytes = 0,
                                  retrans = 0, exhausted = 0;
                    for (const auto &st : run.shards) {
                        messages += st.xlinkMessages;
                        bytes += st.xlinkBytes;
                        retrans += st.xlinkRetransmits;
                        exhausted += st.xlinkExhausted;
                    }
                    r.metrics["xlink_messages"] =
                        static_cast<double>(messages);
                    r.metrics["xlink_bytes"] =
                        static_cast<double>(bytes);
                    r.metrics["xlink_retransmits"] =
                        static_cast<double>(retrans);
                    r.metrics["xlink_exhausted"] =
                        static_cast<double>(exhausted);
                    inj.exportCounters(r.metrics);
                    digestToMetrics(
                        runDigest(run, trace.costHistory),
                        r.metrics);
                };
                jobs.push_back(std::move(spec));
            }
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
            reg.list<std::uint32_t>(
                "--shards", "a,b,c",
                "shard counts swept (default 1,2,4,8)", &cfg.shards,
                1, UINT32_MAX);
            reg.list("--loss", "l1,l2",
                     "inter-chip loss rates swept "
                     "(default 0,0.01,0.05,0.1)",
                     &cfg.losses, 0.0, 1.0);
            reg.uns("--iterations", "N",
                    "optimizer iterations per job (default 10)",
                    &cfg.iterations, 1,
                    "--iterations must be a positive integer");
            reg.add("--shots", "N",
                    "shots per evaluation round (default 500)",
                    [&](const std::string &v) {
                        cfg.shots = cli::parseValue<std::uint64_t>(
                            "--shots", v, 1, UINT64_MAX);
                    });
            reg.str("--out", "PATH", "write the JSON artifact",
                    &cfg.outPath);
            reg.flag("--smoke",
                     "small fast run; exit 1 unless every "
                     "criterion holds",
                     &cfg.smoke);
        });
    cfg.qubits = cli.qubitsOr(cfg.qubits);
    if (cfg.smoke) {
        cfg.qubits = cli.qubitsOr({320});
        cfg.losses = {0.0, 0.1};
        cfg.iterations = 4;
        cfg.shots = 100;
    }

    banner("Shard sweep: 1/2/4/8-chip compositions under "
           "inter-chip loss");
    std::printf("QAOA + SPSA, %u iterations x %llu shots, "
                "qubits up to %u\n",
                cfg.iterations,
                static_cast<unsigned long long>(cfg.shots),
                cfg.qubits.back());

    service::BatchScheduler sched(cli.schedulerConfig());
    const auto batch = runWithRerun(
        sched, cli.schedulerConfig(),
        [&] { return buildJobs(cfg, cli); });

    std::vector<Row> rows;
    bool jobsInvariant = true;
    bool crossShardRouting = true;
    // Aggregate over every lossy multi-shard config: one config's
    // handful of messages can legitimately see zero drops, but the
    // sweep as a whole must exercise the retransmission path.
    bool anyLossyConfig = false;
    std::uint64_t lossyRetransmits = 0;
    std::size_t idx = 0;
    for (auto n : cfg.qubits) {
        for (auto k : cfg.shards) {
            for (auto loss : cfg.losses) {
                const auto &[r, rerunMatches] = batch.jobs[idx++];
                Row row;
                row.qubits = n;
                row.shards = k;
                row.loss = loss;
                row.total.wall = static_cast<sim::Tick>(
                    metric(r, "wall_ticks"));
                row.total.comm = static_cast<sim::Tick>(
                    metric(r, "comm_ticks"));
                row.total.quantum = static_cast<sim::Tick>(
                    metric(r, "quantum_ticks"));
                row.total.host = static_cast<sim::Tick>(
                    metric(r, "host_ticks"));
                row.shotDuration = r.shotDuration;
                row.crossShardGates = static_cast<std::uint64_t>(
                    metric(r, "cross_shard_gates"));
                row.swapsInserted = static_cast<std::uint64_t>(
                    metric(r, "swaps_inserted"));
                row.xlinkMessages = static_cast<std::uint64_t>(
                    metric(r, "xlink_messages"));
                row.xlinkBytes = static_cast<std::uint64_t>(
                    metric(r, "xlink_bytes"));
                row.xlinkRetransmits = static_cast<std::uint64_t>(
                    metric(r, "xlink_retransmits"));
                row.xlinkExhausted = static_cast<std::uint64_t>(
                    metric(r, "xlink_exhausted"));
                row.costHistory = r.costHistory;
                row.finalCost = r.finalCost;
                row.digest = digestFromMetrics(r.metrics);
                row.rerunMatches = rerunMatches;
                if (!row.rerunMatches)
                    jobsInvariant = false;
                if (k > 1 && row.crossShardGates == 0)
                    crossShardRouting = false;
                if (k > 1 && loss > 0.0) {
                    anyLossyConfig = true;
                    lossyRetransmits += row.xlinkRetransmits;
                }
                rows.push_back(std::move(row));
            }
        }
    }
    const bool faultsInjected =
        !anyLossyConfig || lossyRetransmits > 0;

    // Single-shard identity: the 1-shard composition must equal a
    // direct single-controller replay of the same trace, field for
    // field (same seed => same functional trace by construction).
    bool singleShardIdentity = true;
    for (auto n : cfg.qubits) {
        auto [workload, trace] =
            functionalRun(baseJob(cfg, cli, n), cli.seed);
        core::QtenonConfig chip;
        chip.numQubits = n;
        core::QtenonSystem sys(chip);
        const auto direct =
            sys.execute(trace, workload.circuit).total();
        const auto direct_shot =
            sys.shotDuration(workload.circuit);
        for (const auto &row : rows) {
            if (row.qubits != n || row.shards != 1)
                continue;
            if (row.total.wall != direct.wall ||
                row.total.comm != direct.comm ||
                row.total.quantum != direct.quantum ||
                row.total.host != direct.host ||
                row.shotDuration != direct_shot ||
                row.costHistory != trace.costHistory)
                singleShardIdentity = false;
        }
    }

    for (auto loss : cfg.losses) {
        banner("inter-chip loss " +
               std::to_string(static_cast<int>(loss * 100)) + "%");
        std::printf("%8s %7s %12s %12s %10s %10s %8s\n", "#qubits",
                    "shards", "wall", "comm", "xgates",
                    "retrans", "rerun");
        for (const auto &row : rows) {
            if (row.loss != loss)
                continue;
            std::printf(
                "%8u %7u %12s %12s %10llu %10llu %8s\n",
                row.qubits, row.shards,
                core::formatTime(row.total.wall).c_str(),
                core::formatTime(row.total.comm).c_str(),
                static_cast<unsigned long long>(
                    row.crossShardGates),
                static_cast<unsigned long long>(
                    row.xlinkRetransmits),
                row.rerunMatches ? "ok" : "DIFF");
        }
    }

    using service::json::Value;
    Artifact art("qtenon.shard-sweep.v1");
    Value conf = Value::object();
    Value qv = Value::array();
    for (auto n : cfg.qubits)
        qv.asArray().push_back(Value(std::uint64_t{n}));
    conf.set("qubits", std::move(qv));
    Value sv = Value::array();
    for (auto k : cfg.shards)
        sv.asArray().push_back(Value(std::uint64_t{k}));
    conf.set("shards", std::move(sv));
    Value lv = Value::array();
    for (auto l : cfg.losses)
        lv.asArray().push_back(Value(l));
    conf.set("loss", std::move(lv));
    conf.set("iterations", std::uint64_t{cfg.iterations});
    conf.set("shots", cfg.shots);
    conf.set("seed", cli.seed);
    conf.set("smoke", cfg.smoke);
    art.set("config", std::move(conf));
    Value rv = Value::array();
    for (const auto &row : rows) {
        Value o = Value::object();
        o.set("qubits", std::uint64_t{row.qubits});
        o.set("shards", std::uint64_t{row.shards});
        o.set("loss", row.loss);
        o.set("wall_ticks", row.total.wall);
        o.set("comm_ticks", row.total.comm);
        o.set("quantum_ticks", row.total.quantum);
        o.set("host_ticks", row.total.host);
        o.set("shot_duration_ticks", row.shotDuration);
        o.set("cross_shard_gates", row.crossShardGates);
        o.set("swaps_inserted", row.swapsInserted);
        o.set("xlink_messages", row.xlinkMessages);
        o.set("xlink_bytes", row.xlinkBytes);
        o.set("xlink_retransmits", row.xlinkRetransmits);
        o.set("xlink_exhausted", row.xlinkExhausted);
        o.set("final_cost", row.finalCost);
        o.set("digest", row.digest.hex());
        o.set("rerun_matches", row.rerunMatches);
        rv.asArray().push_back(std::move(o));
    }
    art.set("rows", std::move(rv));
    art.criterion("jobs_invariant", jobsInvariant);
    art.criterion("single_shard_identity", singleShardIdentity);
    art.criterion("cross_shard_routing", crossShardRouting);
    art.criterion("faults_injected", faultsInjected);
    std::printf("\n");
    const int rc = art.finish(cfg.outPath, cfg.smoke);
    cli.finish(sched, batch.store);
    return rc;
}
