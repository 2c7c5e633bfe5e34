/**
 * @file
 * Batch experiment service quickstart: build an 8-job sweep (2
 * algorithms x 2 optimizers x 2 sizes) with the Sweep builder, fan
 * it out on a BatchScheduler worker pool, then read the aggregated
 * ResultsStore and the scheduler's own wall-clock metrics, and
 * export everything as JSON.
 *
 *   ./build/examples/batch_sweep            # QTENON_JOBS or all cores
 *   QTENON_JOBS=2 ./build/examples/batch_sweep
 *
 * Jobs derive their RNG streams from their job ids, so the printed
 * costs (and the JSON) are bit-identical for any worker count.
 */

#include <cstdio>

#include "service/batch_scheduler.hh"
#include "service/sweep.hh"

using namespace qtenon;

int
main()
{
    // 1. Describe the sweep: 2 x 2 x 2 = 8 jobs. Small shapes keep
    //    this example quick; bench/fig11_gd_speedup runs the paper's
    //    full 24-point cross-product the same way.
    auto jobs =
        service::Sweep("demo")
            .algorithms({vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe})
            .optimizers({vqa::OptimizerKind::GradientDescent,
                         vqa::OptimizerKind::Spsa})
            .qubits({6, 8})
            .shots(100)
            .iterations(4)
            .seed(7)
            .build();
    std::printf("sweep expands to %zu jobs\n", jobs.size());

    // 2. Run them on the worker pool (QTENON_JOBS env overrides).
    service::BatchScheduler sched;
    auto handles = sched.submitAll(std::move(jobs));

    // Futures give per-job access the moment each finishes ...
    const auto first = handles.front().result.get();
    std::printf("first job '%s' finished: cost %.3f after %llu "
                "rounds\n",
                first.name.c_str(), first.finalCost,
                static_cast<unsigned long long>(first.rounds));

    // ... and wait() returns the aggregated, job-id-ordered store.
    auto &store = sched.wait();

    std::printf("\n%-16s %8s %10s %12s %12s %10s\n", "job", "status",
                "final", "sim ticks", "wall [ms]", "e2e wall");
    for (const auto &r : store.sorted()) {
        std::printf("%-16s %8s %10.3f %12llu %12.1f %10s\n",
                    r.name.c_str(),
                    service::jobStatusName(r.status), r.finalCost,
                    static_cast<unsigned long long>(r.simTicks),
                    static_cast<double>(r.wallNs) / 1e6,
                    core::formatTime(
                        r.systems.at(0).total.wall).c_str());
    }

    // 3. The scheduler accounts its own parallelism.
    const auto m = sched.metrics();
    std::printf("\n%zu jobs on %u workers: batch wall %.2f s, "
                "serial-equivalent %.2f s, speedup %.2fx\n",
                m.completed, m.workers,
                static_cast<double>(m.batchWallNs) / 1e9,
                static_cast<double>(m.totalJobWallNs) / 1e9,
                m.speedup());

    // 4. JSON export round-trips through ResultsStore::fromJson.
    const auto json = store.toJsonString();
    const auto reread = service::ResultsStore::fromJsonString(json);
    std::printf("JSON export: %zu bytes, %zu results after "
                "re-import, digests %s\n",
                json.size(), reread.size(),
                reread.deterministicDigest() ==
                        store.deterministicDigest()
                    ? "match" : "DIFFER");
    return 0;
}
