/**
 * @file
 * Per-kernel statevector benchmarks: the optimized pair-loop /
 * diagonal / fused kernels (quantum/statevector.cc) timed against the
 * seed's frozen scalar kernels (tests/reference_statevector.hh), the
 * SIMD slab backends against the forced-scalar backend, and the
 * persistent-pool threaded kernels at 1/2/4 workers. Emits a JSON
 * summary (default BENCH_statevector.json) recording ns-per-gate plus
 * two speedup columns per row: `vs_reference` (the frozen seed
 * kernels) and, for the threads_* rows, `vs_threads_1` (the same
 * binary at one thread) — the honest scaling baseline the v1 schema
 * lacked, where `threads_2` at "0.73x" was really measuring per-gate
 * thread spawn/join against a serial run.
 *
 * Thread scaling is judged against a hardware-aware target: a box
 * with >= 4 cores must show threads_4 >= 2.5x threads_1, while a
 * single-core container (where parallel speedup is physically
 * impossible and the pool can only add barrier overhead) must merely
 * stay >= 0.9x. The target and the observed hardware_concurrency are
 * both recorded in the criteria block so results are auditable.
 *
 *   bench_statevector [--qubits N] [--reps R] [--out PATH] [--smoke]
 *
 * --smoke keeps the full row set but drops to --reps 2 and exits
 * nonzero if any criteria gate fails (CI regression tripwire);
 * tests/test_artifacts.cc re-checks the written artifact.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "artifact.hh"
#include "quantum/circuit.hh"
#include "quantum/statevector.hh"
#include "sim/option_registry.hh"
#include "tests/reference_statevector.hh"

using namespace qtenon;
using quantum::GateType;
using quantum::ParamRef;
using quantum::QuantumCircuit;

namespace {

/** Euler-rotation layers: runs of 3 same-qubit 1q gates, the shape
 *  the fusion pass collapses 3:1. */
QuantumCircuit
eulerCircuit(std::uint32_t n, unsigned layers)
{
    QuantumCircuit c(n);
    // Hadamard preamble so the kernels chew on dense amplitudes
    // rather than the trivial |0...0> state.
    for (std::uint32_t q = 0; q < n; ++q)
        c.h(q);
    double a = 0.1;
    for (unsigned l = 0; l < layers; ++l) {
        for (std::uint32_t q = 0; q < n; ++q) {
            c.rx(q, ParamRef::literal(a));
            c.ry(q, ParamRef::literal(a * 0.7));
            c.rz(q, ParamRef::literal(a * 1.3));
            a += 0.05;
        }
    }
    return c;
}

/** Diagonal-only layers (Z/S/T/RZ/CZ/RZZ): pure phase passes in the
 *  optimized kernels, full 2x2 scans in the reference. */
QuantumCircuit
diagonalCircuit(std::uint32_t n, unsigned layers)
{
    QuantumCircuit c(n);
    for (std::uint32_t q = 0; q < n; ++q)
        c.h(q);
    double a = 0.2;
    for (unsigned l = 0; l < layers; ++l) {
        for (std::uint32_t q = 0; q < n; ++q) {
            switch (q % 3) {
              case 0: c.gate(GateType::S, q); break;
              case 1: c.gate(GateType::T, q); break;
              default: c.rz(q, ParamRef::literal(a)); break;
            }
            a += 0.03;
        }
        for (std::uint32_t q = 0; q + 1 < n; q += 2)
            c.cz(q, q + 1);
        for (std::uint32_t q = 0; q + 1 < n; q += 2)
            c.rzz(q, q + 1, ParamRef::literal(a));
    }
    return c;
}

/** Best-of-@p reps wall seconds of @p run, resetting via @p reset
 *  outside the timed region. */
double
bestSeconds(unsigned reps, const std::function<void()> &reset,
            const std::function<void()> &run)
{
    double best = 1e300;
    for (unsigned r = 0; r < reps; ++r) {
        reset();
        const auto t0 = std::chrono::steady_clock::now();
        run();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

struct Row {
    std::string name;
    std::size_t gates = 0;
    double nsPerGate = 0.0;
    double vsReference = 0.0; // vs the frozen seed kernels; 0 = n/a
    double vsThreads1 = 0.0;  // threads rows only; 0 = n/a
};

double
nsPerGate(double seconds, std::size_t gates)
{
    return seconds * 1e9 / static_cast<double>(gates);
}

/**
 * The minimum acceptable threads_4 / threads_1 ratio for the cores
 * this process can actually use. 4+ cores must deliver real scaling;
 * degraded widths get proportionally weaker targets; a single-core
 * box only has to show the persistent pool is not a regression.
 */
double
scalingTargetFor(unsigned hw)
{
    const unsigned eff = hw < 4 ? hw : 4;
    if (eff >= 4)
        return 2.5;
    if (eff == 3)
        return 1.8;
    if (eff == 2)
        return 1.3;
    return 0.9;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t n = 20;
    unsigned reps = 0; // 0 = not given: 3, or 2 under --smoke
    bool smoke = false;
    std::string out = "BENCH_statevector.json";
    cli::OptionRegistry reg;
    reg.uns("--qubits", "N", "register width (default 20)", &n, 1,
            "--qubits must be a positive integer");
    reg.uns("--reps", "R", "best of R timed runs (default 3)", &reps,
            1, "--reps must be a positive integer");
    reg.str("--out", "PATH",
            "write the JSON artifact (default BENCH_statevector.json)",
            &out);
    reg.flag("--smoke",
             "reps 2 unless given; exit 1 unless every criterion "
             "holds",
             &smoke);
    reg.parse(argc, argv);
    if (reps == 0)
        reps = smoke ? 2 : 3;

    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const double scalingTarget = scalingTargetFor(hw);

    const auto euler = eulerCircuit(n, 2);
    const auto diag = diagonalCircuit(n, 2);
    std::vector<Row> rows;

    auto timeReference = [&](const QuantumCircuit &c) {
        tests::ReferenceStateVector rsv(n);
        return bestSeconds(reps, [&] { rsv.reset(); },
                           [&] { rsv.applyCircuit(c); });
    };
    auto timeOptimized = [&](const QuantumCircuit &c,
                             quantum::KernelConfig k) {
        quantum::StateVector sv(n, std::max(n, 24u), k);
        return bestSeconds(reps, [&] { sv.reset(); },
                           [&] { sv.applyCircuit(c); });
    };

    const char *backend =
        quantum::StateVector(1, 24, {}).simdBackendName();
    std::printf("statevector kernel bench: %u qubits, best of %u, "
                "simd backend %s, %u hardware threads\n\n",
                n, reps, backend, hw);

    // -- apply1q: reference vs forced-scalar pair-loop vs SIMD
    //    pair-loop vs SIMD pair-loop + fusion.
    const double ref_1q = timeReference(euler);
    rows.push_back({"apply1q_reference", euler.numGates(),
                    nsPerGate(ref_1q, euler.numGates())});

    quantum::KernelConfig scalarCfg;
    scalarCfg.simd = quantum::SimdMode::Scalar;
    const double pair_1q = timeOptimized(euler, scalarCfg);
    rows.push_back({"apply1q_pairloop", euler.numGates(),
                    nsPerGate(pair_1q, euler.numGates()),
                    ref_1q / pair_1q});

    const double simd_1q = timeOptimized(euler, {});
    rows.push_back({"apply1q_pairloop_simd", euler.numGates(),
                    nsPerGate(simd_1q, euler.numGates()),
                    ref_1q / simd_1q});

    quantum::KernelConfig fusedCfg;
    fusedCfg.fuse1q = true;
    const double fused_1q = timeOptimized(euler, fusedCfg);
    rows.push_back({"apply1q_pairloop_fused", euler.numGates(),
                    nsPerGate(fused_1q, euler.numGates()),
                    ref_1q / fused_1q});

    // -- diagonal gates: full 2x2 scan vs specialized phase pass,
    //    scalar and SIMD.
    const double ref_diag = timeReference(diag);
    rows.push_back({"diagonal_reference", diag.numGates(),
                    nsPerGate(ref_diag, diag.numGates())});
    const double scalar_diag = timeOptimized(diag, scalarCfg);
    rows.push_back({"diagonal_phase_pass", diag.numGates(),
                    nsPerGate(scalar_diag, diag.numGates()),
                    ref_diag / scalar_diag});
    const double simd_diag = timeOptimized(diag, {});
    rows.push_back({"diagonal_phase_pass_simd", diag.numGates(),
                    nsPerGate(simd_diag, diag.numGates()),
                    ref_diag / simd_diag});

    // -- threading: 1/2/4 persistent-pool workers on the euler
    //    circuit. threads_1 is the scaling denominator; every
    //    threads row also reports vs_reference for absolute context.
    double threads1 = 0.0;
    double threads4 = 0.0;
    for (unsigned t : {1u, 2u, 4u}) {
        quantum::KernelConfig k;
        k.threads = t;
        k.parallelMinQubits = std::min<std::uint32_t>(n, 20);
        const double s = timeOptimized(euler, k);
        if (t == 1)
            threads1 = s;
        if (t == 4)
            threads4 = s;
        rows.push_back({"threads_" + std::to_string(t),
                        euler.numGates(),
                        nsPerGate(s, euler.numGates()), ref_1q / s,
                        threads1 / s});
    }

    std::printf("%-26s %8s %12s %8s %8s\n", "kernel", "gates",
                "ns/gate", "vs_ref", "vs_t1");
    for (const auto &r : rows) {
        std::printf("%-26s %8zu %12.1f ", r.name.c_str(), r.gates,
                    r.nsPerGate);
        if (r.vsReference > 0.0)
            std::printf("%7.2fx ", r.vsReference);
        else
            std::printf("%8s ", "-");
        if (r.vsThreads1 > 0.0)
            std::printf("%7.2fx\n", r.vsThreads1);
        else
            std::printf("%8s\n", "-");
    }

    const double headline = ref_1q / fused_1q;
    const double simdSpeedup = pair_1q / simd_1q;
    const double scaling = threads4 > 0.0 ? threads1 / threads4 : 0.0;
    const bool scalingOk = scaling >= scalingTarget;
    std::printf("\n%u-qubit apply1q pair-loop + fusion vs reference "
                "scalar: %.2fx %s\n",
                n, headline, headline >= 2.0 ? "(>= 2x)" : "(< 2x)");
    std::printf("simd (%s) vs forced-scalar pair-loop: %.2fx (note: "
                "the scalar slab kernels are auto-vectorized by the "
                "compiler; the seed's pair-loop row is the 2x "
                "acceptance baseline)\n",
                backend, simdSpeedup);
    std::printf("threads_4 vs threads_1: %.2fx (target %.2fx on %u "
                "hardware threads) %s\n",
                scaling, scalingTarget, hw,
                scalingOk ? "[ok]" : "[FAIL]");

    using service::json::Value;
    bench::Artifact art("qtenon.bench-statevector.v2");
    art.set("qubits", n);
    art.set("reps", reps);
    Value results = Value::array();
    for (const auto &r : rows) {
        Value row = Value::object();
        row.set("name", r.name);
        row.set("gates", static_cast<std::uint64_t>(r.gates));
        row.set("ns_per_gate", r.nsPerGate);
        if (r.vsReference > 0.0) {
            row.set("vs_reference", r.vsReference);
            // v1 compat: "speedup" stays the vs-reference ratio.
            row.set("speedup", r.vsReference);
        }
        if (r.vsThreads1 > 0.0)
            row.set("vs_threads_1", r.vsThreads1);
        results.asArray().push_back(std::move(row));
    }
    art.set("results", std::move(results));
    art.info("apply1q_fused_speedup", headline);
    art.criterion("meets_2x_target", headline >= 2.0);
    art.info("simd_backend", backend);
    // In-binary A/B: the SIMD table vs the forced-scalar table of
    // the *same* slab kernels (the scalar table is itself compiler-
    // auto-vectorized, so this understates the win over the seed's
    // hand-written pair-loop — compare ns_per_gate across JSON
    // revisions for that).
    art.info("simd_vs_scalar_speedup", simdSpeedup);
    art.info("hw_concurrency", static_cast<std::uint64_t>(hw));
    art.info("threads_4_vs_threads_1", scaling);
    art.info("threads_scaling_target", scalingTarget);
    art.criterion("threads_scaling_ok", scalingOk);
    return art.finish(out, smoke);
}
