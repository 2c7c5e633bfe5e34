/**
 * @file
 * Component microbenchmarks (google-benchmark): statevector gate
 * throughput, mean-field evolution, the shot path (raw draws,
 * mean-field sampling, cost scoring), SLT lookups, the pulse pipeline,
 * pulse-entry synthesis, QCC construction, event-queue hop chains,
 * cache accesses, bus transactions, one q_run round's transmission
 * replay, a whole job on one and two hosts, and entry packing. These
 * measure simulator performance, complementing the modeled-time
 * figure benches.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "controller/controller.hh"
#include "controller/pipeline.hh"
#include "controller/program_entry.hh"
#include "controller/pulse_synth.hh"
#include "controller/qcc.hh"
#include "controller/slt.hh"
#include "core/qtenon_system.hh"
#include "isa/compiler.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/tilelink.hh"
#include "quantum/ansatz.hh"
#include "quantum/backend.hh"
#include "quantum/graph.hh"
#include "quantum/molecule.hh"
#include "quantum/statevector.hh"
#include "service/batch_scheduler.hh"
#include "sim/random.hh"
#include "tests/reference_statevector.hh"
#include "vqa/cost.hh"

using namespace qtenon;

namespace {

/** Calls of the global operator new (scalar and array forms). */
std::atomic<std::uint64_t> heapAllocs{0};

} // namespace

// Count every heap allocation, so a benchmark can report how many its
// operation makes. The nothrow and array forms reach this one; the
// aligned forms keep their library definitions. Kept out of line: GCC
// would otherwise see a pointer from operator new reach free() and
// warn of a mismatched deallocation.
[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

static void
BM_StatevectorHadamardLayer(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    quantum::StateVector sv(n);
    quantum::Gate h{quantum::GateType::H, 0, 0, {}};
    for (auto _ : state) {
        for (std::uint32_t q = 0; q < n; ++q) {
            h.qubit0 = q;
            sv.apply(h, 0.0);
        }
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StatevectorHadamardLayer)->Arg(10)->Arg(16)->Arg(20);

static void
BM_StatevectorReferenceHadamardLayer(benchmark::State &state)
{
    // The seed's scalar kernel, for comparison with the pair-loop
    // version above (see also bench_statevector for the full sweep).
    const auto n = static_cast<std::uint32_t>(state.range(0));
    tests::ReferenceStateVector sv(n);
    quantum::Gate h{quantum::GateType::H, 0, 0, {}};
    for (auto _ : state) {
        for (std::uint32_t q = 0; q < n; ++q) {
            h.qubit0 = q;
            sv.apply(h, 0.0);
        }
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StatevectorReferenceHadamardLayer)
    ->Arg(10)->Arg(16)->Arg(20);

static void
BM_StatevectorDiagonalLayer(benchmark::State &state)
{
    // RZ across the register: a pure phase pass in the optimized
    // kernels instead of a generic 2x2 scan.
    const auto n = static_cast<std::uint32_t>(state.range(0));
    quantum::StateVector sv(n);
    quantum::Gate rz{quantum::GateType::RZ, 0, 0,
                     quantum::ParamRef::literal(0.3)};
    for (auto _ : state) {
        for (std::uint32_t q = 0; q < n; ++q) {
            rz.qubit0 = q;
            sv.apply(rz, 0.3);
        }
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StatevectorDiagonalLayer)->Arg(16)->Arg(20);

static void
BM_StatevectorEulerCircuit(benchmark::State &state)
{
    // rx/ry/rz runs per qubit; range(1) toggles 1q-gate fusion.
    const auto n = static_cast<std::uint32_t>(state.range(0));
    quantum::KernelConfig k;
    k.fuse1q = state.range(1) != 0;
    quantum::QuantumCircuit c(n);
    for (std::uint32_t q = 0; q < n; ++q) {
        c.rx(q, quantum::ParamRef::literal(0.3));
        c.ry(q, quantum::ParamRef::literal(0.5));
        c.rz(q, quantum::ParamRef::literal(0.7));
    }
    quantum::StateVector sv(n, 24, k);
    for (auto _ : state) {
        sv.reset();
        sv.applyCircuit(c);
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
    state.SetItemsProcessed(state.iterations() * c.numGates());
}
BENCHMARK(BM_StatevectorEulerCircuit)
    ->Args({16, 0})->Args({16, 1})->Args({20, 0})->Args({20, 1});

static void
BM_StatevectorThreadedCircuit(benchmark::State &state)
{
    // range(1) kernel threads; parallelMinQubits lowered so the
    // 16-qubit case exercises the threaded path too.
    const auto n = static_cast<std::uint32_t>(state.range(0));
    quantum::KernelConfig k;
    k.threads = static_cast<unsigned>(state.range(1));
    k.parallelMinQubits = 16;
    quantum::QuantumCircuit c(n);
    for (std::uint32_t q = 0; q < n; ++q)
        c.h(q);
    for (std::uint32_t q = 0; q < n; ++q)
        c.rx(q, quantum::ParamRef::literal(0.4));
    quantum::StateVector sv(n, 24, k);
    for (auto _ : state) {
        sv.reset();
        sv.applyCircuit(c);
        benchmark::DoNotOptimize(sv.amplitude(0));
    }
    state.SetItemsProcessed(state.iterations() * c.numGates());
}
BENCHMARK(BM_StatevectorThreadedCircuit)
    ->Args({20, 1})->Args({20, 2})->Args({20, 4});

static void
BM_StatevectorSample(benchmark::State &state)
{
    auto g = quantum::Graph::threeRegular(12);
    auto c = quantum::ansatz::qaoaMaxCut(g, 3);
    quantum::StateVector sv(12);
    sv.applyCircuit(c);
    sim::Rng rng(1);
    for (auto _ : state) {
        auto shots = sv.sample(500, rng);
        benchmark::DoNotOptimize(shots.data());
    }
    state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_StatevectorSample);

static void
BM_MeanFieldEvolve(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    auto c = quantum::ansatz::hardwareEfficient(n, 3, false);
    quantum::BackendConfig cfg;
    cfg.kind = quantum::BackendKind::MeanField;
    auto mf = quantum::makeBackend(n, cfg);
    for (auto _ : state) {
        mf->run(c);
        benchmark::DoNotOptimize(mf->marginalOne(0));
    }
    state.SetItemsProcessed(state.iterations() * c.numGates());
}
BENCHMARK(BM_MeanFieldEvolve)->Arg(64)->Arg(256);

static void
BM_RngRaw(benchmark::State &state)
{
    sim::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.raw());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngRaw);

/** Per-draw cost of the block fill, 32000 draws a call. */
static void
BM_RngFill(benchmark::State &state)
{
    sim::Rng rng(1);
    std::vector<std::uint64_t> out(32000);
    for (auto _ : state) {
        rng.fill(out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * out.size());
}
BENCHMARK(BM_RngFill);

/** A mean-field backend prepared by an n-qubit ansatz. */
static std::unique_ptr<quantum::Backend>
meanFieldState(std::uint32_t n)
{
    quantum::BackendConfig cfg;
    cfg.kind = quantum::BackendKind::MeanField;
    auto mf = quantum::makeBackend(n, cfg);
    mf->run(quantum::ansatz::hardwareEfficient(n, 3, false));
    return mf;
}

static std::vector<std::uint64_t>
meanFieldShots(std::uint32_t n)
{
    sim::Rng rng(1);
    return meanFieldState(n)->sample(500, rng);
}

static void
BM_MeanFieldSample(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    auto mf = meanFieldState(n);
    sim::Rng rng(1);
    for (auto _ : state) {
        auto shots = mf->sample(500, rng);
        benchmark::DoNotOptimize(shots.data());
    }
    state.SetItemsProcessed(state.iterations() * 500 * n);
}
BENCHMARK(BM_MeanFieldSample)->Arg(64);

static void
BM_ReadoutError(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    auto words = meanFieldShots(n);
    sim::Rng rng(1);
    for (auto _ : state) {
        quantum::applyReadoutError(words, n, 0.01, rng);
        benchmark::DoNotOptimize(words.data());
    }
    state.SetItemsProcessed(state.iterations() * words.size() * n);
}
BENCHMARK(BM_ReadoutError)->Arg(64);

static void
BM_MaxCutFromShots(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const vqa::MaxCutCost cost(quantum::Graph::threeRegular(n));
    const auto shots = meanFieldShots(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(cost.fromShots(shots));
    state.SetItemsProcessed(state.iterations() * shots.size());
}
BENCHMARK(BM_MaxCutFromShots)->Arg(64);

static void
BM_HamiltonianFromShots(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const vqa::HamiltonianCost cost(quantum::syntheticMolecule(n));
    const auto shots = meanFieldShots(n);
    for (auto _ : state)
        benchmark::DoNotOptimize(cost.fromShots(shots));
    state.SetItemsProcessed(state.iterations() * shots.size());
}
BENCHMARK(BM_HamiltonianFromShots)->Arg(64);

static void
BM_SltLookupHit(benchmark::State &state)
{
    controller::SkipLookupTable slt(64);
    slt.lookup(0, 3, 1234, 1024);
    for (auto _ : state) {
        auto r = slt.lookup(0, 3, 1234, 1024);
        benchmark::DoNotOptimize(r.pulseEntry);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SltLookupHit);

static void
BM_SltLookupMissAllocate(benchmark::State &state)
{
    controller::SkipLookupTable slt(64);
    std::uint32_t i = 0;
    for (auto _ : state) {
        auto r = slt.lookup(i % 64, 3, (i << 7) ^ 0x5A5A, 1024);
        benchmark::DoNotOptimize(r.pulseEntry);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SltLookupMissAllocate);

static void
BM_SltLookupMissQSpace(benchmark::State &state)
{
    // 4096 distinct parameters on one qubit overflow its 256 ways, so
    // after warm-up nearly every lookup evicts a way (overwriting its
    // tag in an already-populated QSpace) and re-hits QSpace.
    controller::SkipLookupTable slt(1);
    constexpr std::uint32_t distinct = 4096;
    const auto data_of = [](std::uint32_t i) {
        return (i * 0x9E3779B1u) & ((1u << 27) - 1);
    };
    for (std::uint32_t i = 0; i < distinct; ++i)
        slt.lookup(0, 8, data_of(i), 1u << 20);
    std::uint32_t i = 0;
    for (auto _ : state) {
        auto r = slt.lookup(0, 8, data_of(i), 1u << 20);
        benchmark::DoNotOptimize(r.pulseEntry);
        i = (i + 1) % distinct;
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["qspace_hit_ratio"] =
        double(slt.qspaceHits) / double(slt.misses);
}
BENCHMARK(BM_SltLookupMissQSpace);

static void
BM_PipelineIncrementalGen(benchmark::State &state)
{
    // A stale-list q_gen as an SPSA round issues it: a depth-2 QAOA
    // program on every qubit with its angles in four shared regfile
    // slots, all rewritten each round with values drawn from a small
    // pool, so pulses repeat across qubits (stage-4 memo), within a
    // qubit (SLT hits) and across rounds (QSpace hits).
    const auto qubits = static_cast<std::uint32_t>(state.range(0));
    sim::EventQueue eq;
    memory::Dram dram(memory::DramConfig{});
    memory::TileLinkBus bus(eq, "bus",
                            sim::ClockDomain::fromHz(1'000'000'000),
                            memory::TileLinkConfig{}, &dram);
    controller::ControllerConfig cfg;
    cfg.layout.numQubits = qubits;
    controller::QuantumController ctrl(eq, "qc", cfg, &bus);
    auto &qcc = ctrl.qcc();
    const auto &layout = cfg.layout;

    constexpr std::uint32_t layers = 2;
    constexpr std::uint32_t edges = 3;
    const auto code = [](quantum::GateType t) {
        return controller::ProgramEntry::encodeType(t);
    };
    for (std::uint32_t q = 0; q < qubits; ++q) {
        std::vector<controller::ProgramEntry> prog;
        controller::ProgramEntry h;
        h.type = code(quantum::GateType::H);
        prog.push_back(h);
        for (std::uint32_t l = 0; l < layers; ++l) {
            controller::ProgramEntry e;
            e.regFlag = true;
            e.type = code(quantum::GateType::RZZ);
            e.data = 2 * l; // gamma_l
            for (std::uint32_t k = 0; k < edges; ++k)
                prog.push_back(e);
            e.type = code(quantum::GateType::RX);
            e.data = 2 * l + 1; // beta_l
            prog.push_back(e);
        }
        controller::ProgramEntry m;
        m.type = code(quantum::GateType::Measure);
        prog.push_back(m);
        for (std::uint32_t i = 0; i < prog.size(); ++i) {
            const auto qaddr = layout.programAddr(q, i);
            qcc.writeProgram(qaddr, prog[i]);
            if (prog[i].regFlag)
                ctrl.linkRegfile(prog[i].data, qaddr);
        }
        qcc.setProgramLength(q, static_cast<std::uint32_t>(prog.size()));
    }
    eq.run(ctrl.generateAll());

    sim::Rng rng(7);
    std::uint64_t entries = 0;
    for (auto _ : state) {
        for (std::uint32_t reg = 0; reg < 2 * layers; ++reg) {
            const double angle = -3.0 + 0.1 * double(rng.index(64));
            ctrl.roccWrite(layout.regfileAddr(reg),
                           controller::ProgramEntry::encodeAngle(angle));
        }
        const auto stale = ctrl.staleProgramEntries();
        entries += stale.size();
        eq.run(ctrl.generate(stale));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_PipelineIncrementalGen)->Arg(320);

static void
BM_PipelineFullGen(benchmark::State &state)
{
    const auto entries = static_cast<std::uint32_t>(state.range(0));
    sim::EventQueue eq;
    memory::QccLayout layout;
    controller::QuantumControllerCache qcc(
        eq, "qcc", sim::ClockDomain::fromHz(200'000'000), layout);
    controller::SkipLookupTable slt(layout.numQubits);
    controller::PulsePipeline pipe(qcc, slt);

    std::vector<std::uint64_t> work;
    for (std::uint32_t i = 0; i < entries; ++i) {
        controller::ProgramEntry e;
        e.type = 0x8;
        e.data = i << 9;
        const auto qaddr = layout.programAddr(i % 64, i / 64);
        qcc.writeProgram(qaddr, e);
        work.push_back(qaddr);
    }
    controller::PipelineResult r;
    for (auto _ : state) {
        // Re-invalidate so every iteration regenerates.
        for (auto qaddr : work) {
            auto e = qcc.readProgram(qaddr);
            e.status = controller::EntryStatus::Invalid;
            qcc.writeProgram(qaddr, e);
        }
        slt.reset();
        pipe.run(work, r);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_PipelineFullGen)->Arg(64)->Arg(512);

static void
BM_PulseEntryFor(benchmark::State &state)
{
    controller::PulseSynthesizer synth;
    std::uint32_t code = 0;
    for (auto _ : state) {
        auto entry = synth.entryFor(
            quantum::GateType::RY,
            controller::ProgramEntry::decodeAngle(code));
        benchmark::DoNotOptimize(entry);
        code = (code + 40503) & ((1u << 27) - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PulseEntryFor);

// The full-waveform reference entryFor replaced: synthesize + pack.
static void
BM_PulseEntryForReference(benchmark::State &state)
{
    controller::PulseSynthesizer synth;
    std::uint32_t code = 0;
    for (auto _ : state) {
        auto entry = synth.packEntry(synth.synthesize(
            quantum::GateType::RY,
            controller::ProgramEntry::decodeAngle(code)));
        benchmark::DoNotOptimize(entry);
        code = (code + 40503) & ((1u << 27) - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PulseEntryForReference);

static void
BM_EventQueueHopChains(benchmark::State &state)
{
    // The bus's fault-path pattern: 32 owner-managed events in
    // flight, each rescheduling itself from process() a few ticks
    // later, as a tag's hop event does.
    constexpr int chains = 32;
    constexpr int hops = 64;
    struct Hop final : public sim::Event {
        sim::EventQueue *eq = nullptr;
        int left = 0;
        sim::Tick delay = 0;
        void
        process() override
        {
            if (--left > 0)
                eq->schedule(this, eq->curTick() + delay);
        }
    };
    sim::EventQueue eq;
    std::vector<Hop> chain(chains);
    for (auto _ : state) {
        for (int c = 0; c < chains; ++c) {
            chain[c].eq = &eq;
            chain[c].left = hops;
            chain[c].delay = sim::Tick(7 + c % 5);
            eq.schedule(&chain[c], eq.curTick() + c);
        }
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * chains * hops);
}
BENCHMARK(BM_EventQueueHopChains);

static void
BM_QccConstruct(benchmark::State &state)
{
    sim::EventQueue eq;
    memory::QccLayout layout;
    layout.numQubits = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        controller::QuantumControllerCache qcc(
            eq, "qcc", sim::ClockDomain::fromHz(200'000'000), layout);
        benchmark::DoNotOptimize(&qcc);
    }
}
BENCHMARK(BM_QccConstruct)->Arg(320);

static void
BM_CacheHit(benchmark::State &state)
{
    memory::Dram dram;
    memory::Cache cache("l2", sim::ClockDomain(1000),
                        memory::CacheConfig{}, &dram);
    memory::MemPacket p;
    p.addr = 0x40;
    sim::Tick now = cache.access(p, 0).done;
    for (auto _ : state) {
        now = cache.access(p, now).done;
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHit);

static void
BM_TileLinkTransaction(benchmark::State &state)
{
    sim::EventQueue eq;
    memory::Dram dram;
    memory::TileLinkBus bus(eq, "bus", sim::ClockDomain(1000),
                            memory::TileLinkConfig{}, &dram);
    memory::MemPacket p;
    p.size = 64;
    std::uint64_t addr = 0;
    for (auto _ : state) {
        p.addr = addr;
        addr += 64;
        bus.accessTagged(p, [](const memory::BusResponse &) {});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TileLinkTransaction);

static void
BM_QRunRound(benchmark::State &state)
{
    // One spsa-320-shaped q_run: 500 shots of a depth-2 QAOA program,
    // one PUT per shot (Algorithm 1 gives K = 1 at 320 qubits), the
    // shot loop plus the drain of the bus, L2 and DRAM events. No
    // parameter changes, so the round's q_gen has no work.
    const auto qubits = static_cast<std::uint32_t>(state.range(0));
    core::QtenonConfig cfg;
    cfg.numQubits = qubits;
    core::QtenonSystem sys(cfg);
    const auto circuit = quantum::ansatz::qaoaMaxCut(
        quantum::Graph::threeRegular(qubits), 2);
    runtime::VqaTrace trace;
    trace.numQubits = qubits;
    trace.image = isa::QtenonCompiler{}.compile(circuit);
    const sim::Tick shot = sys.shotDuration(circuit);
    auto &exec = sys.executor();
    exec.execute(trace, shot);

    runtime::RoundRecord round;
    round.shots = 500;
    round.postOpsPerShot = 40;
    round.optimizerOps = 100;
    // One round first, so containers that grow once (the event heap)
    // are not counted against the timed rounds.
    exec.executeRound(round, trace.image, shot);
    const std::uint64_t events0 = sys.eventQueue().eventsProcessed();
    const std::uint64_t puts0 = sys.bus().transactions.value();
    const std::uint64_t allocs0 = heapAllocs.load();
    for (auto _ : state) {
        const auto bd = exec.executeRound(round, trace.image, shot);
        benchmark::DoNotOptimize(bd.wall);
    }
    const std::uint64_t allocs = heapAllocs.load() - allocs0;
    state.SetItemsProcessed(state.iterations() * round.shots);
    // Every bus transaction of a round is a PUT (nothing is stale),
    // so this is the events fired per q_run PUT.
    state.counters["events_per_put"] =
        static_cast<double>(sys.eventQueue().eventsProcessed() -
                            events0) /
        static_cast<double>(std::max<std::uint64_t>(
            1, sys.bus().transactions.value() - puts0));
    state.counters["allocs_per_round"] =
        static_cast<double>(allocs) /
        static_cast<double>(std::max<benchmark::IterationCount>(
            1, state.iterations()));
    // The allocations a PUT adds: a round of twice the shots against
    // one of the benchmark's, each timed after a warm-up round, so
    // the round's fixed allocation (the PUT list, the only one:
    // `allocs_per_round` is 1) cancels.
    const auto counted = [&](std::uint64_t shots) {
        runtime::RoundRecord r = round;
        r.shots = shots;
        exec.executeRound(r, trace.image, shot);
        const std::uint64_t a = heapAllocs.load();
        const std::uint64_t p = sys.bus().transactions.value();
        exec.executeRound(r, trace.image, shot);
        return std::pair{heapAllocs.load() - a,
                         sys.bus().transactions.value() - p};
    };
    const auto [allocs1, puts1] = counted(round.shots);
    const auto [allocs2, puts2] = counted(2 * round.shots);
    state.counters["allocs_per_put"] =
        (static_cast<double>(allocs2) - static_cast<double>(allocs1)) /
        static_cast<double>(puts2 - puts1);
}
BENCHMARK(BM_QRunRound)->Arg(320);

static void
BM_RunJobSpecHosts(benchmark::State &state)
{
    // A small spsa-320-shaped job (QAOA, SPSA, 500 shots, no shot
    // records) replayed on the first N hosts of Rocket, BOOM-L: the
    // N = 2 minus N = 1 time is a later host's marginal cost, which
    // recalls the first host's q_gen results instead of rerunning
    // the pipeline.
    service::JobSpec spec;
    spec.workload.algorithm = vqa::Algorithm::Qaoa;
    spec.workload.numQubits = 64;
    spec.driver.optimizer = vqa::OptimizerKind::Spsa;
    spec.driver.shots = 500;
    spec.driver.iterations = 4;
    spec.driver.recordShotData = false;
    spec.driver.kernel.threads = 1;
    spec.deriveSeedFromJobId = false;
    spec.hosts = {runtime::HostCoreModel::rocket(),
                  runtime::HostCoreModel::boomLarge()};
    spec.hosts.resize(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const auto r = service::runJobSpec(spec, 0);
        benchmark::DoNotOptimize(r.simTicks);
    }
}
BENCHMARK(BM_RunJobSpecHosts)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

static void
BM_ProgramEntryPack(benchmark::State &state)
{
    controller::ProgramEntry e;
    e.type = 0x9;
    e.data = 0x123456;
    e.qaddr = 0xABCDE;
    for (auto _ : state) {
        std::uint64_t lo, hi;
        e.pack(lo, hi);
        auto back = controller::ProgramEntry::unpack(lo, hi);
        benchmark::DoNotOptimize(back.data);
    }
}
BENCHMARK(BM_ProgramEntryPack);

static void
BM_AngleEncode(benchmark::State &state)
{
    double a = 0.1;
    for (auto _ : state) {
        auto code = controller::ProgramEntry::encodeAngle(a);
        benchmark::DoNotOptimize(code);
        a += 1e-3;
    }
}
BENCHMARK(BM_AngleEncode);

BENCHMARK_MAIN();
