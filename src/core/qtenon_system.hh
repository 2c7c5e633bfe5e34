/**
 * @file
 * The public facade of the Qtenon reproduction: builds the complete
 * tightly-coupled system (DRAM, L2, TileLink bus, quantum controller,
 * host runtime) from one configuration struct and executes VQA
 * traces against it.
 *
 * Typical use (see examples/qaoa_maxcut.cpp); to compare against
 * the decoupled baseline, describe the experiment as a
 * service::JobSpec instead (examples/quickstart.cpp):
 *
 *   core::QtenonConfig cfg;
 *   cfg.numQubits = 8;
 *   core::QtenonSystem sys(cfg);
 *   auto workload = vqa::Workload::build({...});
 *   auto trace = vqa::VqaDriver({...}).run(workload);
 *   auto result = sys.execute(trace, workload.circuit);
 */

#ifndef QTENON_CORE_QTENON_SYSTEM_HH
#define QTENON_CORE_QTENON_SYSTEM_HH

#include <memory>
#include <string>

#include "controller/controller.hh"
#include "fault/fault.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/tilelink.hh"
#include "runtime/executor.hh"
#include "vqa/driver.hh"

namespace qtenon::core {

/** Full-system configuration (defaults reproduce Tables 2 and 4). */
struct QtenonConfig {
    std::uint32_t numQubits = 64;
    /** Per-qubit .program chunk capacity in entries; 0 keeps the
     *  paper's 1024 (Table 2). Routed images that funnel traffic
     *  through few qubits (multi-chip shard boundaries) need more. */
    std::uint32_t programEntriesPerQubit = 0;
    runtime::HostCoreModel host = runtime::HostCoreModel::rocket();
    runtime::SoftwareConfig software = runtime::SoftwareConfig::full();
    controller::SltConfig slt;
    controller::PipelineConfig pipeline;
    controller::AdiConfig adi;
    memory::CacheConfig l2 = {512 * 1024, 4, 64, 8, 2, 1};
    memory::DramConfig dram;
    memory::TileLinkConfig bus;
    quantum::GateTiming gateTiming;
    std::uint64_t coreFreqHz = 1'000'000'000ull;
    /** Ablation: force K shots per measurement PUT (0 = policy). */
    std::uint64_t batchIntervalOverride = 0;
    /** Optional fault injection (not owned): attaches to the bus
     *  (site "bus") and the ADI readout channel (site "adi"). */
    fault::FaultInjector *injector = nullptr;
    /** Tag-retry policy for injected bus response errors (ticks). */
    fault::RetryPolicy busRetry{.maxAttempts = 3,
                                .backoff = 10 * sim::nsTicks};
};

/** The assembled system. */
class QtenonSystem
{
  public:
    explicit QtenonSystem(QtenonConfig cfg = QtenonConfig{});
    ~QtenonSystem();

    const QtenonConfig &config() const { return _cfg; }
    sim::EventQueue &eventQueue() { return _eq; }
    controller::QuantumController &controller() { return *_controller; }
    memory::TileLinkBus &bus() { return *_bus; }
    memory::Cache &l2() { return *_l2; }
    memory::Dram &dram() { return *_dram; }
    runtime::QtenonExecutor &executor() { return *_executor; }

    /** One shot's wall time for @p c under the configured timing. */
    sim::Tick shotDuration(const quantum::QuantumCircuit &c) const;

    /** Replay a prepared trace (timing only). */
    runtime::ExecutionResult execute(const runtime::VqaTrace &trace,
                                     const quantum::QuantumCircuit &c);

  private:
    QtenonConfig _cfg;
    sim::EventQueue _eq;
    std::unique_ptr<memory::Dram> _dram;
    std::unique_ptr<memory::Cache> _l2;
    std::unique_ptr<memory::TileLinkBus> _bus;
    std::unique_ptr<controller::QuantumController> _controller;
    std::unique_ptr<runtime::QtenonExecutor> _executor;
};

/** Format ticks with an adaptive unit (ns/us/ms/s). */
std::string formatTime(sim::Tick t);

} // namespace qtenon::core

#endif // QTENON_CORE_QTENON_SYSTEM_HH
