#include "qtenon_system.hh"

#include <cstdio>

namespace qtenon::core {

QtenonSystem::QtenonSystem(QtenonConfig cfg) : _cfg(cfg)
{
    const auto core_clock = sim::ClockDomain::fromHz(_cfg.coreFreqHz);

    _dram = std::make_unique<memory::Dram>(_cfg.dram);
    _l2 = std::make_unique<memory::Cache>("l2", core_clock, _cfg.l2,
                                          _dram.get());
    _bus = std::make_unique<memory::TileLinkBus>(
        _eq, "bus", core_clock, _cfg.bus, _l2.get());
    if (_cfg.injector)
        _bus->attachInjector(_cfg.injector, _cfg.busRetry);

    controller::ControllerConfig ctrl_cfg;
    ctrl_cfg.layout.numQubits = _cfg.numQubits;
    if (_cfg.programEntriesPerQubit)
        ctrl_cfg.layout.programEntriesPerQubit =
            _cfg.programEntriesPerQubit;
    ctrl_cfg.slt = _cfg.slt;
    ctrl_cfg.pipeline = _cfg.pipeline;
    ctrl_cfg.adi = _cfg.adi;
    ctrl_cfg.coreFreqHz = _cfg.coreFreqHz;
    _controller = std::make_unique<controller::QuantumController>(
        _eq, "qc", ctrl_cfg, _bus.get());
    if (_cfg.injector)
        _controller->attachAdiInjector(_cfg.injector);

    runtime::ExecutorConfig exec_cfg;
    exec_cfg.software = _cfg.software;
    exec_cfg.host = _cfg.host;
    exec_cfg.gateTiming = _cfg.gateTiming;
    exec_cfg.batchIntervalOverride = _cfg.batchIntervalOverride;
    // The executor's compiler must lower the way the driver did, so
    // its cost/wave accounting matches the images it is handed.
    isa::PipelineConfig pipe;
    pipe.vectorIsa = _cfg.software.vectorIsa;
    _executor = std::make_unique<runtime::QtenonExecutor>(
        _eq, *_controller,
        isa::QtenonCompiler{isa::CompilerCostModel{}, pipe}, exec_cfg);
}

QtenonSystem::~QtenonSystem() = default;

sim::Tick
QtenonSystem::shotDuration(const quantum::QuantumCircuit &c) const
{
    quantum::QuantumTimingModel timing(_cfg.gateTiming);
    return timing.schedule(c).duration;
}

runtime::ExecutionResult
QtenonSystem::execute(const runtime::VqaTrace &trace,
                      const quantum::QuantumCircuit &c)
{
    return _executor->execute(trace, shotDuration(c));
}

std::string
formatTime(sim::Tick t)
{
    char buf[64];
    const double ns = sim::ticksToNs(t);
    if (ns < 1e3)
        std::snprintf(buf, sizeof(buf), "%.1f ns", ns);
    else if (ns < 1e6)
        std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
    else if (ns < 1e9)
        std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.3f s", ns / 1e9);
    return buf;
}

} // namespace qtenon::core
