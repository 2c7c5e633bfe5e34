#include "qtenon_system.hh"

namespace qtenon::core {

QtenonSystem::QtenonSystem(QtenonConfig cfg) : _cfg(cfg)
{
    const auto core_clock = sim::ClockDomain::fromHz(_cfg.coreFreqHz);

    _dram = std::make_unique<memory::Dram>(_eq, "dram", _cfg.dram);
    _l2 = std::make_unique<memory::Cache>(_eq, "l2", core_clock,
                                          _cfg.l2, _dram.get());
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

VqaRunResult
QtenonSystem::runVqa(vqa::Workload &w, vqa::DriverConfig driver_cfg)
{
    VqaRunResult res;
    vqa::VqaDriver driver(driver_cfg);
    res.trace = driver.run(w);
    res.shotDuration = shotDuration(w.circuit);
    res.timing = _executor->execute(res.trace, res.shotDuration);
    res.finalCost = res.trace.costHistory.empty()
        ? 0.0 : res.trace.costHistory.back();
    return res;
}

} // namespace qtenon::core
