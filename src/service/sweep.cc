#include "sweep.hh"

namespace qtenon::service {

Sweep &
Sweep::base(JobSpec proto)
{
    _proto = std::move(proto);
    return *this;
}

Sweep &
Sweep::configure(const std::function<void(JobSpec &)> &fn)
{
    fn(_proto);
    return *this;
}

Sweep &
Sweep::algorithms(std::vector<vqa::Algorithm> algos)
{
    _algorithms = std::move(algos);
    return *this;
}

Sweep &
Sweep::optimizers(std::vector<vqa::OptimizerKind> opts)
{
    _optimizers = std::move(opts);
    return *this;
}

Sweep &
Sweep::qubits(std::vector<std::uint32_t> sizes)
{
    _qubits = std::move(sizes);
    return *this;
}

Sweep &
Sweep::hosts(std::vector<runtime::HostCoreModel> hosts)
{
    _proto.hosts = std::move(hosts);
    return *this;
}

Sweep &
Sweep::withBaseline(bool on)
{
    _proto.runBaseline = on;
    return *this;
}

Sweep &
Sweep::shots(std::uint64_t shots)
{
    _proto.driver.shots = shots;
    return *this;
}

Sweep &
Sweep::iterations(std::uint32_t iters)
{
    _proto.driver.iterations = iters;
    return *this;
}

Sweep &
Sweep::seed(std::uint64_t seed)
{
    _proto.driver.seed = seed;
    return *this;
}

Sweep &
Sweep::axis(std::vector<SweepVariant> variants)
{
    _axes.push_back(std::move(variants));
    return *this;
}

std::size_t
Sweep::count() const
{
    std::size_t n = 1;
    n *= _algorithms.empty() ? 1 : _algorithms.size();
    n *= _optimizers.empty() ? 1 : _optimizers.size();
    n *= _qubits.empty() ? 1 : _qubits.size();
    for (const auto &ax : _axes)
        n *= ax.empty() ? 1 : ax.size();
    return n;
}

std::vector<JobSpec>
Sweep::build() const
{
    std::vector<JobSpec> out;
    out.reserve(count());

    // Empty axes collapse to "use the prototype's value".
    const std::size_t na = _algorithms.empty() ? 1 : _algorithms.size();
    const std::size_t no = _optimizers.empty() ? 1 : _optimizers.size();
    const std::size_t nq = _qubits.empty() ? 1 : _qubits.size();

    std::vector<std::size_t> axis_idx(_axes.size(), 0);

    for (std::size_t a = 0; a < na; ++a) {
        for (std::size_t o = 0; o < no; ++o) {
            for (std::size_t q = 0; q < nq; ++q) {
                // Odometer over the variant axes.
                std::fill(axis_idx.begin(), axis_idx.end(), 0);
                for (;;) {
                    JobSpec spec = _proto;
                    std::string name = _name;
                    if (!_algorithms.empty()) {
                        spec.workload.algorithm = _algorithms[a];
                        name += '/';
                        name += vqa::algorithmName(_algorithms[a]);
                    }
                    if (!_optimizers.empty()) {
                        spec.driver.optimizer = _optimizers[o];
                        name += _optimizers[o] ==
                                vqa::OptimizerKind::GradientDescent
                            ? "/GD" : "/SPSA";
                    }
                    if (!_qubits.empty()) {
                        spec.workload.numQubits = _qubits[q];
                        name += "/q" + std::to_string(_qubits[q]);
                    }
                    for (std::size_t x = 0; x < _axes.size(); ++x) {
                        if (_axes[x].empty())
                            continue;
                        const auto &v = _axes[x][axis_idx[x]];
                        if (v.apply)
                            v.apply(spec);
                        if (!v.label.empty())
                            name += "/" + v.label;
                    }
                    spec.name = std::move(name);
                    out.push_back(std::move(spec));

                    // Advance the odometer; stop after a full cycle.
                    std::size_t x = _axes.size();
                    while (x > 0) {
                        --x;
                        const std::size_t len =
                            _axes[x].empty() ? 1 : _axes[x].size();
                        if (++axis_idx[x] < len)
                            break;
                        axis_idx[x] = 0;
                    }
                    bool wrapped = true;
                    for (std::size_t i : axis_idx)
                        wrapped = wrapped && i == 0;
                    if (wrapped)
                        break;
                }
            }
        }
    }
    return out;
}

} // namespace qtenon::service
