#include "ansatz.hh"

#include <string>
#include <vector>

#include "sim/logging.hh"

namespace qtenon::quantum::ansatz {

namespace {

/**
 * Partition edges into waves with disjoint endpoints (a greedy edge
 * coloring), the way a transpiler schedules commuting RZZ gates so
 * they execute in parallel on hardware.
 */
std::vector<std::vector<Graph::Edge>>
edgeWaves(const Graph &g)
{
    std::vector<std::vector<Graph::Edge>> waves;
    std::vector<bool> placed(g.numEdges(), false);
    std::size_t remaining = g.numEdges();
    while (remaining > 0) {
        std::vector<Graph::Edge> wave;
        std::vector<bool> busy(g.numNodes(), false);
        for (std::size_t i = 0; i < g.numEdges(); ++i) {
            if (placed[i])
                continue;
            const auto &e = g.edges()[i];
            if (busy[e.u] || busy[e.v])
                continue;
            busy[e.u] = busy[e.v] = true;
            placed[i] = true;
            --remaining;
            wave.push_back(e);
        }
        waves.push_back(std::move(wave));
    }
    return waves;
}

/** "<prefix><layer>_<qubit>", appended piecewise: GCC 12 -O3 reports
 *  a false -Wrestrict on `"t" + std::to_string(l)`. */
std::string
paramName(char prefix, std::uint32_t layer, std::uint32_t qubit)
{
    std::string name(1, prefix);
    name += std::to_string(layer);
    name += '_';
    name += std::to_string(qubit);
    return name;
}

} // namespace

QuantumCircuit
qaoaMaxCut(const Graph &g, std::uint32_t layers, bool measure)
{
    QuantumCircuit c(g.numNodes());

    // Uniform superposition.
    for (std::uint32_t q = 0; q < g.numNodes(); ++q)
        c.h(q);

    const auto waves = edgeWaves(g);
    for (std::uint32_t l = 0; l < layers; ++l) {
        const auto gamma = c.addParameter(
            0.1, "gamma" + std::to_string(l));
        const auto beta = c.addParameter(
            0.1, "beta" + std::to_string(l));

        for (const auto &wave : waves) {
            for (const auto &e : wave)
                c.rzz(e.u, e.v, ParamRef::symbol(gamma));
        }
        for (std::uint32_t q = 0; q < g.numNodes(); ++q)
            c.rx(q, ParamRef::symbol(beta));
    }

    if (measure)
        c.measureAll();
    return c;
}

QuantumCircuit
hardwareEfficient(std::uint32_t num_qubits, std::uint32_t layers,
                  bool measure)
{
    if (num_qubits < 2)
        sim::fatal("hardware-efficient ansatz needs >= 2 qubits");
    QuantumCircuit c(num_qubits);

    for (std::uint32_t l = 0; l < layers; ++l) {
        for (std::uint32_t q = 0; q < num_qubits; ++q) {
            const auto p = c.addParameter(0.1, paramName('t', l, q));
            c.ry(q, ParamRef::symbol(p));
        }
        // Linear CZ ladder: even pairs then odd pairs so disjoint
        // gates parallelize on hardware.
        for (std::uint32_t q = 0; q + 1 < num_qubits; q += 2)
            c.cz(q, q + 1);
        for (std::uint32_t q = 1; q + 1 < num_qubits; q += 2)
            c.cz(q, q + 1);
    }

    if (measure)
        c.measureAll();
    return c;
}

QuantumCircuit
qnn(std::uint32_t num_qubits, const std::vector<double> &features,
    std::uint32_t layers, bool measure)
{
    if (num_qubits < 2)
        sim::fatal("QNN circuit needs >= 2 qubits");
    if (features.empty())
        sim::fatal("QNN circuit needs a non-empty feature vector");

    QuantumCircuit c(num_qubits);

    // Angle-encoding layer with literal (data-dependent) angles.
    for (std::uint32_t q = 0; q < num_qubits; ++q)
        c.rx(q, ParamRef::literal(features[q % features.size()]));

    for (std::uint32_t l = 0; l < layers; ++l) {
        for (std::uint32_t q = 0; q < num_qubits; ++q) {
            const auto p = c.addParameter(0.1, paramName('w', l, q));
            c.ry(q, ParamRef::symbol(p));
        }
        for (std::uint32_t q = 0; q + 1 < num_qubits; q += 2)
            c.cz(q, q + 1);
        for (std::uint32_t q = 1; q + 1 < num_qubits; q += 2)
            c.cz(q, q + 1);
    }

    if (measure)
        c.measureAll();
    return c;
}

} // namespace qtenon::quantum::ansatz
