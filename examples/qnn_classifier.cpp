/**
 * @file
 * QNN training: a 4-qubit quantum classifier trained on a small
 * synthetic two-class dataset. Each epoch evaluates every sample's
 * circuit (angle encoding + trainable Ry/CZ block) and updates the
 * shared weights by SPSA; the Qtenon runtime replays the per-sample
 * rounds so the example also reports the modeled hardware time of
 * one training run.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/qtenon_system.hh"
#include "quantum/ansatz.hh"
#include "quantum/backend.hh"

using namespace qtenon;

namespace {

struct Sample {
    std::vector<double> features;
    int label; // 0 or 1
};

/** Two separable clusters in feature space. */
std::vector<Sample>
makeDataset(sim::Rng &rng, std::size_t per_class)
{
    std::vector<Sample> data;
    for (std::size_t i = 0; i < per_class; ++i) {
        data.push_back({{0.4 + 0.1 * rng.normal(),
                         0.5 + 0.1 * rng.normal(),
                         0.4 + 0.1 * rng.normal(),
                         0.5 + 0.1 * rng.normal()},
                        0});
        data.push_back({{2.2 + 0.1 * rng.normal(),
                         2.3 + 0.1 * rng.normal(),
                         2.2 + 0.1 * rng.normal(),
                         2.1 + 0.1 * rng.normal()},
                        1});
    }
    return data;
}

/** P(readout qubit = 1) for a sample under the given weights. */
double
predict(const Sample &s, const std::vector<double> &weights)
{
    auto c = quantum::ansatz::qnn(4, s.features, 2, false);
    c.setParameters(weights);
    quantum::BackendConfig cfg;
    cfg.kind = quantum::BackendKind::Statevector;
    auto backend = quantum::makeBackend(4, cfg);
    backend->run(c);
    return backend->marginalOne(0);
}

/** Mean squared loss over the dataset. */
double
datasetLoss(const std::vector<Sample> &data,
            const std::vector<double> &weights)
{
    double loss = 0.0;
    for (const auto &s : data) {
        const double p = predict(s, weights);
        const double d = p - static_cast<double>(s.label);
        loss += d * d;
    }
    return loss / static_cast<double>(data.size());
}

} // namespace

int
main()
{
    sim::Rng rng(2025);
    auto train = makeDataset(rng, 8);
    auto test = makeDataset(rng, 4);

    // The trainable block of the QNN has 2 layers x 4 qubits = 8
    // shared weights.
    auto probe = quantum::ansatz::qnn(4, train[0].features, 2, false);
    std::vector<double> weights(probe.numParameters(), 0.2);

    std::printf("QNN classifier: 4 qubits, %zu weights, %zu training "
                "samples\n\n",
                weights.size(), train.size());

    vqa::Spsa spsa(0.4, 0.25, 99);
    auto oracle = [&](const std::vector<double> &w) {
        return datasetLoss(train, w);
    };

    const int epochs = 40;
    for (int e = 0; e < epochs; ++e) {
        const double loss = spsa.iterate(weights, oracle);
        if (e % 8 == 0 || e == epochs - 1)
            std::printf("epoch %2d: training loss %.4f\n", e, loss);
    }

    // Accuracy on held-out samples.
    int correct = 0;
    for (const auto &s : test) {
        const int pred = predict(s, weights) > 0.5 ? 1 : 0;
        correct += (pred == s.label) ? 1 : 0;
    }
    std::printf("\ntest accuracy: %d / %zu\n", correct, test.size());

    // Model the hardware cost of the same training run on Qtenon:
    // every epoch evaluates each sample twice (SPSA), and each
    // evaluation is one quantum round of 300 shots.
    vqa::WorkloadConfig wcfg;
    wcfg.algorithm = vqa::Algorithm::Qnn;
    wcfg.numQubits = 4;
    auto workload = vqa::Workload::build(wcfg);

    core::QtenonConfig qcfg;
    qcfg.numQubits = 4;
    core::QtenonSystem sys(qcfg);
    vqa::DriverConfig dcfg;
    dcfg.iterations = epochs;
    dcfg.shots = 300;
    dcfg.optimizer = vqa::OptimizerKind::Spsa;
    const auto trace = vqa::VqaDriver(dcfg).run(workload);
    const auto bd = sys.execute(trace, workload.circuit).total();
    std::printf("\nmodeled Qtenon time for one training run: %.2f ms "
                "(quantum %.1f%%)\n",
                sim::ticksToMs(bd.wall) *
                    static_cast<double>(train.size()),
                bd.percent(bd.quantum));
    return 0;
}
