/**
 * @file
 * Differential tests for the 64-qubit shot path: mean-field sampling
 * and readout error on integer coin thresholds, and cost scoring on
 * bit-planes. Each fast path must equal, bit for bit, the per-draw and
 * per-shot loops kept here as frozen references.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "quantum/ansatz.hh"
#include "quantum/backend.hh"
#include "quantum/graph.hh"
#include "quantum/molecule.hh"
#include "quantum/pauli.hh"
#include "quantum/shot_planes.hh"
#include "sim/random.hh"
#include "random_bodies.hh"
#include "vqa/cost.hh"
#include "vqa/measurement.hh"

using namespace qtenon;
using namespace qtenon::quantum;

namespace {

/** The seed engine's coin: a double draw compared against @p p. */
bool
referenceCoin(std::mt19937_64 &engine, double p)
{
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine) < p;
}

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/** A mean-field register with qubits at P(1) = 0, = 1 and between. */
std::unique_ptr<Backend>
meanField(std::uint32_t n)
{
    QuantumCircuit c(n);
    for (std::uint32_t q = 0; q < n; ++q) {
        if (q % 5 == 1)
            c.x(q);
        else if (q % 5 != 0)
            c.ry(q, ParamRef::literal(0.37 * q));
    }
    BackendConfig cfg;
    cfg.kind = BackendKind::MeanField;
    auto b = makeBackend(n, cfg);
    b->run(c);
    return b;
}

/**
 * Random full 64-bit shot words; @p skew > 0 ANDs in that many more
 * draws, so bits read 1 with probability 2^-(skew+1) and cost sums
 * stay far from zero.
 */
std::vector<std::uint64_t>
randomShots(std::size_t count, std::uint64_t seed, int skew = 0)
{
    std::mt19937_64 engine(seed);
    std::vector<std::uint64_t> shots(count);
    for (auto &s : shots) {
        s = engine();
        for (int i = 0; i < skew; ++i)
            s &= engine();
    }
    return shots;
}

bool
bitSet(std::uint64_t word, std::uint32_t q)
{
    return word & (std::uint64_t(1) << q);
}

double
referenceMaxCut(const Graph &g, const std::vector<std::uint64_t> &shots)
{
    if (shots.empty())
        return 0.0;
    double sum = 0.0;
    for (auto s : shots) {
        std::uint64_t cut = 0;
        for (const auto &e : g.edges()) {
            if (bitSet(s, e.u) != bitSet(s, e.v))
                ++cut;
        }
        sum += static_cast<double>(cut);
    }
    return -sum / static_cast<double>(shots.size());
}

double
referenceDiagonal(const Hamiltonian &h,
                  const std::vector<std::uint64_t> &shots)
{
    if (shots.empty())
        return h.identityOffset();
    double e = 0.0;
    for (const auto &t : h.terms()) {
        if (!t.string.isDiagonal())
            continue;
        double sum = 0.0;
        for (auto s : shots) {
            double sign = 1.0;
            for (const auto &f : t.string.factors) {
                if (f.op == Pauli::Z && bitSet(s, f.qubit))
                    sign = -sign;
            }
            sum += sign;
        }
        e += t.coefficient * sum / static_cast<double>(shots.size());
    }
    return e + h.identityOffset();
}

double
referenceQnn(double target, const std::vector<std::uint64_t> &shots)
{
    if (shots.empty())
        return 0.0;
    double ones = 0.0;
    for (auto s : shots)
        ones += (s & 1) ? 1.0 : 0.0;
    const double p1 = ones / static_cast<double>(shots.size());
    const double d = p1 - target;
    return d * d;
}

/** 64 qubits: diagonal terms (one on qubit 63, one naming Z7 twice),
 *  two skipped non-diagonal terms and an identity offset. */
Hamiltonian
mixedHamiltonian()
{
    Hamiltonian h(64);
    h.addTerm(0.75, PauliString::parse("Z0 Z63"));
    h.addTerm(-1.0 / 3.0, PauliString::parse("Z63"));
    h.addTerm(0.5, PauliString::parse("Z7 Z7"));
    h.addTerm(0.3, PauliString::parse("Z7 Z7 Z9"));
    h.addTerm(-0.2, PauliString::parse("Z1 Z2 Z3 Z40 Z62"));
    h.addTerm(0.1, PauliString::parse("Z11"));
    h.addTerm(2.0, PauliString::parse("X4 X5"));
    h.addTerm(-0.6, PauliString::parse("Y63 Z1"));
    h.addIdentity(-0.125);
    return h;
}

const std::size_t shotCounts[] = {0, 1, 63, 64, 65, 500};

} // namespace

TEST(ShotPathDifferential, MeanFieldSampleMatchesPerDrawCoins)
{
    for (std::uint32_t n : {1u, 7u, 63u, 64u}) {
        SCOPED_TRACE(n);
        auto b = meanField(n);
        const auto p1 = b->marginals();
        if (n >= 7) {
            EXPECT_EQ(p1[0], 0.0);
            EXPECT_EQ(p1[1], 1.0);
        }
        sim::Rng rng(n);
        std::mt19937_64 reference(n);
        const auto shots = b->sample(300, rng);
        ASSERT_EQ(shots.size(), 300u);
        for (std::size_t s = 0; s < shots.size(); ++s) {
            std::uint64_t word = 0;
            for (std::uint32_t q = 0; q < n; ++q) {
                if (referenceCoin(reference, p1[q]))
                    word |= std::uint64_t(1) << q;
            }
            ASSERT_EQ(shots[s], word) << "shot " << s;
        }
        EXPECT_EQ(rng.raw(), reference());
    }
}

TEST(ShotPathDifferential, ReadoutErrorMatchesPerDrawCoins)
{
    for (double e : {1e-3, 0.5}) {
        for (std::uint32_t n : {5u, 64u}) {
            SCOPED_TRACE(e);
            auto words = randomShots(130, 17);
            auto expected = words;
            sim::Rng rng(23);
            std::mt19937_64 reference(23);
            applyReadoutError(words, n, e, rng);
            for (auto &w : expected) {
                for (std::uint32_t q = 0; q < n; ++q) {
                    if (referenceCoin(reference, e))
                        w ^= std::uint64_t(1) << q;
                }
            }
            EXPECT_EQ(words, expected);
            EXPECT_EQ(rng.raw(), reference());
        }
    }
}

TEST(CoinWords, MatchesPerDrawCoins)
{
    constexpr std::uint64_t top = std::uint64_t(1) << 63;
    const std::uint64_t levels[] = {0,       1,       top - 1,
                                    top,     top + 1, ~std::uint64_t(0)};
    // Draws on either side of 2⁶³ and of every level, where a signed
    // compare would go wrong.
    const std::uint64_t forced[] = {0,       1,       2,
                                    top - 2, top - 1, top,
                                    top + 1, top + 2, ~std::uint64_t(0) - 1,
                                    ~std::uint64_t(0)};
    for (const auto &[name, bodies] : tests::bodyBuilds()) {
        for (std::uint32_t n : {1u, 3u, 4u, 5u, 63u, 64u}) {
            // Qubit q takes a level in turn; every seventh always
            // succeeds (its threshold is 0, as CoinThreshold keeps it).
            std::vector<std::uint64_t> thresholds(n);
            std::uint64_t always = 0;
            for (std::uint32_t q = 0; q < n; ++q) {
                thresholds[q] = levels[(q + n) % 6];
                if (q % 7 == 3) {
                    thresholds[q] = 0;
                    always |= std::uint64_t(1) << q;
                }
            }
            // Zero, one and odd shot counts, then more than one
            // 2048-draw buffer.
            for (std::size_t shots :
                 {std::size_t(0), std::size_t(1), std::size_t(7),
                  std::size_t(2048 / n + 1), std::size_t(2501)}) {
                SCOPED_TRACE(testing::Message() << name << ", " << n
                                                << " coins, " << shots
                                                << " shots");
                sim::Rng rng(n * 1000 + shots);
                auto &state = rng.engine().state();
                for (std::size_t k = 0; k < state.tempered.size(); ++k)
                    state.tempered[k] = forced[(k * 7 + n) % 10];
                state.next = 0;
                sim::Rng reference = rng;
                std::vector<std::uint64_t> words(shots);
                bodies->coinWords(state, thresholds.data(), always, n,
                                  shots, words.data());
                for (std::size_t s = 0; s < shots; ++s) {
                    std::uint64_t word = 0;
                    for (std::uint32_t q = 0; q < n; ++q) {
                        const std::uint64_t x = reference.raw();
                        if (x < thresholds[q] || ((always >> q) & 1))
                            word |= std::uint64_t(1) << q;
                    }
                    ASSERT_EQ(words[s], word) << "shot " << s;
                }
                EXPECT_EQ(rng.raw(), reference.raw());
            }
        }
    }
}

TEST(ShotPathDifferential, MaxCutMatchesPerShotLoop)
{
    Graph edgy(64);
    edgy.addEdge(0, 63);
    edgy.addEdge(62, 63);
    edgy.addEdge(5, 40);
    edgy.addEdge(31, 32);
    for (const auto &g :
         {Graph::threeRegular(64), Graph::ring(7), edgy}) {
        const vqa::MaxCutCost cost(g);
        for (auto count : shotCounts) {
            for (int skew : {0, 2}) {
                SCOPED_TRACE(testing::Message()
                             << count << " shots, skew " << skew);
                const auto shots = randomShots(count, count + 3, skew);
                EXPECT_EQ(bits(cost.fromShots(shots)),
                          bits(referenceMaxCut(g, shots)));
            }
        }
    }
}

TEST(ShotPathDifferential, HamiltonianMatchesPerShotLoop)
{
    for (const auto &h : {mixedHamiltonian(), syntheticMolecule(64),
                          syntheticMolecule(12), h2()}) {
        const vqa::HamiltonianCost cost(h);
        for (auto count : shotCounts) {
            for (int skew : {0, 2}) {
                SCOPED_TRACE(testing::Message()
                             << count << " shots, skew " << skew);
                const auto shots = randomShots(count, count + 5, skew);
                EXPECT_EQ(bits(cost.fromShots(shots)),
                          bits(referenceDiagonal(h, shots)));
            }
        }
    }
}

TEST(ShotPathDifferential, QnnLossMatchesPerShotLoop)
{
    const vqa::QnnLoss cost(64, 0.25);
    for (auto count : shotCounts) {
        SCOPED_TRACE(count);
        const auto shots = randomShots(count, count + 7, 1);
        EXPECT_EQ(bits(cost.fromShots(shots)),
                  bits(referenceQnn(0.25, shots)));
    }
}

TEST(ShotPathDifferential, GroupedEstimateMatchesPerShotLoop)
{
    const auto h = syntheticMolecule(10);
    const vqa::GroupedEstimator est(h);
    const auto circuit = ansatz::hardwareEfficient(10, 2, false);
    BackendConfig cfg;
    cfg.kind = BackendKind::Statevector;
    auto fast = makeBackend(10, cfg);
    auto slow = makeBackend(10, cfg);
    sim::Rng fast_rng(29), slow_rng(29);
    const double got = est.estimate(circuit, *fast, 257, fast_rng);

    double energy = h.identityOffset();
    for (const auto &group : est.groups()) {
        auto rotated = circuit;
        group.appendReadout(rotated);
        slow->run(rotated);
        const auto shots = slow->sample(257, slow_rng);
        for (auto t : group.terms) {
            const auto &term = h.terms()[t];
            double sum = 0.0;
            for (auto word : shots) {
                int sign = 1;
                for (const auto &f : term.string.factors) {
                    if (bitSet(word, f.qubit))
                        sign = -sign;
                }
                sum += sign;
            }
            energy += term.coefficient * sum /
                static_cast<double>(shots.size());
        }
    }
    EXPECT_EQ(bits(got), bits(energy));
}

TEST(ShotPlanes, OddCountCountsParityPerShot)
{
    for (auto count : shotCounts) {
        const auto shots = randomShots(count, 41);
        const ShotPlanes planes(shots);
        EXPECT_EQ(planes.numShots(), count);
        for (std::uint64_t mask :
             {std::uint64_t(0), std::uint64_t(1),
              std::uint64_t(1) << 63, ~std::uint64_t(0),
              std::uint64_t(0x8000'0000'0000'0001),
              std::uint64_t(0x0123'4567'89ab'cdef)}) {
            std::uint64_t odd = 0;
            for (auto s : shots)
                odd += std::popcount(s & mask) % 2;
            EXPECT_EQ(planes.oddCount(mask), odd)
                << count << " shots, mask " << mask;
        }
    }
}

TEST(ShotPlanes, ParityMaskCancelsRepeatedQubits)
{
    EXPECT_EQ(PauliString::parse("Z3 Z3").parityMask(), 0u);
    EXPECT_EQ(PauliString::parse("Z3 Z3 Z5").parityMask(), 0b100000u);
    EXPECT_EQ(PauliString::parse("X0 Y63").parityMask(),
              0x8000'0000'0000'0001u);
}
