/**
 * @file
 * Tests of the pulse synthesizer: envelope shape, angle scaling,
 * DRAG quadrature, durations, DAC quantization, and entry packing.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "controller/program_entry.hh"
#include "controller/pulse_synth.hh"

using namespace qtenon::controller;
using qtenon::quantum::GateType;

TEST(PulseSynth, DurationsFollowGateClass)
{
    PulseSynthesizer synth;
    EXPECT_DOUBLE_EQ(synth.durationNs(GateType::RX), 20.0);
    EXPECT_DOUBLE_EQ(synth.durationNs(GateType::H), 20.0);
    EXPECT_DOUBLE_EQ(synth.durationNs(GateType::RZZ), 40.0);
    EXPECT_DOUBLE_EQ(synth.durationNs(GateType::CZ), 40.0);
    EXPECT_DOUBLE_EQ(synth.durationNs(GateType::Measure), 600.0);
}

TEST(PulseSynth, SampleCountMatchesRate)
{
    PulseSynthesizer synth;
    // 20 ns at 2 GHz = 40 samples.
    EXPECT_EQ(synth.synthesize(GateType::RX, M_PI).numSamples(), 40u);
    EXPECT_EQ(synth.synthesize(GateType::RZZ, 1.0).numSamples(), 80u);
}

TEST(PulseSynth, GaussianEnvelopePeaksInTheMiddle)
{
    PulseSynthesizer synth;
    auto w = synth.synthesize(GateType::RX, M_PI);
    const auto n = w.numSamples();
    // Peak near the center, small at the edges.
    EXPECT_GT(std::abs(w.i[n / 2]), std::abs(w.i[0]) * 5);
    EXPECT_GT(std::abs(w.i[n / 2]), std::abs(w.i[n - 1]) * 5);
    // Symmetric-ish envelope.
    EXPECT_NEAR(w.i[2], w.i[n - 3], 64);
}

TEST(PulseSynth, AmplitudeScalesWithAngle)
{
    PulseSynthesizer synth;
    auto full = synth.synthesize(GateType::RX, M_PI);
    auto half = synth.synthesize(GateType::RX, M_PI / 2.0);
    const auto mid = full.numSamples() / 2;
    EXPECT_NEAR(static_cast<double>(half.i[mid]) / full.i[mid], 0.5,
                0.01);
    // Negative angles invert the drive.
    auto neg = synth.synthesize(GateType::RX, -M_PI / 2.0);
    EXPECT_EQ(neg.i[mid], static_cast<std::int16_t>(-half.i[mid]));
}

TEST(PulseSynth, DragQuadratureIsOddSymmetric)
{
    PulseSynthesizer synth;
    auto w = synth.synthesize(GateType::RX, M_PI);
    const auto n = w.numSamples();
    // Q is the (negated) derivative: antisymmetric around center,
    // ~zero at the peak.
    EXPECT_NEAR(w.q[n / 2 - 1] + w.q[n / 2], 0.0, 600);
    EXPECT_NEAR(w.q[2] + w.q[n - 3], 0.0, 64);
    // And genuinely nonzero off-center.
    EXPECT_GT(std::abs(w.q[n / 4]), 100);
}

TEST(PulseSynth, ZeroAngleIsSilent)
{
    PulseSynthesizer synth;
    auto w = synth.synthesize(GateType::RZ, 0.0);
    for (auto v : w.i)
        EXPECT_EQ(v, 0);
}

TEST(PulseSynth, EntryPacksTwentyIqSamples)
{
    PulseSynthesizer synth;
    auto w = synth.synthesize(GateType::RX, M_PI);
    auto entry = synth.packEntry(w);
    // Unpack sample s: word s/2, half s%2.
    for (std::uint32_t s = 0; s < PulseSynthesizer::samplesPerEntry;
         ++s) {
        const auto pair =
            (entry[s / 2] >> ((s % 2) * 32)) & 0xFFFFFFFFull;
        const auto iv = static_cast<std::int16_t>(pair & 0xFFFF);
        const auto qv = static_cast<std::int16_t>(pair >> 16);
        EXPECT_EQ(iv, w.i[s]) << "sample " << s;
        EXPECT_EQ(qv, w.q[s]) << "sample " << s;
    }
}

TEST(PulseSynth, DistinctAnglesDistinctEntries)
{
    PulseSynthesizer synth;
    auto a = synth.entryFor(GateType::RY, 0.5);
    auto b = synth.entryFor(GateType::RY, 0.6);
    EXPECT_NE(a, b);
    // Deterministic per angle.
    EXPECT_EQ(a, synth.entryFor(GateType::RY, 0.5));
}

namespace {

/** entryFor (envelope table) against the synthesize + pack reference. */
void
expectTableMatchesReference(const PulseSynthesizer &synth, GateType type,
                            double angle)
{
    EXPECT_EQ(synth.entryFor(type, angle),
              synth.packEntry(synth.synthesize(type, angle)))
        << qtenon::quantum::gateName(type) << " angle " << angle;
}

} // namespace

TEST(PulseSynth, TableEntryMatchesReference)
{
    PulseSynthConfig short_drive;
    // Drives shorter than one entry's 20 samples exercise the zero
    // fill; odd rates and shapes exercise other rounding.
    short_drive.sampleRateHz = 1.7e9;
    short_drive.oneQubitNs = 4.0;
    short_drive.twoQubitNs = 7.3;
    short_drive.measureNs = 11.0;
    short_drive.sigmaFraction = 0.31;
    short_drive.dragCoefficient = -0.7;

    const double edges[] = {0.0, -0.0, M_PI, -M_PI, 4.0 * M_PI,
                            -4.0 * M_PI, 1e9};
    const std::uint32_t num_codes = 1u << ProgramEntry::dataBits;
    for (const auto &cfg : {PulseSynthConfig{}, short_drive}) {
        const PulseSynthesizer synth(cfg);
        for (int t = 0; t <= static_cast<int>(GateType::Measure); ++t) {
            const auto type = static_cast<GateType>(t);
            for (const double a : edges)
                expectTableMatchesReference(synth, type, a);
            // A prime stride walks every low-bit pattern of the code.
            for (std::uint32_t code = 0; code < num_codes; code += 16381)
                expectTableMatchesReference(
                    synth, type, ProgramEntry::decodeAngle(code));
            expectTableMatchesReference(
                synth, type, ProgramEntry::decodeAngle(num_codes - 1));
        }
    }
}
