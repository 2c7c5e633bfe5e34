#include "pulse_synth.hh"

#include <algorithm>
#include <cmath>

namespace qtenon::controller {

namespace {

/**
 * Gaussian envelope and its DRAG derivative at sample @p s of a
 * @p duration_ns drive. synthesize() and the envelope table both
 * call this, so the two paths share every floating-point operation.
 */
void
envelopeAt(std::size_t s, double duration_ns,
           const PulseSynthConfig &cfg, double &gauss, double &deriv)
{
    const double sigma = duration_ns * cfg.sigmaFraction;
    const double mid = duration_ns / 2.0;
    const double dt = 1e9 / cfg.sampleRateHz;
    const double t = (static_cast<double>(s) + 0.5) * dt;
    const double x = (t - mid) / sigma;
    gauss = std::exp(-0.5 * x * x);
    // DRAG: quadrature gets the scaled derivative of the envelope,
    // suppressing leakage to the second level.
    deriv = -x / sigma * gauss;
}

/** One DAC sample: clamp to full scale and truncate to 16 bits. */
std::int16_t
quantize(double v)
{
    const double full_scale = 32767.0;
    return static_cast<std::int16_t>(std::clamp(v, -1.0, 1.0) *
                                     full_scale);
}

/**
 * Rotation amplitude: the integrated Rabi drive is proportional to
 * the angle; non-parameterized gates drive a fixed pi (or pi/2 for
 * H-like) pulse.
 */
double
amplitudeOf(quantum::GateType type, double angle)
{
    if (!quantum::isParameterized(type))
        return 1.0;
    // Wrap into (-pi, pi] and scale.
    const double a = std::remainder(angle, 2.0 * M_PI);
    return a / M_PI;
}

/** Place sample @p s's I/Q pair in its half of its 64-bit word. */
void
packSample(PulseEntry &entry, std::uint32_t s, std::int16_t i,
           std::int16_t q)
{
    const std::uint64_t pair =
        (std::uint64_t(static_cast<std::uint16_t>(q)) << 16) |
        std::uint64_t(static_cast<std::uint16_t>(i));
    entry[s / 2] |= pair << ((s % 2) * 32);
}

/** Samples a @p duration_ns drive spans at the DAC rate. */
std::size_t
samplesFor(double duration_ns, const PulseSynthConfig &cfg)
{
    return static_cast<std::size_t>(duration_ns * cfg.sampleRateHz /
                                    1e9);
}

} // namespace

PulseSynthesizer::PulseSynthesizer(PulseSynthConfig cfg) : _cfg(cfg)
{
    const double durations[numDriveClasses] = {
        _cfg.oneQubitNs, _cfg.twoQubitNs, _cfg.measureNs};
    for (int c = 0; c < numDriveClasses; ++c) {
        auto &env = _envelope[c];
        env.samples = static_cast<std::uint32_t>(std::min<std::size_t>(
            samplesFor(durations[c], _cfg), samplesPerEntry));
        for (std::uint32_t s = 0; s < env.samples; ++s)
            envelopeAt(s, durations[c], _cfg, env.gauss[s],
                       env.deriv[s]);
    }
}

PulseSynthesizer::DriveClass
PulseSynthesizer::driveClassOf(quantum::GateType type)
{
    using quantum::GateType;
    switch (type) {
      case GateType::Measure:
        return measure;
      case GateType::RZZ:
      case GateType::CZ:
      case GateType::CNOT:
        return twoQubit;
      default:
        return oneQubit;
    }
}

double
PulseSynthesizer::durationNs(quantum::GateType type) const
{
    switch (driveClassOf(type)) {
      case measure:
        return _cfg.measureNs;
      case twoQubit:
        return _cfg.twoQubitNs;
      default:
        return _cfg.oneQubitNs;
    }
}

Waveform
PulseSynthesizer::synthesize(quantum::GateType type, double angle) const
{
    const double duration_ns = durationNs(type);
    const auto samples = samplesFor(duration_ns, _cfg);
    const double amp = amplitudeOf(type, angle);

    Waveform w;
    w.i.resize(samples);
    w.q.resize(samples);
    for (std::size_t s = 0; s < samples; ++s) {
        double gauss, deriv;
        envelopeAt(s, duration_ns, _cfg, gauss, deriv);
        w.i[s] = quantize(amp * gauss);
        w.q[s] = quantize(amp * _cfg.dragCoefficient * deriv);
    }
    return w;
}

PulseEntry
PulseSynthesizer::packEntry(const Waveform &w) const
{
    // 640 bits = 10 x 64-bit words = 20 samples x (16-bit I + 16-bit
    // Q): each word carries two samples' I/Q pairs. Samples past the
    // waveform's end stay zero.
    PulseEntry entry{};
    const auto n = std::min<std::size_t>(w.numSamples(), samplesPerEntry);
    for (std::uint32_t s = 0; s < n; ++s)
        packSample(entry, s, w.i[s], w.q[s]);
    return entry;
}

PulseEntry
PulseSynthesizer::entryFor(quantum::GateType type, double angle) const
{
    const auto &env = _envelope[driveClassOf(type)];
    const double amp = amplitudeOf(type, angle);
    PulseEntry entry{};
    for (std::uint32_t s = 0; s < env.samples; ++s) {
        packSample(entry, s, quantize(amp * env.gauss[s]),
                   quantize(amp * _cfg.dragCoefficient * env.deriv[s]));
    }
    return entry;
}

PulseEntry
PulseSynthesizer::entryFor(PulseKey key) const
{
    return entryFor(ProgramEntry::decodeType(pulseKeyType(key)),
                    ProgramEntry::decodeAngle(pulseKeyData(key)));
}

} // namespace qtenon::controller
