/**
 * @file
 * Control-pulse waveform synthesis: the PGU's arithmetic,
 * materialized on demand.
 *
 * Models the standard superconducting single-qubit drive: a Gaussian
 * envelope with a DRAG quadrature correction, amplitude-scaled by
 * the rotation angle, mixed onto I/Q channels and quantized to the
 * two 16-bit DAC streams the ADI describes (64 bits per nanosecond
 * per qubit). One 640-bit .pulse entry therefore holds 10 ns of
 * waveform: 20 samples x 2 channels x 16 bit.
 */

#ifndef QTENON_CONTROLLER_PULSE_SYNTH_HH
#define QTENON_CONTROLLER_PULSE_SYNTH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "qcc.hh"
#include "quantum/gate.hh"

namespace qtenon::controller {

/** A 640-bit control pulse: the samples a .pulse entry names. */
using PulseEntry = std::array<std::uint64_t, 10>;

/** Synthesis parameters. */
struct PulseSynthConfig {
    /** DAC sample rate. */
    double sampleRateHz = 2e9;
    /** Single-qubit drive duration. */
    double oneQubitNs = 20.0;
    /** Two-qubit (coupler) drive duration. */
    double twoQubitNs = 40.0;
    /** Measurement drive duration fitting one entry budget. */
    double measureNs = 600.0;
    /** Gaussian sigma as a fraction of the pulse length. */
    double sigmaFraction = 0.25;
    /** DRAG coefficient (quadrature derivative weight). */
    double dragCoefficient = 0.5;
};

/** A synthesized waveform: interleaved I/Q 16-bit samples. */
struct Waveform {
    std::vector<std::int16_t> i;
    std::vector<std::int16_t> q;

    std::size_t numSamples() const { return i.size(); }
};

/**
 * The PGU's arithmetic core. The envelope of the first entry's
 * samples depends only on the drive class (1q / 2q / measure), so
 * the constructor tabulates it once; entryFor() scales the table by
 * the angle's amplitude, the same IEEE operations in the same order
 * as synthesize(), and so packs a bit-identical entry without
 * evaluating an exponential or allocating.
 */
class PulseSynthesizer
{
  public:
    explicit PulseSynthesizer(PulseSynthConfig cfg = PulseSynthConfig{});

    const PulseSynthConfig &config() const { return _cfg; }

    /** Drive duration in nanoseconds for a gate type. */
    double durationNs(quantum::GateType type) const;

    /**
     * Synthesize the waveform for @p type at @p angle: Gaussian I
     * envelope scaled by angle / pi, DRAG derivative on Q.
     */
    Waveform synthesize(quantum::GateType type, double angle) const;

    /**
     * Pack the first 10 ns of a waveform into one 640-bit .pulse
     * entry (20 samples x 2 channels x 16 bit).
     */
    PulseEntry packEntry(const Waveform &w) const;

    /**
     * The packed .pulse entry for @p type at @p angle, from the
     * envelope table: always equal to packEntry(synthesize(type,
     * angle)), which stays the full-waveform reference.
     */
    PulseEntry entryFor(quantum::GateType type, double angle) const;

    /**
     * The packed entry a stored .pulse descriptor names:
     * entryFor(decodeType(type), decodeAngle(data)).
     */
    PulseEntry entryFor(PulseKey key) const;

    /** Samples one .pulse entry holds per channel. */
    static constexpr std::uint32_t samplesPerEntry = 20;

  private:
    /** One drive class's envelope over the first entry's samples. */
    struct Envelope {
        /** Samples the drive has inside the entry; the rest are 0. */
        std::uint32_t samples = 0;
        std::array<double, samplesPerEntry> gauss{};
        std::array<double, samplesPerEntry> deriv{};
    };

    enum DriveClass { oneQubit, twoQubit, measure, numDriveClasses };

    static DriveClass driveClassOf(quantum::GateType type);

    PulseSynthConfig _cfg;
    std::array<Envelope, numDriveClasses> _envelope;
};

} // namespace qtenon::controller

#endif // QTENON_CONTROLLER_PULSE_SYNTH_HH
