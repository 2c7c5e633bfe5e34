/**
 * @file
 * The Quantum Controller Cache (QCC): the SRAM buffer at the L1 level
 * of the unified memory hierarchy (paper Sec. 5.1).
 *
 * Holds the five segments' contents functionally, enforces the
 * public/private split (.slt and .pulse are hardware-private), and
 * models SRAM port timing in the 200 MHz controller clock domain.
 *
 * A .pulse slot holds a 64-bit PulseKey naming the pulse a PGU wrote
 * there, not its samples; PulseSynthesizer::entryFor(key)
 * materializes them on demand.
 *
 * Storage is high-water: each qubit's .program and .pulse chunks
 * grow only up to the highest entry written. The SLT bump allocator
 * and q_set both fill a chunk from entry 0 upward, so a 320-qubit
 * cache holds what its programs use instead of the full geometry.
 * An entry above a chunk's high-water mark reads as the zero entry
 * and its pulse as invalid, exactly as a value-filled array would.
 *
 * The q_gen hot accessors (readProgram, writeProgram, pulseValid,
 * readRegfile) are defined inline below; their bad-address panics
 * stay out of line.
 */

#ifndef QTENON_CONTROLLER_QCC_HH
#define QTENON_CONTROLLER_QCC_HH

#include <cstdint>
#include <vector>

#include "memory/address_map.hh"
#include "program_entry.hh"
#include "sim/sim_object.hh"

namespace qtenon::controller {

/**
 * A .pulse slot's descriptor: written flag (bit 36), 4-bit gate type
 * code (35..32) and the full resolved data word (31..0), as a
 * .regfile word may exceed the 27-bit data field. Zero means never
 * written. pulseKey() builds one; the two below read it back.
 */
using PulseKey = std::uint64_t;

constexpr PulseKey
pulseKey(std::uint8_t type, std::uint32_t data)
{
    return PulseKey{1} << 36 | PulseKey{type & 0xFu} << 32 | data;
}

constexpr std::uint8_t
pulseKeyType(PulseKey key)
{
    return static_cast<std::uint8_t>(key >> 32 & 0xF);
}

constexpr std::uint32_t
pulseKeyData(PulseKey key)
{
    return static_cast<std::uint32_t>(key);
}

/**
 * Functional + timing model of the QCC SRAM. QAddresses are
 * entry-granular per memory::QccLayout.
 */
class QuantumControllerCache : public sim::Clocked
{
  public:
    QuantumControllerCache(sim::EventQueue &eq, std::string name,
                           sim::ClockDomain clock,
                           memory::QccLayout layout);

    /** Publishes the counts below into obs (when enabled). */
    ~QuantumControllerCache() override;

    const memory::QccLayout &layout() const { return _layout; }

    /**
     * @name .program segment
     * A returned reference is valid until the next write to the
     * same qubit's chunk.
     */
    /// @{
    const ProgramEntry &
    readProgram(std::uint64_t qaddr) const
    {
        ++programReads;
        const auto [qubit, entry] = programPos(qaddr);
        const auto &chunk = _program[qubit];
        return entry < chunk.size() ? chunk[entry] : zeroProgramEntry;
    }

    void
    writeProgram(std::uint64_t qaddr, const ProgramEntry &e)
    {
        ++programWrites;
        const auto [qubit, entry] = programPos(qaddr);
        auto &chunk = _program[qubit];
        if (entry >= chunk.size())
            chunk.resize(std::size_t(entry) + 1);
        chunk[entry] = e;
    }

    /**
     * Set the status of every entry in @p work to Valid, as a
     * recalled q_gen run left them. Counts no access: the QCC
     * counters take the logged run's own accesses from its
     * PipelineResult.
     */
    void markProgramValid(const std::vector<std::uint64_t> &work);

    /** Number of valid program entries installed for @p qubit. */
    std::uint32_t programLength(std::uint32_t qubit) const;
    void setProgramLength(std::uint32_t qubit, std::uint32_t len);

    /** Every installed .program QAddress, qubit by qubit (a full
     *  q_gen's work list). */
    std::vector<std::uint64_t> installedPrograms() const;
    /// @}

    /** @name .pulse segment (hardware-private) */
    /// @{
    /** The slot's descriptor; 0 when it was never written. */
    PulseKey readPulse(std::uint64_t qaddr) const;
    void writePulse(std::uint64_t qaddr, PulseKey key);

    bool
    pulseValid(std::uint64_t qaddr) const
    {
        const auto [qubit, entry] = pulsePos(qaddr);
        const auto &chunk = _pulse[qubit];
        return entry < chunk.size() && chunk[entry] != 0;
    }
    /// @}

    /** @name .measure segment */
    /// @{
    std::uint64_t readMeasure(std::uint32_t entry) const;
    void writeMeasure(std::uint32_t entry, std::uint64_t value);
    /// @}

    /** @name .regfile segment */
    /// @{
    std::uint32_t
    readRegfile(std::uint32_t entry) const
    {
        if (entry >= _regfile.size())
            regfileOutOfRange(entry);
        return _regfile[entry];
    }

    void writeRegfile(std::uint32_t entry, std::uint32_t value);
    /// @}

    /**
     * Whether a user-originated access to @p qaddr is legal (public
     * segments only).
     */
    bool userAccessible(std::uint64_t qaddr) const;

    /**
     * SRAM port timing: returns the tick at which an access starting
     * now completes, serializing on the port.
     */
    sim::Tick portAccess(std::uint32_t entries = 1);

    /** .program entries read (readProgram is const, hence mutable). */
    mutable sim::Count programReads;
    sim::Count programWrites;
    sim::Count pulseWrites;
    sim::Count measureWrites;
    sim::Count regfileWrites;

  private:
    /** A (qubit, entry) position inside a per-qubit chunk. */
    struct ChunkPos {
        std::uint32_t qubit;
        std::uint32_t entry;
    };

    /** What an entry above its chunk's high-water mark reads as. */
    static const ProgramEntry zeroProgramEntry;

    [[noreturn]] static void notInSegment(std::uint64_t qaddr,
                                          const char *segment);
    [[noreturn]] static void regfileOutOfRange(std::uint32_t entry);

    ChunkPos
    programPos(std::uint64_t qaddr) const
    {
        // .program starts at QAddress 0, below every other segment,
        // so this bound is segmentOf()'s .program test.
        if (qaddr >= _programEnd)
            notInSegment(qaddr, ".program");
        return {static_cast<std::uint32_t>(
                    qaddr / _layout.programEntriesPerQubit),
                static_cast<std::uint32_t>(
                    qaddr % _layout.programEntriesPerQubit)};
    }

    ChunkPos
    pulsePos(std::uint64_t qaddr) const
    {
        // .pulse lies above every other segment, so this range is
        // segmentOf()'s .pulse test.
        const auto idx = qaddr - _pulseBase;
        if (qaddr < _pulseBase || idx >= _pulseSpan)
            notInSegment(qaddr, ".pulse");
        return {static_cast<std::uint32_t>(
                    idx / _layout.pulseEntriesPerQubit),
                static_cast<std::uint32_t>(
                    idx % _layout.pulseEntriesPerQubit)};
    }

    memory::QccLayout _layout;
    /** Segment bounds cached from the layout for the hot accessors. */
    std::uint64_t _programEnd;
    std::uint64_t _pulseBase;
    std::uint64_t _pulseSpan;
    /** Per-qubit .program chunks, grown to the highest write. */
    std::vector<std::vector<ProgramEntry>> _program;
    /** Per-qubit .pulse descriptors, grown to the highest write. */
    std::vector<std::vector<PulseKey>> _pulse;
    std::vector<std::uint64_t> _measure;
    std::vector<std::uint32_t> _regfile;
    std::vector<std::uint32_t> _programLength;
    sim::Tick _portFree = 0;
};

} // namespace qtenon::controller

#endif // QTENON_CONTROLLER_QCC_HH
