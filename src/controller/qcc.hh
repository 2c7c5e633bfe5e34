/**
 * @file
 * The Quantum Controller Cache (QCC): the SRAM buffer at the L1 level
 * of the unified memory hierarchy (paper Sec. 5.1).
 *
 * Holds the five segments' contents functionally, enforces the
 * public/private split (.slt and .pulse are hardware-private), and
 * models SRAM port timing in the 200 MHz controller clock domain.
 *
 * Storage is high-water: each qubit's .program and .pulse chunks
 * grow only up to the highest entry written. The SLT bump allocator
 * and q_set both fill a chunk from entry 0 upward, so a 320-qubit
 * cache holds what its programs use instead of the full geometry.
 * An entry above a chunk's high-water mark reads as the zero entry
 * and its pulse as invalid, exactly as a value-filled array would.
 */

#ifndef QTENON_CONTROLLER_QCC_HH
#define QTENON_CONTROLLER_QCC_HH

#include <array>
#include <cstdint>
#include <vector>

#include "memory/address_map.hh"
#include "program_entry.hh"
#include "sim/sim_object.hh"

namespace qtenon::controller {

/** A 640-bit generated control pulse (.pulse entry). */
using PulseEntry = std::array<std::uint64_t, 10>;

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
    const ProgramEntry &readProgram(std::uint64_t qaddr) const;
    void writeProgram(std::uint64_t qaddr, const ProgramEntry &e);
    /** Number of valid program entries installed for @p qubit. */
    std::uint32_t programLength(std::uint32_t qubit) const;
    void setProgramLength(std::uint32_t qubit, std::uint32_t len);
    /// @}

    /**
     * @name .pulse segment (hardware-private)
     * A returned reference is valid until the next write to the
     * same qubit's chunk.
     */
    /// @{
    const PulseEntry &readPulse(std::uint64_t qaddr) const;
    void writePulse(std::uint64_t qaddr, const PulseEntry &p);
    bool pulseValid(std::uint64_t qaddr) const;
    /// @}

    /** @name .measure segment */
    /// @{
    std::uint64_t readMeasure(std::uint32_t entry) const;
    void writeMeasure(std::uint32_t entry, std::uint64_t value);
    /// @}

    /** @name .regfile segment */
    /// @{
    std::uint32_t readRegfile(std::uint32_t entry) const;
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

    ChunkPos programPos(std::uint64_t qaddr) const;
    ChunkPos pulsePos(std::uint64_t qaddr) const;

    /** One qubit's .pulse chunk up to its high-water mark. */
    struct PulseChunk {
        std::vector<PulseEntry> entries;
        std::vector<bool> valid;
    };

    memory::QccLayout _layout;
    /** Per-qubit .program chunks, grown to the highest write. */
    std::vector<std::vector<ProgramEntry>> _program;
    /** Per-qubit .pulse chunks, grown to the highest write. */
    std::vector<PulseChunk> _pulse;
    std::vector<std::uint64_t> _measure;
    std::vector<std::uint32_t> _regfile;
    std::vector<std::uint32_t> _programLength;
    sim::Tick _portFree = 0;
};

} // namespace qtenon::controller

#endif // QTENON_CONTROLLER_QCC_HH
