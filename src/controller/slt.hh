/**
 * @file
 * The Skip Lookup Table (SLT), paper Sec. 5.3 / Fig. 7.
 *
 * Each qubit owns one SLT of 2 ways x 128 entries. A gate parameter
 * (type + quantized data) is reduced to a 7-bit index and a 20-bit
 * tag; a hit returns the .pulse QAddress of a previously generated
 * control pulse so the PGU stage can be skipped. Misses fall back to
 * QSpace (a 4 MB/qubit DRAM region indexed by tag); replacement is
 * Least-Count (LC): invalid entries first, then the smallest access
 * count, with eviction write-back to QSpace.
 *
 * Each way packs into 8 bytes: the pulse entry, and one 32-bit word
 * holding the valid bit (bit 31), the access count and the tag. A
 * configuration whose tag and count widths exceed the 31 bits left
 * beside the valid bit is rejected at construction.
 */

#ifndef QTENON_CONTROLLER_SLT_HH
#define QTENON_CONTROLLER_SLT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/sim_object.hh"
#include "tag_table.hh"

namespace qtenon::controller {

/** SLT geometry. */
struct SltConfig {
    std::uint32_t ways = 2;
    std::uint32_t entriesPerWay = 128;
    /** tagBits + countBits must not exceed 31 (the packed way). */
    std::uint32_t tagBits = 20;
    std::uint32_t countBits = 5;
    /** Controller cycles for one SLT probe. */
    sim::Cycles lookupCycles = 1;
    /** Controller cycles for one QSpace (DRAM) access. */
    sim::Cycles qspaceAccessCycles = 60;
};

/** Outcome of one SLT lookup. */
struct SltResult {
    /** Matched in the SLT itself. */
    bool hit = false;
    /** Missed the SLT but matched in QSpace. */
    bool qspaceHit = false;
    /** A valid entry was evicted (written back to QSpace). */
    bool evicted = false;
    /** Entry index within the qubit's .pulse chunk. */
    std::uint32_t pulseEntry = 0;
    /** True when a fresh pulse must be generated. */
    bool needsGeneration = false;
    /** Cycles consumed by the lookup (probe + QSpace traffic). */
    sim::Cycles cycles = 0;
};

/**
 * The per-qubit skip lookup table with its QSpace backing store. The
 * QSpace content is held functionally (a tag -> pulse-entry table per
 * qubit); its access cost is charged in cycles per SltConfig.
 */
class SkipLookupTable
{
  public:
    SkipLookupTable(std::uint32_t num_qubits, SltConfig cfg = SltConfig{});

    const SltConfig &config() const { return _cfg; }

    /**
     * Look up (and on miss, install) the parameter identified by
     * @p type / @p data for @p qubit. Allocation of new pulse
     * entries uses a per-qubit bump allocator over the .pulse chunk.
     *
     * @param pulse_entries_per_qubit the .pulse chunk size, bounding
     *        the allocator.
     */
    SltResult lookup(std::uint32_t qubit, std::uint8_t type,
                     std::uint32_t data,
                     std::uint32_t pulse_entries_per_qubit);

    /**
     * Bypass path for the SLT-disabled ablation: bump the qubit's
     * pulse allocator without consulting or updating the table.
     */
    std::uint32_t allocate(std::uint32_t qubit,
                           std::uint32_t pulse_entries_per_qubit);

    /** Drop all SLT and QSpace state (e.g. between experiments). */
    void reset();

    /** 7-bit set index from the truncated type/data (Fig. 7 step 1). */
    static std::uint32_t indexOf(std::uint8_t type, std::uint32_t data);

    /** 20-bit tag from the full parameter identity. */
    std::uint32_t tagOf(std::uint8_t type, std::uint32_t data) const;

    /** @name Statistics (shared across all qubits) */
    /// @{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t qspaceHits = 0;
    std::uint64_t qspaceAllocs = 0;
    std::uint64_t evictions = 0;
    /// @}

  private:
    /** One way: the pulse entry and valid | count << tagBits | tag. */
    struct Way {
        std::uint32_t pulseEntry = 0;
        std::uint32_t meta = 0;
    };
    static_assert(sizeof(Way) == 8);

    static constexpr std::uint32_t validBit = 1u << 31;

    SltConfig _cfg;
    std::uint32_t _numQubits;
    /** Ways of one qubit: entriesPerWay sets of `ways` each. */
    std::size_t _qubitStride;
    /** indexOf() -> offset of its set's first way within a qubit. */
    std::array<std::uint32_t, 128> _setOffset;
    std::uint32_t _tagMask;
    std::uint32_t _countMax;
    /** [qubit * _qubitStride + set * ways + way] */
    std::vector<Way> _ways;
    /** Per-qubit functional QSpace: tag -> pulse entry. */
    std::vector<TagTable> _qspace;
    /** Per-qubit .pulse bump allocator. */
    std::vector<std::uint32_t> _nextPulseEntry;
    bool _warnedWrap = false;
};

} // namespace qtenon::controller

#endif // QTENON_CONTROLLER_SLT_HH
