#include "slt.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace qtenon::controller {

SkipLookupTable::SkipLookupTable(std::uint32_t num_qubits, SltConfig cfg)
    : _cfg(cfg), _numQubits(num_qubits)
{
    if (cfg.ways == 0 || cfg.entriesPerWay == 0)
        sim::fatal("SLT needs at least one way and one entry per way");
    if (cfg.countBits == 0 || cfg.tagBits + cfg.countBits > 31) {
        sim::fatal("SLT tag (", cfg.tagBits, " bits) and count (",
                   cfg.countBits, " bits) must fit in the 31 bits a "
                   "packed way has beside its valid bit, with a count "
                   "of at least 1 bit");
    }
    _qubitStride = std::size_t(cfg.entriesPerWay) * cfg.ways;
    // The 7-bit concatenated index is reduced to however many
    // entries a way actually has (128 in the paper's geometry).
    for (std::uint32_t i = 0; i < _setOffset.size(); ++i)
        _setOffset[i] = (i % cfg.entriesPerWay) * cfg.ways;
    _tagMask = (1u << cfg.tagBits) - 1;
    _countMax = (1u << cfg.countBits) - 1;
    _ways.assign(num_qubits * _qubitStride, Way{});
    _qspace.resize(num_qubits);
    _nextPulseEntry.assign(num_qubits, 0);
}

std::uint32_t
SkipLookupTable::allocate(std::uint32_t qubit,
                          std::uint32_t pulse_entries_per_qubit)
{
    if (qubit >= _numQubits)
        sim::panic("SLT allocate on out-of-range qubit ", qubit);
    const auto entry = _nextPulseEntry[qubit];
    _nextPulseEntry[qubit] = (entry + 1) % pulse_entries_per_qubit;
    return entry;
}

void
SkipLookupTable::reset()
{
    std::fill(_ways.begin(), _ways.end(), Way{});
    for (auto &t : _qspace)
        t.clear();
    std::fill(_nextPulseEntry.begin(), _nextPulseEntry.end(), 0);
    hits = misses = qspaceHits = qspaceAllocs = evictions = 0;
}

std::uint32_t
SkipLookupTable::indexOf(std::uint8_t type, std::uint32_t data)
{
    // Fig. 7: 3 bits of type and 4 bits of truncated data concatenate
    // into the 7-bit set index.
    const std::uint32_t t3 = type & 0x7;
    const std::uint32_t d4 = (data >> 10) & 0xF;
    return (t3 << 4) | d4;
}

std::uint32_t
SkipLookupTable::tagOf(std::uint8_t type, std::uint32_t data) const
{
    // Mix the full 31-bit identity down to tagBits deterministically.
    std::uint64_t key =
        (std::uint64_t(type) << 27) | (data & ((1u << 27) - 1));
    key ^= key >> 13;
    key *= 0x9E3779B97F4A7C15ull;
    key ^= key >> 29;
    return static_cast<std::uint32_t>(key) & _tagMask;
}

SltResult
SkipLookupTable::lookup(std::uint32_t qubit, std::uint8_t type,
                        std::uint32_t data,
                        std::uint32_t pulse_entries_per_qubit)
{
    if (qubit >= _numQubits)
        sim::panic("SLT lookup on out-of-range qubit ", qubit);

    SltResult r;
    r.cycles = _cfg.lookupCycles;

    Way *set = &_ways[qubit * _qubitStride +
                      _setOffset[indexOf(type, data)]];
    const auto tag = tagOf(type, data);
    const std::uint32_t key_mask = validBit | _tagMask;
    const std::uint32_t count_one = 1u << _cfg.tagBits;
    const auto count_of = [&](const Way &w) {
        return (w.meta >> _cfg.tagBits) & _countMax;
    };

    // Probe every way.
    for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
        auto &e = set[w];
        if ((e.meta & key_mask) == (validBit | tag)) {
            ++hits;
            if (count_of(e) < _countMax)
                e.meta += count_one;
            r.hit = true;
            r.pulseEntry = e.pulseEntry;
            return r;
        }
    }

    ++misses;

    // Miss: choose a victim way by the Least-Count policy.
    std::uint32_t victim = 0;
    bool found_invalid = false;
    std::uint32_t least = ~std::uint32_t(0);
    for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
        const auto &e = set[w];
        if (!(e.meta & validBit)) {
            victim = w;
            found_invalid = true;
            break;
        }
        if (count_of(e) < least) {
            least = count_of(e);
            victim = w;
        }
    }

    auto &v = set[victim];
    auto &qspace = _qspace[qubit];
    if (!found_invalid) {
        // Evict with write-back to QSpace (one DRAM write).
        ++evictions;
        r.evicted = true;
        qspace.put(v.meta & _tagMask, v.pulseEntry);
        r.cycles += _cfg.qspaceAccessCycles;
    }

    // Consult QSpace for the requested tag (one DRAM read).
    r.cycles += _cfg.qspaceAccessCycles;
    std::uint32_t pulse_entry;
    if (const auto *stored = qspace.find(tag)) {
        ++qspaceHits;
        r.qspaceHit = true;
        pulse_entry = *stored;
    } else {
        // Allocate a fresh pulse slot for this qubit.
        ++qspaceAllocs;
        pulse_entry = _nextPulseEntry[qubit];
        _nextPulseEntry[qubit] =
            (pulse_entry + 1) % pulse_entries_per_qubit;
        if (_nextPulseEntry[qubit] == 0 && !_warnedWrap) {
            _warnedWrap = true;
            sim::warn("SLT pulse allocator wrapped; distinct parameter "
                      "count exceeds the .pulse chunk size");
        }
        r.needsGeneration = true;
    }

    v.pulseEntry = pulse_entry;
    v.meta = validBit | count_one | tag;
    r.pulseEntry = pulse_entry;
    return r;
}

} // namespace qtenon::controller
