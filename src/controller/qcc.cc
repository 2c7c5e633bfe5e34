#include "qcc.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "sim/logging.hh"

namespace qtenon::controller {

QuantumControllerCache::QuantumControllerCache(sim::EventQueue &eq,
                                               std::string name,
                                               sim::ClockDomain clock,
                                               memory::QccLayout layout)
    : Clocked(eq, std::move(name), clock), _layout(layout),
      _programEnd(layout.programEnd()), _pulseBase(layout.pulseBase()),
      _pulseSpan(layout.pulseEnd() - layout.pulseBase())
{
    _program.resize(_layout.numQubits);
    _pulse.resize(_layout.numQubits);
    _measure.assign(_layout.measureEntries, 0);
    _regfile.assign(_layout.regfileEntries, 0);
    _programLength.assign(_layout.numQubits, 0);
}

QuantumControllerCache::~QuantumControllerCache()
{
    obs::publish({
        {"mem.qcc.program_reads", ".program entries read",
         programReads.value()},
        {"mem.qcc.program_writes", ".program entries written",
         programWrites.value()},
        {"mem.qcc.pulse_writes", ".pulse entries written",
         pulseWrites.value()},
        {"mem.qcc.measure_writes", ".measure entries written",
         measureWrites.value()},
        {"mem.qcc.regfile_writes", ".regfile entries written",
         regfileWrites.value()},
    });
}

const ProgramEntry QuantumControllerCache::zeroProgramEntry{};

void
QuantumControllerCache::notInSegment(std::uint64_t qaddr,
                                     const char *segment)
{
    sim::panic("QAddress 0x", std::hex, qaddr, " not in ", segment);
}

void
QuantumControllerCache::regfileOutOfRange(std::uint32_t entry)
{
    sim::panic(".regfile entry ", entry, " out of range");
}

std::uint32_t
QuantumControllerCache::programLength(std::uint32_t qubit) const
{
    if (qubit >= _layout.numQubits)
        sim::panic("qubit ", qubit, " out of range");
    return _programLength[qubit];
}

std::vector<std::uint64_t>
QuantumControllerCache::installedPrograms() const
{
    std::vector<std::uint64_t> work;
    for (std::uint32_t q = 0; q < _layout.numQubits; ++q)
        for (std::uint32_t i = 0; i < _programLength[q]; ++i)
            work.push_back(_layout.programAddr(q, i));
    return work;
}

void
QuantumControllerCache::setProgramLength(std::uint32_t qubit,
                                         std::uint32_t len)
{
    if (qubit >= _layout.numQubits)
        sim::panic("qubit ", qubit, " out of range");
    if (len > _layout.programEntriesPerQubit) {
        sim::fatal("program for qubit ", qubit, " (", len,
                   " entries) exceeds the ",
                   _layout.programEntriesPerQubit, "-entry chunk");
    }
    _programLength[qubit] = len;
}

void
QuantumControllerCache::markProgramValid(
    const std::vector<std::uint64_t> &work)
{
    // Work lists ascend, so the chunk lookup (a division) runs once
    // per qubit rather than once per entry.
    std::uint64_t lo = 1, hi = 0;
    std::vector<ProgramEntry> *chunk = nullptr;
    for (const auto qaddr : work) {
        if (qaddr < lo || qaddr >= hi) {
            const auto [qubit, entry] = programPos(qaddr);
            chunk = &_program[qubit];
            lo = qaddr - entry;
            hi = lo + _layout.programEntriesPerQubit;
        }
        const auto entry = static_cast<std::size_t>(qaddr - lo);
        if (entry >= chunk->size())
            chunk->resize(entry + 1);
        (*chunk)[entry].status = EntryStatus::Valid;
    }
}

PulseKey
QuantumControllerCache::readPulse(std::uint64_t qaddr) const
{
    const auto [qubit, entry] = pulsePos(qaddr);
    const auto &chunk = _pulse[qubit];
    return entry < chunk.size() ? chunk[entry] : 0;
}

void
QuantumControllerCache::writePulse(std::uint64_t qaddr, PulseKey key)
{
    ++pulseWrites;
    const auto [qubit, entry] = pulsePos(qaddr);
    auto &chunk = _pulse[qubit];
    if (entry >= chunk.size())
        chunk.resize(std::size_t(entry) + 1);
    chunk[entry] = key;
}

std::uint64_t
QuantumControllerCache::readMeasure(std::uint32_t entry) const
{
    if (entry >= _measure.size())
        sim::panic(".measure entry ", entry, " out of range");
    return _measure[entry];
}

void
QuantumControllerCache::writeMeasure(std::uint32_t entry,
                                     std::uint64_t value)
{
    if (entry >= _measure.size())
        sim::panic(".measure entry ", entry, " out of range");
    ++measureWrites;
    _measure[entry] = value;
}

void
QuantumControllerCache::writeRegfile(std::uint32_t entry,
                                     std::uint32_t value)
{
    if (entry >= _regfile.size())
        regfileOutOfRange(entry);
    ++regfileWrites;
    _regfile[entry] = value;
}

bool
QuantumControllerCache::userAccessible(std::uint64_t qaddr) const
{
    return memory::isPublicSegment(_layout.segmentOf(qaddr));
}

sim::Tick
QuantumControllerCache::portAccess(std::uint32_t entries)
{
    const sim::Tick start = std::max(curTick(), _portFree);
    _portFree = start + clockDomain().cyclesToTicks(
        std::max(1u, entries));
    return _portFree;
}

} // namespace qtenon::controller
