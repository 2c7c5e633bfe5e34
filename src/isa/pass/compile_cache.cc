#include "compile_cache.hh"

#include "isa/instr_builder.hh"
#include "obs/metrics.hh"

namespace qtenon::isa {

namespace {

void
appendU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

} // namespace

std::string
imageBytes(const ProgramImage &image)
{
    std::string out;
    appendU64(out, image.numQubits);
    appendU64(out, image.perQubit.size());
    for (const auto &chunk : image.perQubit) {
        appendU64(out, chunk.size());
        for (const auto &e : chunk) {
            std::uint64_t lo = 0, hi = 0;
            e.pack(lo, hi);
            appendU64(out, lo);
            appendU64(out, hi);
        }
    }
    appendU64(out, image.paramToReg.size());
    for (auto r : image.paramToReg)
        appendU64(out, r);
    appendU64(out, image.regfileInit.size());
    for (auto v : image.regfileInit)
        appendU64(out, v);
    appendU64(out, image.links.size());
    for (const auto &l : image.links) {
        appendU64(out, l.reg);
        appendU64(out, l.qubit);
        appendU64(out, l.entry);
    }
    // Vector waves extend the serialization only when present, so
    // every scalar image keeps its historical byte stream.
    if (image.hasWaves()) {
        appendU64(out, image.updateWaves.size());
        for (const auto &w : image.updateWaves) {
            appendU64(out, w.baseReg);
            appendU64(out, w.stride);
            appendU64(out, w.count);
        }
        appendU64(out, image.genWaves.size());
        for (const auto &w : image.genWaves) {
            appendU64(out, w.baseQubit);
            appendU64(out, w.laneMask);
        }
    }
    return out;
}

CompileCache::CompileCache(std::size_t capacity) : _capacity(capacity)
{}

CompileCache::~CompileCache()
{
    const bool ran = _hits + _misses > 0;
    obs::publish({
        {"isa.compile_cache.hits", "structural compiles skipped",
         _hits, ran},
        {"isa.compile_cache.misses", "full pipeline compiles run",
         _misses, ran},
        {"isa.compile_cache.inserts", "structural images retained",
         _inserts, ran},
        {"isa.compile_cache.evictions", "LRU structural evictions",
         _evictions, ran},
    });
}

core::Digest128
CompileCache::keyOf(const quantum::QuantumCircuit &c,
                    const QtenonCompiler &compiler)
{
    std::string text = c.canonicalText(/*params_symbolic=*/true);
    text += "|pipe{";
    text += compiler.pipelineConfig().canonicalText();
    text += "}";
    return core::fnv1a128(text);
}

ProgramImage
CompileCache::compile(const quantum::QuantumCircuit &c,
                      const QtenonCompiler &compiler, bool *was_hit)
{
    if (was_hit)
        *was_hit = false;
    if (!enabled())
        return compiler.compile(c);

    const Key key = keyOf(c, compiler);

    std::shared_ptr<Slot> slot;
    bool computer = false;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _byKey.find(key);
        if (it == _byKey.end()) {
            slot = std::make_shared<Slot>();
            _byKey.emplace(key, slot);
            computer = true;
            ++_misses;
        } else {
            slot = it->second;
            ++_hits;
            auto pos = _lruPos.find(key);
            if (pos != _lruPos.end())
                _lru.splice(_lru.begin(), _lru, pos->second);
        }
    }

    if (computer) {
        // Single-flight: everyone else waiting on this key blocks on
        // the slot until the structural image is published.
        ProgramImage image = compiler.compile(c);
        {
            std::lock_guard<std::mutex> lock(slot->m);
            slot->structural = image;
            // The regfile contents are the parameter values — the
            // one part of the image that is *not* structural.
            slot->structural.regfileInit.clear();
            slot->ready = true;
        }
        slot->cv.notify_all();
        {
            std::lock_guard<std::mutex> lock(_mutex);
            ++_inserts;
            _lruPos.emplace(key, _lru.insert(_lru.begin(), key));
            while (_lru.size() > _capacity) {
                const Key victim = _lru.back();
                _lru.pop_back();
                _lruPos.erase(victim);
                _byKey.erase(victim);
                ++_evictions;
            }
            static auto &entries = obs::gauge(
                "isa.compile_cache.entries", "live structural entries");
            entries.set(static_cast<std::int64_t>(_lru.size()));
        }
        return image;
    }

    ProgramImage image;
    {
        std::unique_lock<std::mutex> lock(slot->m);
        slot->cv.wait(lock, [&] { return slot->ready; });
        image = slot->structural;
    }
    // Refill the regfile from the circuit's current parameters: the
    // exact loop a cold compile runs, so hit and cold images are
    // byte-identical for the same circuit.
    image.regfileInit.reserve(c.numParameters());
    for (std::uint32_t p = 0; p < c.numParameters(); ++p)
        image.regfileInit.push_back(
            InstrBuilder::encodeParam(c.parameter(p)));
    if (was_hit)
        *was_hit = true;
    return image;
}

CompileCacheStats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    CompileCacheStats s;
    s.hits = _hits;
    s.misses = _misses;
    s.inserts = _inserts;
    s.evictions = _evictions;
    s.entries = _lru.size();
    s.capacity = _capacity;
    return s;
}

std::size_t
CompileCache::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _lru.size();
}

} // namespace qtenon::isa
