/**
 * @file
 * The content-addressed structural compile cache.
 *
 * Key = core::fnv1a128 over the circuit IR in *parameters-symbolic*
 * canonical form (quantum::QuantumCircuit::canonicalText(true): the
 * parameter table contributes only its arity, literal angles their
 * exact bits) plus the pipeline configuration (fusion flag, coupling
 * map edges). Two circuits that differ only in symbolic parameter
 * values therefore share one key — exactly the repeat-submission
 * pattern of an optimizer loop, where dynamic incremental
 * compilation (paper Sec. 6.1) says a parameter change should cost
 * one q_update, not a recompile.
 *
 * Value = the *structural* ProgramImage: per-qubit 65-bit entry
 * chunks, the regfile assignment, and the invalidation links, with
 * `regfileInit` left empty. A hit re-derives regfileInit from the
 * circuit's current parameter table (one encodeAngle per slot — the
 * same loop a cold compile runs), so a cache-served image is byte-
 * identical to a cold compile of the same circuit by construction,
 * at any worker count.
 *
 * Determinism: lookups are single-flight — concurrent compiles of
 * the same key elect one computer, everyone else blocks and counts
 * a hit — so hit/miss/insert counters are identical at --jobs 1 and
 * --jobs 8. Bounded LRU over completed entries; only the modeled-
 * time-neutral CPU work is skipped (modeled host cycles are charged
 * by CompileMode, a pure function of the run's configuration, never
 * of runtime cache state — see runtime/policies.hh).
 *
 * The cache is the one count of its hits, misses, inserts and
 * evictions; it publishes them as isa.compile_cache.* when destroyed.
 *
 * Whoever owns a cache hands it to jobs through
 * vqa::DriverConfig::compileCache: the shared sweep CLI's
 * `--compile-cache N` (bench/sweep_cli.hh) sets it on every job
 * spec it builds, and qtenond sets its own on every decoded job.
 */

#ifndef QTENON_ISA_PASS_COMPILE_CACHE_HH
#define QTENON_ISA_PASS_COMPILE_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/hash.hh"
#include "isa/compiler.hh"

namespace qtenon::isa {

/**
 * Deterministic byte serialization of a ProgramImage (little-endian
 * fields, 65-bit entries via ProgramEntry::pack). Two images are
 * byte-identical iff every field compares equal — the compile
 * cache's auditable identity contract and the compile_sweep
 * artifact's image digest.
 */
std::string imageBytes(const ProgramImage &image);

/** Point-in-time cache accounting. */
struct CompileCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;

    double
    hitRate() const
    {
        const auto total = hits + misses;
        return total ? static_cast<double>(hits) /
                static_cast<double>(total)
                     : 0.0;
    }
};

class CompileCache
{
  public:
    /** @param capacity max structural entries; 0 disables (every
     *  compile runs the full pipeline, nothing is retained). */
    explicit CompileCache(std::size_t capacity = 256);
    ~CompileCache();

    CompileCache(const CompileCache &) = delete;
    CompileCache &operator=(const CompileCache &) = delete;

    bool enabled() const { return _capacity > 0; }
    std::size_t capacity() const { return _capacity; }

    /** The structural content address of @p c under @p compiler's
     *  pipeline configuration. */
    static core::Digest128 keyOf(const quantum::QuantumCircuit &c,
                                 const QtenonCompiler &compiler);

    /**
     * Compile @p c through the cache: a structural hit skips the
     * pass pipeline and re-derives only the regfile contents from
     * the current parameter table. @p was_hit (optional) reports
     * which path served the image.
     */
    ProgramImage compile(const quantum::QuantumCircuit &c,
                         const QtenonCompiler &compiler,
                         bool *was_hit = nullptr);

    CompileCacheStats stats() const;
    std::size_t size() const;

  private:
    /** One structural entry; ready flips once, under the mutex. */
    struct Slot {
        std::mutex m;
        std::condition_variable cv;
        bool ready = false;
        ProgramImage structural;
    };

    using Key = core::Digest128;

    std::size_t _capacity;
    mutable std::mutex _mutex;
    std::map<Key, std::shared_ptr<Slot>> _byKey;
    /** Completed keys, most recent first (eviction order). */
    std::list<Key> _lru;
    std::map<Key, std::list<Key>::iterator> _lruPos;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _inserts = 0;
    std::uint64_t _evictions = 0;
};

} // namespace qtenon::isa

#endif // QTENON_ISA_PASS_COMPILE_CACHE_HH
