/**
 * @file
 * The daemon's content-addressed result cache.
 *
 * Keys are 128-bit digests (core::fnv1a128) of a JobRequest's
 * canonical text — circuit IR + parameter table, driver config
 * (backend, seed, SIMD mode, fusion, shots, iterations, optimizer,
 * readout error), fault spec, and replay plan — so two requests
 * collide exactly when the evaluation they describe is the same.
 * Values are the deterministic serialized JobResult bytes: a hit is
 * served by replaying those bytes verbatim, which is what makes the
 * byte-identity contract (hit == recompute) trivially auditable.
 *
 * Bounded LRU: `capacity` entries, least-recently-*used* evicted
 * (a hit refreshes recency). Only Ok results are ever inserted —
 * failures, timeouts, and cancellations always recompute.
 *
 * Thread-safe; one mutex, since entries are shared_ptr'd out and
 * the critical sections are pointer shuffles, not byte copies.
 *
 * The cache is the one count of its hits, misses, inserts and
 * evictions; it publishes them as daemon.cache.* when destroyed.
 */

#ifndef QTENON_SERVICE_DAEMON_RESULT_CACHE_HH
#define QTENON_SERVICE_DAEMON_RESULT_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/hash.hh"
#include "isa/pass/compile_cache.hh"
#include "protocol.hh"

namespace qtenon::service::daemon {

/** The content address of one evaluation. */
using CacheKey = core::Digest128;

/** Digest a request's canonical text into its cache key. */
CacheKey cacheKeyOf(const JobRequest &req);

/** Point-in-time cache accounting, the compile cache's fields. */
using CacheStats = isa::CompileCacheStats;

class ResultCache
{
  public:
    /** @param capacity max entries; 0 disables the cache entirely
     *  (every lookup misses, inserts are dropped). */
    explicit ResultCache(std::size_t capacity);
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    bool enabled() const { return _capacity > 0; }
    std::size_t capacity() const { return _capacity; }

    /**
     * The cached result bytes for @p key, or nullptr on miss.
     * A hit refreshes the entry's LRU position. Counts hit/miss.
     */
    std::shared_ptr<const std::string> lookup(const CacheKey &key);

    /**
     * Insert @p bytes under @p key, evicting the least recently
     * used entry when at capacity. Re-inserting an existing key
     * refreshes its bytes and recency (idempotent for identical
     * bytes, which is the only way the daemon calls it).
     */
    void insert(const CacheKey &key, std::string bytes);

    CacheStats stats() const;
    std::size_t size() const;

  private:
    struct Entry {
        CacheKey key;
        std::shared_ptr<const std::string> bytes;
    };

    /** Most recent at the front. */
    using LruList = std::list<Entry>;

    std::size_t _capacity;
    mutable std::mutex _mutex;
    LruList _lru;
    std::map<CacheKey, LruList::iterator> _byKey;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _inserts = 0;
    std::uint64_t _evictions = 0;
};

} // namespace qtenon::service::daemon

#endif // QTENON_SERVICE_DAEMON_RESULT_CACHE_HH
