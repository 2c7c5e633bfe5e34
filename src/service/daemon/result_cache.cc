#include "result_cache.hh"

#include "obs/metrics.hh"

namespace qtenon::service::daemon {

CacheKey
cacheKeyOf(const JobRequest &req)
{
    return core::fnv1a128(req.canonicalText());
}

ResultCache::ResultCache(std::size_t capacity) : _capacity(capacity)
{}

ResultCache::~ResultCache()
{
    const bool ran = _hits + _misses + _inserts > 0;
    obs::publish({
        {"daemon.cache.hits", "result-cache hits", _hits, ran},
        {"daemon.cache.misses", "result-cache misses", _misses, ran},
        {"daemon.cache.inserts", "result-cache insertions", _inserts,
         ran},
        {"daemon.cache.evictions", "result-cache LRU evictions",
         _evictions, ran},
    });
}

std::shared_ptr<const std::string>
ResultCache::lookup(const CacheKey &key)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _byKey.find(key);
    if (it == _byKey.end()) {
        ++_misses;
        return nullptr;
    }
    // Refresh recency: splice the entry to the front.
    _lru.splice(_lru.begin(), _lru, it->second);
    ++_hits;
    return it->second->bytes;
}

void
ResultCache::insert(const CacheKey &key, std::string bytes)
{
    if (_capacity == 0)
        return;
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _byKey.find(key);
    if (it != _byKey.end()) {
        it->second->bytes =
            std::make_shared<const std::string>(std::move(bytes));
        _lru.splice(_lru.begin(), _lru, it->second);
        return;
    }
    while (_byKey.size() >= _capacity) {
        const Entry &victim = _lru.back();
        _byKey.erase(victim.key);
        _lru.pop_back();
        ++_evictions;
    }
    _lru.push_front(Entry{
        key, std::make_shared<const std::string>(std::move(bytes))});
    _byKey[key] = _lru.begin();
    ++_inserts;
    static auto &entries =
        obs::gauge("daemon.cache.entries", "live cache entries");
    entries.set(static_cast<std::int64_t>(_byKey.size()));
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    CacheStats s;
    s.hits = _hits;
    s.misses = _misses;
    s.inserts = _inserts;
    s.evictions = _evictions;
    s.entries = _byKey.size();
    s.capacity = _capacity;
    return s;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _byKey.size();
}

} // namespace qtenon::service::daemon
