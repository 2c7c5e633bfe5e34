/**
 * @file
 * The aggregated, merge-safe results store of the batch experiment
 * service. Worker threads add finished JobResults concurrently; the
 * store keys them by job id, so iteration order — and therefore the
 * JSON export — is deterministic no matter which worker finished
 * first. Stores round-trip through JSON losslessly.
 */

#ifndef QTENON_SERVICE_RESULTS_STORE_HH
#define QTENON_SERVICE_RESULTS_STORE_HH

#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "job.hh"

namespace qtenon::service {

namespace json {
class Value;
}

/**
 * One JobResult as a JSON object (the element shape of the v1
 * results document). @p deterministic_only drops wall-clock fields,
 * so two serializations of bit-identical simulation outcomes compare
 * byte-equal — the daemon's result cache stores exactly these bytes.
 */
json::Value jobResultToJson(const JobResult &r,
                            bool deterministic_only = false);

/** Re-import one jobResultToJson() object. */
JobResult jobResultFromJson(const json::Value &v);

/** Thread-safe collection of JobResults keyed by job id. */
class ResultsStore
{
  public:
    ResultsStore() = default;

    ResultsStore(const ResultsStore &o) { merge(o); }
    ResultsStore &
    operator=(const ResultsStore &o)
    {
        if (this != &o) {
            std::lock_guard<std::mutex> guard(_mutex);
            _byId.clear();
            mergeLocked(o);
        }
        return *this;
    }

    /** Insert or replace the result for its job id. */
    void add(JobResult r);

    /** Copy every result of @p other into this store (same-id
     *  entries are replaced — last merge wins). */
    void merge(const ResultsStore &other);

    std::size_t size() const;

    /** Drop the result for @p job_id, if present. */
    void erase(std::uint64_t job_id);

    /** Copy of the result for @p job_id; throws if absent. */
    JobResult get(std::uint64_t job_id) const;
    bool contains(std::uint64_t job_id) const;

    /** Snapshot of all results, ascending job id. */
    std::vector<JobResult> sorted() const;

    /** Results with the given status, ascending job id. */
    std::vector<JobResult> withStatus(JobStatus s) const;

    /**
     * Export as a versioned JSON document. Wall-clock fields are
     * included unless @p deterministic_only, which drops them so two
     * exports of equivalent batches compare byte-equal.
     */
    void toJson(std::ostream &os, bool deterministic_only = false) const;
    std::string toJsonString(bool deterministic_only = false) const;

    /** Re-import a toJson() document; throws on malformed input. */
    static ResultsStore fromJsonString(const std::string &text);
    static ResultsStore fromJson(std::istream &is);

    /**
     * FNV-1a hash over the deterministic JSON export: equal digests
     * mean bit-identical simulation outcomes (used by the
     * determinism tests to compare 1-vs-N-worker batches).
     */
    std::uint64_t deterministicDigest() const;

  private:
    void mergeLocked(const ResultsStore &other);

    mutable std::mutex _mutex;
    std::map<std::uint64_t, JobResult> _byId;
};

} // namespace qtenon::service

#endif // QTENON_SERVICE_RESULTS_STORE_HH
