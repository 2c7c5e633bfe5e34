/**
 * @file
 * The results of a batch of experiments, owned by the caller that
 * gathered them (service::collect). The store keys JobResults by job
 * id, so iteration order — and therefore the JSON export — is
 * deterministic no matter which worker finished first. Stores
 * round-trip through JSON losslessly. A plain value: it is filled
 * and read on one thread.
 */

#ifndef QTENON_SERVICE_RESULTS_STORE_HH
#define QTENON_SERVICE_RESULTS_STORE_HH

#include <iosfwd>
#include <map>
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

/** JobResults keyed by job id. */
class ResultsStore
{
  public:
    /** Insert or replace the result for its job id. */
    void add(JobResult r);

    std::size_t size() const { return _byId.size(); }

    /** Copy of the result for @p job_id; throws if absent. */
    JobResult get(std::uint64_t job_id) const;
    bool contains(std::uint64_t job_id) const
    {
        return _byId.count(job_id) != 0;
    }

    /** Copy of all results, ascending job id. */
    std::vector<JobResult> sorted() const;

    /**
     * Export as a versioned JSON document. Wall-clock fields are
     * included unless @p deterministic_only, which drops them so two
     * exports of equivalent batches compare byte-equal.
     */
    void toJson(std::ostream &os, bool deterministic_only = false) const;
    std::string toJsonString(bool deterministic_only = false) const;

    /** Re-import a toJson() document; throws on malformed input. */
    static ResultsStore fromJsonString(const std::string &text);

    /**
     * FNV-1a hash over the deterministic JSON export: equal digests
     * mean bit-identical simulation outcomes (used by the
     * determinism tests to compare 1-vs-N-worker batches).
     */
    std::uint64_t deterministicDigest() const;

  private:
    std::map<std::uint64_t, JobResult> _byId;
};

} // namespace qtenon::service

#endif // QTENON_SERVICE_RESULTS_STORE_HH
