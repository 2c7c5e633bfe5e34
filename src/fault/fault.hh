/**
 * @file
 * Deterministic fault injection for the classical-quantum link models
 * and the batch service.
 *
 * The paper's decoupled-vs-coupled comparison assumes a *perfect*
 * Ethernet/UDP link; this layer removes that best-case assumption.
 * A `FaultSpec` (parsed from a `--fault-spec` string such as
 * `eth.drop=0.01,adi.jitter=200`) assigns per-site fault rates, and a
 * `FaultInjector` turns them into concrete per-event decisions —
 * drop, duplicate, reorder, delay (jittered latency), bit-corrupt,
 * stall, response-error — drawn from per-site RNG streams.
 *
 * Determinism contract (mirrors the service's seeding rules):
 *
 *   - every site draws from its own stream, seeded from
 *     (injector seed, interned site name), so adding faults at one
 *     site never perturbs another site's sequence;
 *   - an injector is owned by exactly one job and seeded from the
 *     job id, so a batch's injection sequences are bit-identical
 *     regardless of worker count or completion order;
 *   - sites are interned to small ids (the same machinery as
 *     `obs::MetricsRegistry`), so hot paths cache a `SiteId` and a
 *     decision is one table index plus one RNG draw.
 *
 * Every injected fault increments a per-site counter (exported into
 * `JobResult::metrics` as `fault.<site>.<kind>`), the matching obs
 * counter, and — when tracing is on — a trace instant, so a Perfetto
 * timeline shows exactly where the link misbehaved.
 */

#ifndef QTENON_FAULT_FAULT_HH
#define QTENON_FAULT_FAULT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace qtenon::fault {

/** splitmix64: the service's job-seed mixer, reused for streams. */
std::uint64_t mix64(std::uint64_t z);

/** Stable 64-bit FNV-1a of @p s (site-name stream derivation). */
std::uint64_t hashName(const std::string &s);

/**
 * Fault rates of one injection site. Rates are per-event
 * probabilities in [0, 1]; `jitter` / `stallTicks` are durations.
 */
struct SiteFaults {
    /** Message silently lost (site.drop=P). */
    double drop = 0.0;
    /** Message delivered twice (site.dup=P). */
    double dup = 0.0;
    /** Payload bit flipped in flight (site.corrupt=P). */
    double corrupt = 0.0;
    /** Message overtaken by its successors (site.reorder=P). */
    double reorder = 0.0;
    /** Response-error rate for request/response sites (site.error=P). */
    double error = 0.0;
    /** Stall rate for pipelined sites (site.stall=P). */
    double stall = 0.0;
    /** Per-bit readout flip rate (site.flip=P). */
    double flip = 0.0;
    /** Max uniform extra delay per message (site.jitter=NS). */
    sim::Tick jitter = 0;
    /** Duration of one injected stall (site.stall_ns=NS). */
    sim::Tick stallTicks = 100 * sim::nsTicks;

    /** Whether any rate is nonzero. */
    bool any() const;
};

/**
 * The parsed `--fault-spec`: a map of site name -> fault rates plus
 * the injection seed. The textual form is a comma-separated list of
 * `site.kind=value` entries, e.g.
 *
 *   eth.drop=0.01,eth.jitter=200,adi.jitter=50,bus.error=0.001
 *
 * Probabilities (`drop`, `dup`, `corrupt`, `reorder`, `error`,
 * `stall`, `flip`) take values in [0, 1]; durations (`jitter`,
 * `stall_ns`) are in nanoseconds. The special entry `seed=N` sets
 * the injection seed (0 keeps the job-derived default).
 */
struct FaultSpec {
    std::map<std::string, SiteFaults> sites;
    /** Injection seed; 0 = derive from the owning job's seed. */
    std::uint64_t seed = 0;

    /** No plan given: no site and no seed (`seed=3` alone is a
     *  plan that injects nothing). */
    bool empty() const { return sites.empty() && seed == 0; }

    /** Parse the textual form; sim::fatal on a malformed entry. */
    static FaultSpec parse(const std::string &text);

    /** Canonical textual form (sites sorted; parse round-trips). */
    std::string toString() const;
};

/** Interned site handle (index into the injector's site table). */
using SiteId = std::uint32_t;

/**
 * Per-site deterministic fault decisions. One injector per job;
 * single-threaded use (jobs never share an injector). Its per-site
 * counts are the one count of each fault; it publishes them to the
 * obs registry as `fault.<site>.<kind>` when destroyed.
 */
class FaultInjector
{
  public:
    /**
     * @param spec the fault plan.
     * @param seed stream seed; combined per site with the site-name
     *        hash. Callers derive it from the job id (see
     *        service::deriveJobSeed) for worker-count independence.
     */
    explicit FaultInjector(FaultSpec spec, std::uint64_t seed = 1);
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    const FaultSpec &spec() const { return _spec; }
    std::uint64_t seed() const { return _seed; }

    /**
     * Intern @p name to a SiteId. Sites absent from the spec get a
     * zero-rate entry, so call sites can look up unconditionally and
     * every decision on them is "no fault" at near-zero cost.
     */
    SiteId site(const std::string &name);

    /** The rates configured for @p s. */
    const SiteFaults &faults(SiteId s) const;

    /** Whether @p s has any nonzero rate (cheap bypass check). */
    bool active(SiteId s) const;

    /** @name Per-event decisions (each advances the site stream). */
    /// @{
    bool shouldDrop(SiteId s);
    bool shouldDuplicate(SiteId s);
    bool shouldCorrupt(SiteId s);
    bool shouldReorder(SiteId s);
    bool shouldError(SiteId s);
    bool shouldStall(SiteId s);
    /** Per-readout-bit flip decision (rate `flip`). */
    bool shouldFlipBit(SiteId s);
    /** Uniform extra delay in [0, jitter]; 0 when no jitter is set. */
    sim::Tick jitterTicks(SiteId s);
    /** Flip one uniformly chosen bit of @p word (counts `corrupt`). */
    std::uint64_t corruptWord(SiteId s, std::uint64_t word);
    /// @}

    /**
     * Count an injection-adjacent event (e.g. "retransmits",
     * "retry_exhausted") under @p what for @p s: per-site count and
     * trace instant.
     */
    void count(SiteId s, const std::string &what, std::uint64_t n = 1);

    /** Total faults injected (decisions that came back true). */
    std::uint64_t injections() const { return _injections; }

    /**
     * Export every nonzero per-site counter as
     * `fault.<site>.<kind>` -> count into @p out (JobResult::metrics
     * uses this; deterministic for a fixed seed and call sequence).
     */
    void exportCounters(std::map<std::string, double> &out) const;

  private:
    struct SiteState {
        std::string name;
        SiteFaults faults;
        sim::Rng rng;
        bool active = false;
        /** kind -> injected count (std::map: stable export order). */
        std::map<std::string, std::uint64_t> counts;
    };

    /** Bernoulli draw on @p rate, counted under @p kind when true. */
    bool decide(SiteId s, double rate, const char *kind);
    void record(SiteState &st, const std::string &kind,
                std::uint64_t n);

    FaultSpec _spec;
    std::uint64_t _seed;
    std::map<std::string, SiteId> _ids;
    std::vector<SiteState> _sites;
    std::uint64_t _injections = 0;
};

/**
 * Bounded-attempt retry with exponential backoff and deterministic
 * jitter. Unit-agnostic: the link models interpret `backoff` /
 * `attemptTimeout` as simulation ticks, the batch scheduler as
 * milliseconds.
 */
struct RetryPolicy {
    /** Total attempts including the first; 1 = no retry. */
    std::uint32_t maxAttempts = 1;
    /** Backoff before the first retry (units per caller). */
    std::uint64_t backoff = 0;
    /** Geometric growth factor per further retry. */
    double multiplier = 2.0;
    /** Backoff cap; 0 = uncapped. */
    std::uint64_t maxBackoff = 0;
    /** Jitter fraction: each backoff is scaled by a deterministic
     *  factor in [1 - jitter, 1 + jitter). */
    double jitter = 0.0;
    /** Per-attempt timeout; 0 lets the caller pick a default. */
    std::uint64_t attemptTimeout = 0;

    bool enabled() const { return maxAttempts > 1; }

    /**
     * Backoff to wait after failed attempt @p attempt (1-based).
     * Deterministic in (@p attempt, @p seed): the jitter factor is
     * mix64(seed ^ attempt), so a retried job replays the identical
     * schedule on every worker count.
     */
    std::uint64_t backoffBefore(std::uint32_t attempt,
                                std::uint64_t seed) const;
};

} // namespace qtenon::fault

#endif // QTENON_FAULT_FAULT_HH
