/**
 * @file
 * Process-wide observability metrics: named counters, gauges, and
 * log2-bucketed histograms behind one `MetricsRegistry`.
 *
 * A simulated fact has one owner. Each SimObject counts its own
 * events in plain `sim::Count` fields and, when it is destroyed with
 * metrics enabled, adds its totals here once (`publish`). The registry
 * is the process-wide sum of those totals plus the per-event
 * histograms: it survives the `QtenonSystem`s a VQA sweep builds and
 * tears down per job, so a fig/ablation bench can aggregate across
 * every job and dump one JSON snapshot at exit.
 *
 * Design constraints, in order:
 *
 *   1. Zero cost when disabled (the default). Every mutation first
 *      reads one process-global relaxed atomic flag and returns —
 *      no locks, no allocation, nothing the optimizer cannot sink.
 *   2. Lock-free when enabled. Counters/gauges/histogram buckets are
 *      relaxed `std::atomic` fetch-adds; min/max are CAS loops. The
 *      registry mutex is taken only on the *first* lookup of a name
 *      (instrumentation sites cache the returned reference).
 *   3. Deterministic where it claims to be. Metric values derived
 *      from simulated time or event counts are identical for a fixed
 *      seed regardless of worker count, because every mutation is a
 *      commutative add. Wall-clock-derived metrics must carry a
 *      `_ns` suffix so tests can exclude them (see naming scheme in
 *      DESIGN.md §9); gauges are instantaneous and likewise excluded.
 *
 * Naming scheme: dotted lowercase `layer.component.metric`, e.g.
 * `controller.pipeline.stage1_busy_cycles`, `mem.dram.latency_ticks`,
 * `service.job.queue_wait_ns`. Suffix `_ticks`/`_cycles` marks
 * deterministic simulated time, `_ns` marks wall-clock time.
 */

#ifndef QTENON_OBS_METRICS_HH
#define QTENON_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

namespace qtenon::obs {

/** The process-global on/off flag; use metricsEnabled(). */
inline std::atomic<bool> g_metricsEnabled{false};

/** Whether metric mutations record anything (process-global). */
inline bool
metricsEnabled()
{
    return g_metricsEnabled.load(std::memory_order_relaxed);
}

/** Flip metric recording on/off; off zeroes the fast-path cost. */
inline void
setMetricsEnabled(bool on)
{
    g_metricsEnabled.store(on, std::memory_order_relaxed);
}

/** A monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        if (metricsEnabled())
            _value.fetch_add(n, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    std::uint64_t value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/**
 * An instantaneous level (worker occupancy, queue depth). Signed so
 * add(-1) on scope exit needs no underflow care at the call site.
 */
class Gauge
{
  public:
    void set(std::int64_t v)
    {
        if (metricsEnabled())
            _value.store(v, std::memory_order_relaxed);
    }

    void add(std::int64_t delta)
    {
        if (metricsEnabled())
            _value.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> _value{0};
};

/** A point-in-time copy of one histogram's state. */
struct HistogramSnapshot {
    std::uint64_t count = 0;
    /** Exact sum of every recorded value (not bucket-approximated). */
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, 65> buckets{};

    /**
     * The @p q-quantile (q in [0, 1]) estimated by linear
     * interpolation inside the log2 bucket holding the target rank.
     * The interpolation range is clamped to the recorded global
     * [min, max], so degenerate shapes come out exact: a histogram
     * whose values are all equal returns that value for every q, and
     * q = 0 / q = 1 return min / max exactly. Returns 0 when empty.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }
};

/**
 * A latency histogram with power-of-two buckets: bucket 0 holds the
 * value 0 and bucket b >= 1 holds values in [2^(b-1), 2^b). 65
 * buckets cover the full uint64 range, so no value is ever clipped
 * and `sum` stays an exact integer — which is what lets fig13 check
 * its printed stage totals against histogram sums *exactly*.
 */
class Histogram
{
  public:
    static constexpr std::size_t numBuckets = 65;

    /** Bucket index for @p v: 0 for 0, else bit_width(v). */
    static std::size_t bucketOf(std::uint64_t v)
    {
        std::size_t b = 0;
        while (v) {
            ++b;
            v >>= 1;
        }
        return b;
    }

    /** Inclusive lower bound of bucket @p b. */
    static std::uint64_t bucketLow(std::size_t b)
    {
        return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    }

    /** Record the value @p v, @p n times over. */
    void record(std::uint64_t v, std::uint64_t n = 1)
    {
        if (!metricsEnabled() || n == 0)
            return;
        _count.fetch_add(n, std::memory_order_relaxed);
        _sum.fetch_add(v * n, std::memory_order_relaxed);
        _buckets[bucketOf(v)].fetch_add(n, std::memory_order_relaxed);
        casMin(v);
        casMax(v);
    }

    std::uint64_t count() const
    {
        return _count.load(std::memory_order_relaxed);
    }

    std::uint64_t sum() const
    {
        return _sum.load(std::memory_order_relaxed);
    }

    /** Minimum recorded value; 0 when empty. */
    std::uint64_t min() const
    {
        const auto c = count();
        return c ? _min.load(std::memory_order_relaxed) : 0;
    }

    std::uint64_t max() const
    {
        return _max.load(std::memory_order_relaxed);
    }

    std::uint64_t bucket(std::size_t b) const
    {
        return _buckets[b].load(std::memory_order_relaxed);
    }

    double mean() const
    {
        const auto c = count();
        return c ? static_cast<double>(sum()) /
                static_cast<double>(c)
                 : 0.0;
    }

    HistogramSnapshot snapshot() const;

    /** Convenience: snapshot().quantile(q). */
    double quantile(double q) const { return snapshot().quantile(q); }

    void reset();

  private:
    void casMin(std::uint64_t v)
    {
        auto cur = _min.load(std::memory_order_relaxed);
        while (v < cur &&
               !_min.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed))
            ;
    }

    void casMax(std::uint64_t v)
    {
        auto cur = _max.load(std::memory_order_relaxed);
        while (v > cur &&
               !_max.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed))
            ;
    }

    std::atomic<std::uint64_t> _count{0};
    std::atomic<std::uint64_t> _sum{0};
    std::atomic<std::uint64_t> _min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> _max{0};
    std::array<std::atomic<std::uint64_t>, numBuckets> _buckets{};
};

/**
 * One owner's lifetime total for a counter, as a SimObject publishes
 * it on destruction.
 */
struct CounterTotal {
    const char *name;
    const char *desc;
    std::uint64_t value;
    /** Whether the counted event ever ran: only then is the name
     *  registered, even at zero. */
    bool ran = value != 0;
};

/**
 * The process-wide name -> metric table. Lookup interns the name
 * under a mutex and returns a reference that stays valid for the
 * life of the process; hot paths look up once and cache.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Find-or-create; @p desc is kept from the first registration. */
    Counter &counter(const std::string &name,
                     const std::string &desc = "");
    Gauge &gauge(const std::string &name,
                 const std::string &desc = "");
    Histogram &histogram(const std::string &name,
                         const std::string &desc = "");

    /**
     * Add each total that ran to its counter, under one lock. A no-op
     * while metrics are disabled.
     */
    void publish(std::initializer_list<CounterTotal> totals);

    /** Snapshots, sorted by name (std::map) for stable output. */
    std::map<std::string, std::uint64_t> counterValues() const;
    std::map<std::string, std::int64_t> gaugeValues() const;
    std::map<std::string, HistogramSnapshot> histogramValues() const;

    /**
     * Zero every registered metric (registrations and cached
     * references stay valid). For test isolation between phases.
     */
    void reset();

    /**
     * Deterministic JSON snapshot: {"counters":{...},"gauges":{...},
     * "histograms":{name:{count,sum,min,max,mean,buckets:[[lo,n]..]}}}
     * with names sorted and empty buckets elided.
     */
    void writeJson(std::ostream &os) const;

  private:
    MetricsRegistry() = default;

    template <typename T>
    using Table =
        std::map<std::string,
                 std::pair<std::unique_ptr<T>, std::string>>;

    /** Find-or-create @p name in @p table; caller holds _mutex. */
    template <typename T>
    static T &intern(Table<T> &table, const std::string &name,
                     const std::string &desc);

    mutable std::mutex _mutex;
    Table<Counter> _counters;
    Table<Gauge> _gauges;
    Table<Histogram> _histograms;
};

/** Shorthand for MetricsRegistry::instance(). */
MetricsRegistry &registry();

/** Shorthand lookups (cache the reference at hot call sites). */
inline Counter &
counter(const std::string &name, const std::string &desc = "")
{
    return registry().counter(name, desc);
}

inline Gauge &
gauge(const std::string &name, const std::string &desc = "")
{
    return registry().gauge(name, desc);
}

inline Histogram &
histogram(const std::string &name, const std::string &desc = "")
{
    return registry().histogram(name, desc);
}

/** Shorthand for registry().publish(totals). */
inline void
publish(std::initializer_list<CounterTotal> totals)
{
    registry().publish(totals);
}

} // namespace qtenon::obs

#endif // QTENON_OBS_METRICS_HH
