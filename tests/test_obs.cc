/**
 * @file
 * Observability layer tests: metric primitives (counter, gauge,
 * log2-bucketed histogram), the process-wide registry, the Chrome
 * trace-event sink, and — the part CI leans on — validation of
 * emitted trace JSON against the trace-event schema subset this
 * repo produces (tests/trace_schema.hh; tests/test_artifacts.cc
 * applies the same check to the fig13 trace artifact).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "service/json.hh"
#include "trace_schema.hh"

using namespace qtenon;
using qtenon::service::json::Value;
using qtenon::tests::validateTraceDocument;

namespace {

/** Enables metrics and starts from a zeroed registry; restores the
 *  disabled default afterwards so other tests see the zero-cost
 *  path. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::registry().reset();
        obs::setMetricsEnabled(true);
    }

    void
    TearDown() override
    {
        obs::setMetricsEnabled(false);
        obs::setTraceSink(nullptr);
        obs::registry().reset();
    }
};

} // namespace

TEST_F(ObsTest, CounterCountsAndDisabledIsNoOp)
{
    obs::Counter c;
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    obs::setMetricsEnabled(false);
    c.inc();
    EXPECT_EQ(c.value(), 42u) << "disabled counter must not move";

    obs::setMetricsEnabled(true);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeTracksLevel)
{
    obs::Gauge g;
    g.set(3);
    g.add(-5);
    EXPECT_EQ(g.value(), -2);

    obs::setMetricsEnabled(false);
    g.set(100);
    EXPECT_EQ(g.value(), -2);
}

TEST_F(ObsTest, HistogramBucketBoundaries)
{
    using H = obs::Histogram;
    EXPECT_EQ(H::bucketOf(0), 0u);
    EXPECT_EQ(H::bucketOf(1), 1u);
    EXPECT_EQ(H::bucketOf(2), 2u);
    EXPECT_EQ(H::bucketOf(3), 2u);
    EXPECT_EQ(H::bucketOf(4), 3u);
    EXPECT_EQ(H::bucketOf(~std::uint64_t{0}), 64u);
    // Every bucket's inclusive lower bound maps back to itself, and
    // the value just below it maps to the previous bucket.
    for (std::size_t b = 0; b < H::numBuckets; ++b) {
        const auto lo = H::bucketLow(b);
        EXPECT_EQ(H::bucketOf(lo), b) << "bucket " << b;
        if (b >= 2) {
            EXPECT_EQ(H::bucketOf(lo - 1), b - 1) << "bucket " << b;
        }
    }
}

TEST_F(ObsTest, HistogramRecordsExactly)
{
    obs::Histogram h;
    h.record(0);
    h.record(1);
    h.record(7);
    h.record(1000);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1008u) << "sum must be exact, not bucketed";
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 252.0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);  // 7 -> [4, 8)
    EXPECT_EQ(h.bucket(10), 1u); // 1000 -> [512, 1024)

    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 4u);
    EXPECT_EQ(snap.sum, 1008u);
    std::uint64_t bucket_total = 0;
    for (const auto n : snap.buckets)
        bucket_total += n;
    EXPECT_EQ(bucket_total, snap.count);

    obs::setMetricsEnabled(false);
    h.record(5);
    EXPECT_EQ(h.count(), 4u) << "disabled histogram must not move";
}

TEST_F(ObsTest, HistogramEmptyMinIsZero)
{
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST_F(ObsTest, QuantileEdgeCases)
{
    obs::Histogram h;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0) << "empty histogram";

    h.record(42);
    // One sample: every quantile is that sample.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 42.0);

    obs::Histogram same;
    for (int i = 0; i < 100; ++i)
        same.record(777);
    // All-equal samples: min/max clamping makes the interpolation
    // exact at every rank.
    EXPECT_DOUBLE_EQ(same.quantile(0.5), 777.0);
    EXPECT_DOUBLE_EQ(same.quantile(0.99), 777.0);
    EXPECT_DOUBLE_EQ(same.quantile(0.999), 777.0);
}

TEST_F(ObsTest, QuantileBoundsAndMonotonicity)
{
    obs::Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.record(v);
    const auto snap = h.snapshot();
    // q=0 / q=1 are exactly min/max.
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1000.0);
    // Bucket interpolation is approximate but must stay within the
    // recorded range, be monotone in q, and land in the right
    // bucket-sized neighborhood of the true quantile.
    double prev = 0.0;
    for (double q : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999}) {
        const double est = snap.quantile(q);
        EXPECT_GE(est, 1.0) << q;
        EXPECT_LE(est, 1000.0) << q;
        EXPECT_GE(est, prev) << q;
        prev = est;
        // Log2 buckets are at most a factor of two wide: the
        // estimate is within 2x either way of the exact rank value.
        const double exact = 1.0 + q * 999.0;
        EXPECT_LE(est, exact * 2.0) << q;
        EXPECT_GE(est, exact / 2.0) << q;
    }
    EXPECT_DOUBLE_EQ(snap.p50(), snap.quantile(0.5));
    EXPECT_DOUBLE_EQ(snap.p99(), snap.quantile(0.99));
    EXPECT_DOUBLE_EQ(snap.p999(), snap.quantile(0.999));
}

TEST_F(ObsTest, QuantileInterpolatesWithinBucket)
{
    obs::Histogram h;
    // 100 samples spread across one bucket [64, 128).
    for (std::uint64_t v = 0; v < 100; ++v)
        h.record(64 + (v * 63) / 99);
    const auto snap = h.snapshot();
    const double p50 = snap.quantile(0.5);
    // The true median is ~95.5; interpolation inside the bucket
    // must do far better than either edge.
    EXPECT_GT(p50, 80.0);
    EXPECT_LT(p50, 110.0);
}

TEST_F(ObsTest, MetricsJsonCarriesQuantiles)
{
    auto &h = obs::histogram("test.quantile.hist", "latency");
    for (std::uint64_t v = 1; v <= 64; ++v)
        h.record(v);
    std::ostringstream os;
    obs::registry().writeJson(os);
    const auto doc = service::json::Value::parse(os.str());
    const Value &entry =
        doc.at("histograms").at("test.quantile.hist");
    for (const char *q : {"p50", "p99", "p999"}) {
        ASSERT_NE(entry.find(q), nullptr) << q;
        EXPECT_GT(entry.find(q)->asDouble(), 0.0) << q;
    }
    EXPECT_LE(entry.at("p50").asDouble(),
              entry.at("p99").asDouble());
    EXPECT_LE(entry.at("p99").asDouble(),
              entry.at("p999").asDouble());
}

TEST_F(ObsTest, RegistryInternsByName)
{
    auto &a = obs::counter("test.registry.counter", "first desc");
    auto &b = obs::counter("test.registry.counter", "ignored");
    EXPECT_EQ(&a, &b) << "same name must return the same metric";
    a.add(3);
    EXPECT_EQ(obs::registry().counterValues()
                  .at("test.registry.counter"),
              3u);

    auto &h = obs::histogram("test.registry.hist");
    EXPECT_EQ(&h, &obs::histogram("test.registry.hist"));
    auto &g = obs::gauge("test.registry.gauge");
    EXPECT_EQ(&g, &obs::gauge("test.registry.gauge"));
}

TEST_F(ObsTest, RegistryResetKeepsReferencesValid)
{
    auto &c = obs::counter("test.reset.counter");
    auto &h = obs::histogram("test.reset.hist");
    c.add(9);
    h.record(5);
    obs::registry().reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    c.inc(); // the cached reference still records
    EXPECT_EQ(obs::registry().counterValues().at("test.reset.counter"),
              1u);
}

TEST_F(ObsTest, PublishRegistersOnlyTotalsThatRan)
{
    obs::publish({{"test.publish.nonzero", "", 4},
                  {"test.publish.never", "", 0},
                  {"test.publish.ran_zero", "", 0, true}});
    obs::publish({{"test.publish.nonzero", "", 3}});
    auto counters = obs::registry().counterValues();
    EXPECT_EQ(counters.at("test.publish.nonzero"), 7u);
    EXPECT_EQ(counters.at("test.publish.ran_zero"), 0u);
    EXPECT_FALSE(counters.count("test.publish.never"));

    obs::setMetricsEnabled(false);
    obs::publish({{"test.publish.nonzero", "", 5},
                  {"test.publish.disabled", "", 1}});
    counters = obs::registry().counterValues();
    EXPECT_EQ(counters.at("test.publish.nonzero"), 7u);
    EXPECT_FALSE(counters.count("test.publish.disabled"));
}

TEST_F(ObsTest, ConcurrentMutationIsExact)
{
    auto &c = obs::counter("test.mt.counter");
    auto &h = obs::histogram("test.mt.hist");
    auto &g = obs::gauge("test.mt.gauge");
    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 20000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                c.inc();
                h.record(t + 1);
                g.add(1);
                g.add(-1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kPerThread);
    EXPECT_EQ(h.count(), std::uint64_t{kThreads} * kPerThread);
    // Sum of t+1 for t in [0, kThreads) times kPerThread.
    EXPECT_EQ(h.sum(), std::uint64_t{kThreads} * (kThreads + 1) / 2 *
                           kPerThread);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), kThreads);
    EXPECT_EQ(g.value(), 0);
}

TEST_F(ObsTest, RegistryJsonIsParsableAndComplete)
{
    obs::counter("test.json.counter").add(7);
    obs::gauge("test.json.gauge").set(-3);
    obs::histogram("test.json.hist").record(12);

    std::ostringstream os;
    obs::registry().writeJson(os);
    const auto doc = Value::parse(os.str());

    EXPECT_EQ(doc.at("counters").at("test.json.counter").asUint(),
              7u);
    EXPECT_EQ(doc.at("gauges").at("test.json.gauge").asInt(), -3);
    const auto &h = doc.at("histograms").at("test.json.hist");
    EXPECT_EQ(h.at("count").asUint(), 1u);
    EXPECT_EQ(h.at("sum").asUint(), 12u);
    EXPECT_EQ(h.at("min").asUint(), 12u);
    EXPECT_EQ(h.at("max").asUint(), 12u);
    ASSERT_TRUE(h.at("buckets").isArray());
    ASSERT_EQ(h.at("buckets").asArray().size(), 1u)
        << "empty buckets must be elided";
    const auto &pair = h.at("buckets").asArray()[0];
    EXPECT_EQ(pair.asArray()[0].asUint(), 8u) << "12 is in [8, 16)";
    EXPECT_EQ(pair.asArray()[1].asUint(), 1u);
}

TEST_F(ObsTest, TraceSinkBuffersAllEventKinds)
{
    obs::TraceEventSink sink;
    const auto pid = sink.allocProcess("sim component");
    EXPECT_GT(pid, obs::TraceEventSink::wallPid);
    sink.threadName(pid, 3, "stage");
    sink.complete(pid, 3, "span", "cat", 10.0, 5.0,
                  {{"k", "v"}, {"n", "42"}});
    sink.instant(pid, 3, "marker", "cat", 11.0);
    sink.counterSample(pid, "occupancy", 12.0, 4);

    const auto events = sink.events();
    // ctor wallPid meta + process_name + thread_name + X + i + C.
    ASSERT_EQ(events.size(), 6u);
    EXPECT_EQ(events[0].ph, 'M');
    EXPECT_EQ(events[0].pid, obs::TraceEventSink::wallPid);
    EXPECT_EQ(events[3].ph, 'X');
    EXPECT_EQ(events[3].name, "span");
    EXPECT_DOUBLE_EQ(events[3].tsUs, 10.0);
    EXPECT_DOUBLE_EQ(events[3].durUs, 5.0);
    EXPECT_EQ(events[4].ph, 'i');
    EXPECT_EQ(events[5].ph, 'C');
}

TEST_F(ObsTest, ScopedSpanEmitsOneCompleteEvent)
{
    obs::TraceEventSink sink;
    obs::setTraceSink(&sink);
    const auto before = sink.size();
    {
        obs::ScopedSpan span("scoped", "test", {{"arg", "x"}});
    }
    obs::setTraceSink(nullptr);
    const auto events = sink.events();
    ASSERT_EQ(events.size(), before + 1);
    const auto &ev = events.back();
    EXPECT_EQ(ev.ph, 'X');
    EXPECT_EQ(ev.name, "scoped");
    EXPECT_EQ(ev.pid, obs::TraceEventSink::wallPid);
    EXPECT_GE(ev.durUs, 0.0);
}

TEST_F(ObsTest, ScopedSpanIsSafeAcrossSinkRemoval)
{
    obs::TraceEventSink sink;
    obs::setTraceSink(&sink);
    {
        obs::ScopedSpan span("orphan", "test");
        // The sink goes away mid-span (the sweep CLI uninstalls it
        // before writing); the dtor must not emit into it.
        obs::setTraceSink(nullptr);
    }
    for (const auto &ev : sink.events())
        EXPECT_NE(ev.name, "orphan");
}

TEST_F(ObsTest, TraceJsonMatchesSchema)
{
    obs::TraceEventSink sink;
    const auto pid = sink.allocProcess("bus (sim time)");
    sink.threadName(pid, 0, "tag 0");
    sink.complete(pid, 0, "read", "mem.bus", 1.5, 0.25,
                  {{"addr", "4096"}, {"kind", "acquire"}});
    sink.instant(pid, 0, "drain", "mem.wbq", 2.0);
    sink.counterSample(pid, "tags", 2.5, 7);

    const auto doc = Value::parse(sink.toJsonString());
    EXPECT_EQ(validateTraceDocument(doc), "");

    // Spot-check the mapping: numeric arg values are emitted as
    // numbers, string args as strings.
    for (const auto &ev : doc.at("traceEvents").asArray()) {
        if (ev.at("name").asString() == "read") {
            EXPECT_TRUE(ev.at("args").at("addr").isNumber());
            EXPECT_TRUE(ev.at("args").at("kind").isString());
        }
    }
}
