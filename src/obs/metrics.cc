#include "metrics.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace qtenon::obs {

namespace {

/**
 * JSON string escaping for metric names/descriptions. Names are
 * ASCII by convention but escape defensively anyway.
 */
void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\t':
            os << "\\t";
            break;
        case '\r':
            os << "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/** %.17g with a forced '.'/exponent, mirroring the service JSON
 *  writer so quantiles re-parse as doubles. */
void
writeJsonDouble(std::ostream &os, double d)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    if (!std::strpbrk(buf, ".eE"))
        std::strcat(buf, ".0");
    os << buf;
}

} // namespace

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    if (q <= 0.0)
        return static_cast<double>(min);
    if (q >= 1.0)
        return static_cast<double>(max);

    // Continuous rank over the sorted recorded values, in
    // [0, count - 1] (the inclusive-endpoint convention: q = 0 is
    // the minimum, q = 1 the maximum).
    const double target = q * static_cast<double>(count - 1);
    std::uint64_t before = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const std::uint64_t n = buckets[b];
        if (!n)
            continue;
        if (target < static_cast<double>(before + n)) {
            // Values in bucket b lie in [bucketLow(b), 2^b - 1],
            // further clamped by the recorded global extrema.
            std::uint64_t lo = Histogram::bucketLow(b);
            std::uint64_t hi = b + 1 < buckets.size()
                ? Histogram::bucketLow(b + 1) - 1
                : ~std::uint64_t{0};
            lo = std::max(lo, min);
            hi = std::min(hi, max);
            if (n == 1 || hi <= lo)
                return static_cast<double>(lo);
            const double frac =
                (target - static_cast<double>(before)) /
                static_cast<double>(n - 1);
            return static_cast<double>(lo) +
                (static_cast<double>(hi) -
                 static_cast<double>(lo)) *
                frac;
        }
        before += n;
    }
    return static_cast<double>(max);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.count = count();
    s.sum = sum();
    s.min = min();
    s.max = max();
    for (std::size_t b = 0; b < numBuckets; ++b)
        s.buckets[b] = bucket(b);
    return s;
}

void
Histogram::reset()
{
    _count.store(0, std::memory_order_relaxed);
    _sum.store(0, std::memory_order_relaxed);
    _min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    _max.store(0, std::memory_order_relaxed);
    for (auto &b : _buckets)
        b.store(0, std::memory_order_relaxed);
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry reg;
    return reg;
}

MetricsRegistry &
registry()
{
    return MetricsRegistry::instance();
}

template <typename T>
T &
MetricsRegistry::intern(Table<T> &table, const std::string &name,
                        const std::string &desc)
{
    auto &slot = table[name];
    if (!slot.first) {
        slot.first = std::make_unique<T>();
        slot.second = desc;
    }
    return *slot.first;
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    return intern(_counters, name, desc);
}

Gauge &
MetricsRegistry::gauge(const std::string &name,
                       const std::string &desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    return intern(_gauges, name, desc);
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    return intern(_histograms, name, desc);
}

void
MetricsRegistry::publish(std::initializer_list<CounterTotal> totals)
{
    if (!metricsEnabled())
        return;
    std::lock_guard<std::mutex> lock(_mutex);
    for (const auto &t : totals) {
        if (t.ran)
            intern(_counters, t.name, t.desc).add(t.value);
    }
}

std::map<std::string, std::uint64_t>
MetricsRegistry::counterValues() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, slot] : _counters)
        out[name] = slot.first->value();
    return out;
}

std::map<std::string, std::int64_t>
MetricsRegistry::gaugeValues() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::map<std::string, std::int64_t> out;
    for (const auto &[name, slot] : _gauges)
        out[name] = slot.first->value();
    return out;
}

std::map<std::string, HistogramSnapshot>
MetricsRegistry::histogramValues() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::map<std::string, HistogramSnapshot> out;
    for (const auto &[name, slot] : _histograms)
        out[name] = slot.first->snapshot();
    return out;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &[name, slot] : _counters)
        slot.first->reset();
    for (auto &[name, slot] : _gauges)
        slot.first->reset();
    for (auto &[name, slot] : _histograms)
        slot.first->reset();
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, slot] : _counters) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        writeJsonString(os, name);
        os << ": " << slot.first->value();
    }
    os << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
    first = true;
    for (const auto &[name, slot] : _gauges) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        writeJsonString(os, name);
        os << ": " << slot.first->value();
    }
    os << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
    first = true;
    for (const auto &[name, slot] : _histograms) {
        const auto s = slot.first->snapshot();
        os << (first ? "\n    " : ",\n    ");
        first = false;
        writeJsonString(os, name);
        os << ": {\"count\": " << s.count << ", \"sum\": " << s.sum
           << ", \"min\": " << s.min << ", \"max\": " << s.max
           << ", \"p50\": ";
        writeJsonDouble(os, s.p50());
        os << ", \"p99\": ";
        writeJsonDouble(os, s.p99());
        os << ", \"p999\": ";
        writeJsonDouble(os, s.p999());
        os << ", \"buckets\": [";
        bool bfirst = true;
        for (std::size_t b = 0; b < Histogram::numBuckets; ++b) {
            if (!s.buckets[b])
                continue;
            os << (bfirst ? "" : ", ") << '['
               << Histogram::bucketLow(b) << ", " << s.buckets[b]
               << ']';
            bfirst = false;
        }
        os << "]}";
    }
    os << (first ? "}" : "\n  }") << "\n}\n";
}

} // namespace qtenon::obs
