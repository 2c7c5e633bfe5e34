#include "fault.hh"

#include <algorithm>
#include <cmath>

#include "core/hash.hh"
#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "sim/logging.hh"

namespace qtenon::fault {

std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
hashName(const std::string &s)
{
    return core::fnv1a(s);
}

bool
SiteFaults::any() const
{
    return drop > 0.0 || dup > 0.0 || corrupt > 0.0 ||
        reorder > 0.0 || error > 0.0 || stall > 0.0 || flip > 0.0 ||
        jitter > 0;
}

namespace {

double
parseRate(const std::string &entry, const std::string &value)
{
    char *end = nullptr;
    const double p = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || std::isnan(p) ||
        p < 0.0 || p > 1.0) {
        sim::fatal("fault-spec: '", entry,
                   "': probability must be in [0, 1]");
    }
    return p;
}

sim::Tick
parseNs(const std::string &entry, const std::string &value)
{
    char *end = nullptr;
    const double ns = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || std::isnan(ns) ||
        ns < 0.0) {
        sim::fatal("fault-spec: '", entry,
                   "': duration must be a non-negative nanosecond count");
    }
    return static_cast<sim::Tick>(ns * sim::nsTicks);
}

std::string
formatRate(double p)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", p);
    return buf;
}

} // namespace

FaultSpec
FaultSpec::parse(const std::string &text)
{
    FaultSpec spec;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string entry = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty())
            continue;

        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq + 1 == entry.size()) {
            sim::fatal("fault-spec: '", entry,
                       "' is not of the form site.kind=value");
        }
        const std::string key = entry.substr(0, eq);
        const std::string value = entry.substr(eq + 1);

        if (key == "seed") {
            spec.seed = std::strtoull(value.c_str(), nullptr, 10);
            continue;
        }

        const std::size_t dot = key.find('.');
        if (dot == std::string::npos || dot == 0 ||
            dot + 1 == key.size()) {
            sim::fatal("fault-spec: '", entry,
                       "' is not of the form site.kind=value");
        }
        const std::string site = key.substr(0, dot);
        const std::string kind = key.substr(dot + 1);
        SiteFaults &f = spec.sites[site];

        if (kind == "drop")
            f.drop = parseRate(entry, value);
        else if (kind == "dup")
            f.dup = parseRate(entry, value);
        else if (kind == "corrupt")
            f.corrupt = parseRate(entry, value);
        else if (kind == "reorder")
            f.reorder = parseRate(entry, value);
        else if (kind == "error")
            f.error = parseRate(entry, value);
        else if (kind == "stall")
            f.stall = parseRate(entry, value);
        else if (kind == "flip")
            f.flip = parseRate(entry, value);
        else if (kind == "jitter")
            f.jitter = parseNs(entry, value);
        else if (kind == "stall_ns")
            f.stallTicks = parseNs(entry, value);
        else
            sim::fatal("fault-spec: unknown fault kind '", kind,
                       "' in '", entry, "' (expected drop, dup, "
                       "corrupt, reorder, error, stall, flip, jitter, "
                       "stall_ns)");
    }
    return spec;
}

std::string
FaultSpec::toString() const
{
    std::string out;
    auto append = [&out](const std::string &site, const char *kind,
                         const std::string &value) {
        if (!out.empty())
            out += ',';
        out += site;
        out += '.';
        out += kind;
        out += '=';
        out += value;
    };
    for (const auto &[site, f] : sites) {
        if (f.drop > 0.0)
            append(site, "drop", formatRate(f.drop));
        if (f.dup > 0.0)
            append(site, "dup", formatRate(f.dup));
        if (f.corrupt > 0.0)
            append(site, "corrupt", formatRate(f.corrupt));
        if (f.reorder > 0.0)
            append(site, "reorder", formatRate(f.reorder));
        if (f.error > 0.0)
            append(site, "error", formatRate(f.error));
        if (f.stall > 0.0)
            append(site, "stall", formatRate(f.stall));
        if (f.flip > 0.0)
            append(site, "flip", formatRate(f.flip));
        if (f.jitter > 0)
            append(site, "jitter",
                   formatRate(sim::ticksToNs(f.jitter)));
        if (f.stallTicks != SiteFaults{}.stallTicks)
            append(site, "stall_ns",
                   formatRate(sim::ticksToNs(f.stallTicks)));
    }
    if (seed != 0) {
        if (!out.empty())
            out += ',';
        out += "seed=" + std::to_string(seed);
    }
    return out;
}

FaultInjector::FaultInjector(FaultSpec spec, std::uint64_t seed)
    : _spec(std::move(spec)), _seed(seed)
{
    // Intern the spec'd sites up front so ids are stable in spec
    // order regardless of first-lookup order at the call sites.
    for (const auto &[name, faults] : _spec.sites)
        site(name);
}

FaultInjector::~FaultInjector()
{
    if (!obs::metricsEnabled())
        return;
    for (const auto &st : _sites) {
        for (const auto &[kind, n] : st.counts)
            obs::counter("fault." + st.name + "." + kind,
                         "injected " + kind + " faults at site " +
                             st.name)
                .add(n);
    }
}

SiteId
FaultInjector::site(const std::string &name)
{
    auto it = _ids.find(name);
    if (it != _ids.end())
        return it->second;

    const SiteId id = static_cast<SiteId>(_sites.size());
    SiteState st;
    st.name = name;
    auto fit = _spec.sites.find(name);
    if (fit != _spec.sites.end())
        st.faults = fit->second;
    st.active = st.faults.any();
    // Per-site stream: independent of every other site and of the
    // lookup order (the name, not the id, feeds the seed).
    st.rng = sim::Rng(mix64(_seed ^ hashName(name)));
    _sites.push_back(std::move(st));
    _ids.emplace(name, id);
    return id;
}

const SiteFaults &
FaultInjector::faults(SiteId s) const
{
    return _sites.at(s).faults;
}

bool
FaultInjector::active(SiteId s) const
{
    return _sites.at(s).active;
}

void
FaultInjector::record(SiteState &st, const std::string &kind,
                      std::uint64_t n)
{
    st.counts[kind] += n;
    if (auto *sink = obs::traceSink()) {
        sink->instant(obs::TraceEventSink::wallPid, obs::currentTid(),
                      "fault." + st.name + "." + kind, "fault",
                      sink->nowUs());
    }
}

bool
FaultInjector::decide(SiteId s, double rate, const char *kind)
{
    SiteState &st = _sites.at(s);
    if (rate <= 0.0)
        return false;
    if (!st.rng.coin(rate))
        return false;
    ++_injections;
    record(st, kind, 1);
    return true;
}

bool
FaultInjector::shouldDrop(SiteId s)
{
    return decide(s, faults(s).drop, "drop");
}

bool
FaultInjector::shouldDuplicate(SiteId s)
{
    return decide(s, faults(s).dup, "dup");
}

bool
FaultInjector::shouldCorrupt(SiteId s)
{
    return decide(s, faults(s).corrupt, "corrupt");
}

bool
FaultInjector::shouldReorder(SiteId s)
{
    return decide(s, faults(s).reorder, "reorder");
}

bool
FaultInjector::shouldError(SiteId s)
{
    return decide(s, faults(s).error, "error");
}

bool
FaultInjector::shouldStall(SiteId s)
{
    return decide(s, faults(s).stall, "stall");
}

bool
FaultInjector::shouldFlipBit(SiteId s)
{
    return decide(s, faults(s).flip, "flip");
}

sim::Tick
FaultInjector::jitterTicks(SiteId s)
{
    SiteState &st = _sites.at(s);
    if (st.faults.jitter == 0)
        return 0;
    const auto extra = static_cast<sim::Tick>(
        st.rng.uniform() * static_cast<double>(st.faults.jitter));
    if (extra > 0) {
        ++_injections;
        record(st, "jitter", 1);
    }
    return extra;
}

std::uint64_t
FaultInjector::corruptWord(SiteId s, std::uint64_t word)
{
    SiteState &st = _sites.at(s);
    return word ^ (std::uint64_t{1} << st.rng.index(64));
}

void
FaultInjector::count(SiteId s, const std::string &what,
                     std::uint64_t n)
{
    if (n == 0)
        return;
    record(_sites.at(s), what, n);
}

void
FaultInjector::exportCounters(std::map<std::string, double> &out) const
{
    for (const auto &st : _sites) {
        for (const auto &[kind, n] : st.counts) {
            if (n > 0)
                out["fault." + st.name + "." + kind] +=
                    static_cast<double>(n);
        }
    }
}

std::uint64_t
RetryPolicy::backoffBefore(std::uint32_t attempt,
                           std::uint64_t seed) const
{
    if (backoff == 0)
        return 0;
    double b = static_cast<double>(backoff);
    for (std::uint32_t i = 1; i < attempt; ++i)
        b *= multiplier;
    if (maxBackoff > 0)
        b = std::min(b, static_cast<double>(maxBackoff));
    if (jitter > 0.0) {
        // mix64 of (seed, attempt) mapped to [0, 1): the schedule is
        // a pure function of the job's seed, not of wall time.
        const double u =
            static_cast<double>(mix64(seed ^ attempt) >> 11) /
            static_cast<double>(1ull << 53);
        b *= 1.0 - jitter + 2.0 * jitter * u;
    }
    return static_cast<std::uint64_t>(b);
}

} // namespace qtenon::fault
