/**
 * @file
 * The Chrome trace-event schema subset this repo emits, as one
 * validator shared by the trace-sink unit tests (test_obs.cc) and
 * the fig13 trace artifact check (test_artifacts.cc).
 */

#ifndef QTENON_TESTS_TRACE_SCHEMA_HH
#define QTENON_TESTS_TRACE_SCHEMA_HH

#include <set>
#include <string>

#include "service/json.hh"

namespace qtenon::tests {

/**
 * Validate one parsed document against the Chrome trace-event
 * schema subset this repo emits: {"traceEvents":[...]} where every
 * event has a known phase, integral pid/tid, a name, a numeric ts
 * (except metadata), a numeric dur for complete events, and
 * object-shaped args. Returns a failure description or "".
 */
inline std::string
validateTraceDocument(const service::json::Value &doc)
{
    using service::json::Value;
    if (!doc.isObject())
        return "document is not an object";
    const Value *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return "missing traceEvents array";

    const std::set<std::string> phases = {"X", "B", "E", "i", "C",
                                          "M"};
    std::size_t idx = 0;
    for (const auto &ev : events->asArray()) {
        const std::string where =
            "event " + std::to_string(idx++) + ": ";
        if (!ev.isObject())
            return where + "not an object";
        const Value *ph = ev.find("ph");
        if (!ph || !ph->isString() || !phases.count(ph->asString()))
            return where + "bad ph";
        const Value *pid = ev.find("pid");
        const Value *tid = ev.find("tid");
        if (!pid || !pid->isNumber() || !tid || !tid->isNumber())
            return where + "bad pid/tid";
        const Value *name = ev.find("name");
        if (!name || !name->isString() || name->asString().empty())
            return where + "bad name";
        const bool meta = ph->asString() == "M";
        const Value *ts = ev.find("ts");
        if (!meta && (!ts || !ts->isNumber()))
            return where + "missing ts";
        if (ph->asString() == "X") {
            const Value *dur = ev.find("dur");
            if (!dur || !dur->isNumber() || dur->asDouble() < 0.0)
                return where + "bad dur";
        }
        if (const Value *args = ev.find("args"))
            if (!args->isObject())
                return where + "args is not an object";
        if (meta) {
            const Value *args = ev.find("args");
            if (!args || !args->find("name"))
                return where + "metadata without args.name";
        }
    }
    return "";
}

} // namespace qtenon::tests

#endif // QTENON_TESTS_TRACE_SCHEMA_HH
