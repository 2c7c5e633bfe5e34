/**
 * @file
 * The machine-checkable artifact a `--smoke` bench writes: a JSON
 * document tagged with a schema, the bench's own domain fields, a
 * `criteria` object, and `ok`, the AND of every pass/fail criterion.
 * `tests/test_artifacts.cc` re-checks the written file by schema;
 * under `--smoke` the bench itself exits 1 unless `ok` holds.
 */

#ifndef QTENON_BENCH_ARTIFACT_HH
#define QTENON_BENCH_ARTIFACT_HH

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "service/json.hh"
#include "sim/logging.hh"

namespace qtenon::bench {

class Artifact
{
  public:
    using Value = service::json::Value;

    explicit Artifact(const char *schema)
    {
        _root.set("schema", schema);
    }

    /** Append a domain field to the document root. */
    void
    set(std::string key, Value v)
    {
        _root.set(std::move(key), std::move(v));
    }

    /** Append a pass/fail criterion; ANDed into `ok`. */
    void
    criterion(std::string key, bool pass)
    {
        _ok = _ok && pass;
        _summary += " " + key + (pass ? "=yes" : "=NO");
        _criteria.set(std::move(key), pass);
    }

    /** Append an informational criteria entry (not part of `ok`). */
    void
    info(std::string key, Value v)
    {
        _criteria.set(std::move(key), std::move(v));
    }

    /**
     * Print one summary line of the criteria, append `criteria` and
     * `ok` to the document and write it to @p outPath (skipped when
     * empty; a failed open is fatal). Returns the process exit code:
     * 1 when @p smoke and a criterion failed, else 0.
     */
    int
    finish(const std::string &outPath, bool smoke)
    {
        std::printf("criteria:%s\n", _summary.c_str());
        _root.set("criteria", std::move(_criteria));
        _root.set("ok", _ok);
        if (!outPath.empty()) {
            std::ofstream os(outPath);
            if (!os)
                sim::fatal("cannot open --out path '", outPath, "'");
            _root.write(os, 2);
            os << "\n";
            std::printf("artifact: %s\n", outPath.c_str());
        }
        if (smoke && !_ok) {
            std::fprintf(stderr, "smoke criteria FAILED\n");
            return 1;
        }
        return 0;
    }

  private:
    Value _root = Value::object();
    Value _criteria = Value::object();
    bool _ok = true;
    /** " key=yes key=NO ..." over the pass/fail criteria. */
    std::string _summary;
};

} // namespace qtenon::bench

#endif // QTENON_BENCH_ARTIFACT_HH
