/**
 * @file
 * A small declarative option registry for the command-line binaries
 * (the sweep benches through `bench/sweep_cli.hh`, the other benches
 * and `qtenond`).
 *
 * An option is one registration — name, metavar, help text, and a
 * setter — and the registry provides uniform parsing (`--name value`
 * and `--name=value` for every option), a generated `--help`, and
 * the shared error behaviour (`sim::fatal` on unknown or malformed
 * input, including a numeric token that is not wholly a number in
 * range). Sweep binaries with extra options (e.g. `fault_sweep`'s
 * `--loss-rates`) register them through the `extra` hook of
 * `parseSweepCli` instead of forking the parser.
 */

#ifndef QTENON_SIM_OPTION_REGISTRY_HH
#define QTENON_SIM_OPTION_REGISTRY_HH

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/parse.hh"

namespace qtenon::cli {

/** @p text as a whole finite number in [@p lo, @p hi], or nullopt. */
inline std::optional<double>
toReal(const std::string &text, double lo, double hi)
{
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v) || v < lo || v > hi)
        return std::nullopt;
    return v;
}

/** @p text as a @p T in [@p lo, @p hi]; anything else dies with
 *  "<flag>: bad value '<text>'". */
template <typename T>
T
parseValue(const std::string &flag, const std::string &text, T lo,
           T hi)
{
    std::optional<T> v;
    if constexpr (std::is_floating_point_v<T>)
        v = toReal(text, lo, hi);
    else if (const auto n = sim::toUint(text, lo, hi))
        v = static_cast<T>(*n);
    if (!v)
        sim::fatal(flag, ": bad value '", text, "'");
    return *v;
}

/**
 * A comma-separated list of @p T, each element checked by
 * parseValue against [@p lo, @p hi]. Empty elements are skipped; a
 * list with none left dies.
 */
template <typename T>
std::vector<T>
parseList(const std::string &flag, const std::string &text, T lo,
          T hi)
{
    std::vector<T> out;
    std::size_t begin = 0;
    while (begin <= text.size()) {
        std::size_t end = text.find(',', begin);
        if (end == std::string::npos)
            end = text.size();
        if (end > begin)
            out.push_back(parseValue(
                flag, text.substr(begin, end - begin), lo, hi));
        begin = end + 1;
    }
    if (out.empty())
        sim::fatal(flag, ": empty list");
    return out;
}

/** One registered command-line option. */
struct Option {
    /** Full spelling including the leading dashes ("--jobs"). */
    std::string name;
    /** Value placeholder for help ("N", "PATH"); empty = boolean. */
    std::string metavar;
    std::string help;
    /** Setter; flags are invoked with an empty string. */
    std::function<void(const std::string &)> apply;

    bool isFlag() const { return metavar.empty(); }
};

/** Declarative option table + parser + generated help. */
class OptionRegistry
{
  public:
    /** Register an option with a custom value parser. */
    void
    add(std::string name, std::string metavar, std::string help,
        std::function<void(const std::string &)> apply)
    {
        _options.push_back(Option{std::move(name), std::move(metavar),
                                  std::move(help), std::move(apply)});
    }

    /** Boolean flag: presence sets @p target. */
    void
    flag(std::string name, std::string help, bool *target)
    {
        add(std::move(name), "", std::move(help),
            [target](const std::string &) { *target = true; });
    }

    /** String option storing verbatim into @p target. */
    void
    str(std::string name, std::string metavar, std::string help,
        std::string *target)
    {
        add(std::move(name), std::move(metavar), std::move(help),
            [target](const std::string &v) { *target = v; });
    }

    /** Unsigned option; a value that is not wholly an integer of
     *  at least @p min dies with @p err. */
    void
    uns(std::string name, std::string metavar, std::string help,
        unsigned *target, unsigned min, std::string err)
    {
        add(std::move(name), std::move(metavar), std::move(help),
            [target, min, err = std::move(err)](
                const std::string &v) {
                const auto n = sim::toUint(
                    v, min, std::numeric_limits<unsigned>::max());
                if (!n)
                    sim::fatal(err);
                *target = static_cast<unsigned>(*n);
            });
    }

    /** 64-bit unsigned option (0 allowed). */
    void
    u64(std::string name, std::string metavar, std::string help,
        std::uint64_t *target)
    {
        add(name, std::move(metavar), std::move(help),
            [name, target](const std::string &v) {
                *target = parseValue<std::uint64_t>(
                    name, v, 0,
                    std::numeric_limits<std::uint64_t>::max());
            });
    }

    /** Millisecond duration; a value that is not wholly a positive
     *  integer dies with @p err. */
    void
    ms(std::string name, std::string metavar, std::string help,
       std::chrono::milliseconds *target, std::string err)
    {
        add(std::move(name), std::move(metavar), std::move(help),
            [target, err = std::move(err)](const std::string &v) {
                const auto n = sim::toUint(
                    v, 1, std::numeric_limits<std::int64_t>::max());
                if (!n)
                    sim::fatal(err);
                *target = std::chrono::milliseconds(*n);
            });
    }

    /** Comma-separated list option; see parseList. */
    template <typename T>
    void
    list(std::string name, std::string metavar, std::string help,
         std::vector<T> *target, T lo, T hi)
    {
        add(name, std::move(metavar), std::move(help),
            [name, target, lo, hi](const std::string &v) {
                *target = parseList(name, v, lo, hi);
            });
    }

    const std::vector<Option> &options() const { return _options; }

    /** Generated two-column help, in registration order. */
    void
    printHelp(const char *argv0) const
    {
        std::printf("usage: %s [options]\n\noptions:\n", argv0);
        std::size_t width = 0;
        auto spelled = [](const Option &o) {
            return o.isFlag() ? o.name : o.name + " " + o.metavar;
        };
        for (const auto &o : _options)
            width = std::max(width, spelled(o).size());
        for (const auto &o : _options) {
            std::printf("  %-*s  %s\n", static_cast<int>(width),
                        spelled(o).c_str(), o.help.c_str());
        }
    }

    /**
     * Parse @p argv against the table. Accepts `--name value` and
     * `--name=value` for every value option; `--help`/`-h` prints
     * the generated help and exits; anything unknown or malformed
     * dies via sim::fatal.
     */
    void
    parse(int argc, char **argv) const
    {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--help") == 0 ||
                std::strcmp(arg, "-h") == 0) {
                printHelp(argv[0]);
                std::exit(0);
            }
            const char *eq = std::strchr(arg, '=');
            const std::string name =
                eq ? std::string(arg, eq - arg) : std::string(arg);
            const Option *opt = nullptr;
            for (const auto &o : _options) {
                if (o.name == name) {
                    opt = &o;
                    break;
                }
            }
            if (!opt)
                sim::fatal("unknown argument '", arg,
                           "' (try --help)");
            if (opt->isFlag()) {
                if (eq)
                    sim::fatal(name, " takes no value");
                opt->apply("");
                continue;
            }
            std::string value;
            if (eq) {
                value = eq + 1;
            } else {
                if (i + 1 >= argc)
                    sim::fatal(arg, " requires a value");
                value = argv[++i];
            }
            opt->apply(value);
        }
    }

  private:
    std::vector<Option> _options;
};

} // namespace qtenon::cli

#endif // QTENON_SIM_OPTION_REGISTRY_HH
