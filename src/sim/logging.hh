/**
 * @file
 * Error and status reporting helpers in the gem5 tradition.
 *
 * panic() aborts on conditions that indicate a bug in the simulator
 * itself. fatal() reports a user-caused configuration error by
 * throwing sim::ConfigError, so an in-process caller (a batch job, a
 * daemon request) gets the error as a value. warn() and inform()
 * report non-fatal conditions.
 *
 * A ConfigError nobody catches still ends a command-line run the way
 * fatal() always has: the terminate handler logging.cc installs
 * before the first throw prints `fatal: <message>` and calls
 * std::exit(1). Any other uncaught exception goes to the previous
 * handler (an abort).
 */

#ifndef QTENON_SIM_LOGGING_HH
#define QTENON_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace qtenon::sim {

/**
 * A user-caused error: bad configuration, invalid arguments or
 * input. Derives from std::invalid_argument so callers that validate
 * untrusted input catch it with everything else they reject.
 */
class ConfigError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

namespace detail {

/** Concatenate a mixed argument pack into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

/** Emit a labelled message to stderr (serialized across threads). */
void emit(const char *label, const std::string &msg);

/** Whether warnings are printed (tests may silence them). */
bool warningsEnabled();

/** Throw ConfigError(@p msg); out of line to keep callers small. */
[[noreturn]] void raiseConfigError(std::string msg);

} // namespace detail

/**
 * Report an internal simulator bug and abort. Use when a condition
 * can only arise from broken simulator logic, never from user input.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emit("panic", detail::concat(std::forward<Args>(args)...));
    std::abort();
}

/**
 * Report a user-caused error (bad configuration, invalid arguments)
 * by throwing ConfigError with the concatenated message.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::raiseConfigError(
        detail::concat(std::forward<Args>(args)...));
}

/** Warn about questionable but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (detail::warningsEnabled())
        detail::emit("warn", detail::concat(std::forward<Args>(args)...));
}

/** Print an informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emit("info", detail::concat(std::forward<Args>(args)...));
}

/** Enable or disable warn() output (returns the previous setting). */
bool setWarningsEnabled(bool enabled);

} // namespace qtenon::sim

#endif // QTENON_SIM_LOGGING_HH
