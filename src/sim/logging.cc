#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>

namespace qtenon::sim {

namespace detail {

namespace {

/**
 * Serializes stderr output across threads. Concurrent QtenonSystem
 * instances (service::BatchScheduler workers) all report through this
 * sink; without the lock their lines interleave mid-record.
 */
std::mutex &
emitMutex()
{
    static std::mutex m;
    return m;
}

std::atomic<bool> &
warningsFlag()
{
    static std::atomic<bool> enabled{true};
    return enabled;
}

std::terminate_handler previousTerminate = nullptr;

/**
 * An uncaught ConfigError ends the process as fatal() always did:
 * its message on stderr and exit status 1, with atexit handlers run
 * and no stack unwound. Anything else goes to the previous handler.
 */
[[noreturn]] void
onTerminate()
{
    if (const auto pending = std::current_exception()) {
        try {
            std::rethrow_exception(pending);
        } catch (const ConfigError &e) {
            emit("fatal", e.what());
            std::exit(1);
        } catch (...) {
        }
    }
    if (previousTerminate)
        previousTerminate();
    std::abort();
}

} // namespace

void
emit(const char *label, const std::string &msg)
{
    std::lock_guard<std::mutex> guard(emitMutex());
    std::fprintf(stderr, "%s: %s\n", label, msg.c_str());
    std::fflush(stderr);
}

bool
warningsEnabled()
{
    return warningsFlag().load(std::memory_order_relaxed);
}

void
raiseConfigError(std::string msg)
{
    static const bool installed = [] {
        previousTerminate = std::set_terminate(onTerminate);
        return true;
    }();
    (void)installed;
    throw ConfigError(msg);
}

} // namespace detail

bool
setWarningsEnabled(bool enabled)
{
    return detail::warningsFlag().exchange(enabled,
                                           std::memory_order_relaxed);
}

} // namespace qtenon::sim
