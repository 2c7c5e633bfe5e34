/**
 * @file
 * qtenond: the persistent Qtenon serving daemon.
 *
 * A long-running server that accepts VQA job requests over a local
 * (AF_UNIX) stream socket speaking the length-prefixed JSON frame
 * protocol (protocol.hh), and runs them on one pool of submitter
 * threads — the production-shape alternative to launching a whole
 * CLI process per sweep. Around the job body it shares with the
 * batch scheduler (service::executeJob) it adds the serving
 * machinery the one-shot binaries never needed:
 *
 *   - admission control: a bounded three-band priority queue with
 *     per-client quotas; over-limit submissions get an explicit
 *     REJECTED frame instead of unbounded buffering (admission.hh);
 *   - a content-addressed result cache: identical evaluations —
 *     common across sweep grids and repeated client traffic — are
 *     served from cached bytes without recompute, and a hit is
 *     byte-identical to a recompute by construction
 *     (result_cache.hh);
 *   - graceful drain: SIGTERM (or a "shutdown" frame) stops
 *     admission, completes every already-admitted job, flushes the
 *     responses, and only then exits.
 *
 * Threading model: one accept loop, one reader thread per client
 * connection (parses frames; serves pings, stats, and cache hits
 * inline), and N submitter threads (pop the admission queue, run
 * the job on the popping thread through service::executeJob, cache
 * and respond). The submitters are the only job pool, so N jobs run
 * at most and priority order is respected at dispatch time. The
 * accept loop joins and drops each connection whose reader has
 * returned, so a disconnected client holds no fd or thread.
 *
 * The daemon and its two caches each count their own facts and
 * publish the totals to the obs registry once, when destroyed.
 */

#ifndef QTENON_SERVICE_DAEMON_DAEMON_HH
#define QTENON_SERVICE_DAEMON_DAEMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "admission.hh"
#include "protocol.hh"
#include "result_cache.hh"

namespace qtenon::service::daemon {

/** Daemon knobs. */
struct DaemonConfig {
    /** AF_UNIX socket path (must fit sockaddr_un, ~107 bytes). */
    std::string socketPath = "qtenond.sock";
    /** Submitter threads; 0 = QTENON_JOBS env, then hardware. */
    unsigned workers = 0;
    /** Bounded admission queue depth. */
    std::size_t maxQueueDepth = 64;
    /** Per-client in-flight quota. */
    std::size_t perClientQuota = 16;
    /** Result-cache entries; 0 disables caching. */
    std::size_t cacheCapacity = 1024;
    /** Compile-cache structural entries; 0 disables. Serves repeat
     *  submissions whose circuits differ only in parameter values
     *  without re-running the pass pipeline (images byte-identical
     *  either way, so result bytes are unaffected). */
    std::size_t compileCacheCapacity = 256;
    /** Per-job deadline for requests without timeout_ms; zero =
     *  none. */
    std::chrono::milliseconds defaultTimeout{0};
};

/** Aggregate serving counters (stats frames, the loadgen artifact). */
struct DaemonStats {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t served = 0;
    std::uint64_t rejectedQueueFull = 0;
    std::uint64_t rejectedQuota = 0;
    std::uint64_t rejectedDraining = 0;
    std::uint64_t errors = 0;
    CacheStats cache;
    std::size_t queueDepth = 0;
    unsigned workers = 0;
    bool draining = false;
};

class Daemon
{
  public:
    explicit Daemon(DaemonConfig cfg);
    /** Stops a running daemon, then publishes its totals. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind the socket and start serving; throws on bind failure. */
    void start();

    /**
     * Begin graceful drain (idempotent, callable from any thread
     * including connection readers): stop accepting connections,
     * reject new submissions with "draining", let every admitted
     * job complete and its response flush.
     */
    void requestDrain();

    /** Block until the drain completes and every thread exited. */
    void join();

    /** requestDrain() + join() in one call. */
    void stop();

    bool running() const { return _running.load(); }

    DaemonStats stats() const;

    const DaemonConfig &config() const { return _cfg; }
    const std::string &socketPath() const { return _cfg.socketPath; }

  private:
    /**
     * One client connection. The reader thread parses frames; the
     * write mutex serializes response frames between the reader
     * (pings, rejections, cache hits) and the submitters (computed
     * results). The fd is owned by the Connection and closed with
     * it, so a submitter holding a shared_ptr can never write into
     * a recycled descriptor. `done` is set as the reader returns;
     * the accept loop then joins and drops the connection.
     */
    struct Connection {
        int fd = -1;
        std::uint64_t id = 0;
        std::mutex writeMutex;
        std::atomic<bool> open{true};
        std::atomic<bool> done{false};
        std::thread reader;

        ~Connection();
    };

    /** One admitted job awaiting a submitter. */
    struct Pending {
        std::shared_ptr<Connection> conn;
        std::uint64_t requestId = 0;
        std::string client;
        JobSpec spec;
        CacheKey key;
        std::chrono::steady_clock::time_point received{};
    };

    void acceptLoop();
    /** Join and drop every connection whose reader returned. */
    void reapConnections();
    void readerLoop(const std::shared_ptr<Connection> &conn);
    void submitterLoop();

    void handleFrame(const std::shared_ptr<Connection> &conn,
                     const std::string &payload);
    void handleSubmit(const std::shared_ptr<Connection> &conn,
                      const json::Value &msg);

    void sendPayload(Connection &conn, const std::string &payload);
    void sendJson(Connection &conn, const json::Value &v);
    /** Count one error and send its error frame. */
    void sendError(Connection &conn, std::uint64_t request_id,
                   const std::string &message);
    void sendResult(Connection &conn, std::uint64_t request_id,
                    const char *cache_state, const CacheKey &key,
                    const std::string &result_bytes);
    void recordLatency(
        std::chrono::steady_clock::time_point received);

    json::Value statsJson() const;

    DaemonConfig _cfg;
    int _listenFd = -1;
    /** Self-pipe waking the accept loop's poll() on drain. */
    int _wakePipe[2] = {-1, -1};

    std::atomic<bool> _running{false};
    std::atomic<bool> _draining{false};
    std::atomic<bool> _stopped{false};

    const unsigned _workers;
    AdmissionQueue<Pending> _queue;
    ResultCache _cache;
    isa::CompileCache _compileCache;

    std::thread _acceptThread;
    std::vector<std::thread> _submitters;

    mutable std::mutex _connMutex;
    std::vector<std::shared_ptr<Connection>> _connections;
    std::uint64_t _nextConnId = 0;

    std::atomic<std::uint64_t> _connectionsAccepted{0};
    std::atomic<std::uint64_t> _requests{0};
    std::atomic<std::uint64_t> _served{0};
    std::atomic<std::uint64_t> _rejectedQueueFull{0};
    std::atomic<std::uint64_t> _rejectedQuota{0};
    std::atomic<std::uint64_t> _rejectedDraining{0};
    std::atomic<std::uint64_t> _errors{0};

    std::mutex _joinMutex;
};

} // namespace qtenon::service::daemon

#endif // QTENON_SERVICE_DAEMON_DAEMON_HH
