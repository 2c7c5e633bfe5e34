#include "daemon.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "service/batch_scheduler.hh"

namespace qtenon::service::daemon {

namespace {

struct DaemonMetrics {
    obs::Gauge &clients =
        obs::gauge("daemon.clients.connected", "open connections");
    obs::Histogram &latency = obs::histogram(
        "daemon.request.latency_ns",
        "submit frame received -> response written");
    obs::Histogram &queueWait = obs::histogram(
        "daemon.request.queue_wait_ns",
        "admission -> popped by a submitter");
};

DaemonMetrics &
dmetrics()
{
    static DaemonMetrics m;
    return m;
}

json::Value
cacheJson(const CacheStats &s)
{
    json::Value v = json::Value::object();
    v.set("hits", s.hits);
    v.set("misses", s.misses);
    v.set("inserts", s.inserts);
    v.set("evictions", s.evictions);
    v.set("entries", static_cast<std::uint64_t>(s.entries));
    v.set("capacity", static_cast<std::uint64_t>(s.capacity));
    v.set("hit_rate", s.hitRate());
    return v;
}

std::uint64_t
nsSince(std::chrono::steady_clock::time_point t0)
{
    const auto dt = std::chrono::steady_clock::now() - t0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
            .count());
}

/** Bind an AF_UNIX listening socket at @p path (unlinking stale
 *  sockets first); throws std::runtime_error on failure. */
int
bindListenSocket(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error(
            "daemon: socket path empty or too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(
            std::string("daemon: socket(): ") +
            std::strerror(errno));
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("daemon: bind(" + path +
                                 "): " + std::strerror(err));
    }
    if (::listen(fd, 64) != 0) {
        const int err = errno;
        ::close(fd);
        ::unlink(path.c_str());
        throw std::runtime_error(
            std::string("daemon: listen(): ") +
            std::strerror(err));
    }
    return fd;
}

} // namespace

Daemon::Connection::~Connection()
{
    if (fd >= 0)
        ::close(fd);
}

Daemon::Daemon(DaemonConfig cfg)
    : _cfg(std::move(cfg)),
      _workers(resolveWorkerCount(_cfg.workers)),
      _queue(AdmissionConfig{_cfg.maxQueueDepth,
                             _cfg.perClientQuota}),
      _cache(_cfg.cacheCapacity),
      _compileCache(_cfg.compileCacheCapacity)
{}

Daemon::~Daemon()
{
    if (_running.load() && !_stopped.load())
        stop();
    // The caches publish their own totals as they are destroyed.
    const DaemonStats s = stats();
    const bool ran = s.connections > 0;
    obs::publish({
        {"daemon.requests", "submit frames received", s.requests,
         ran},
        {"daemon.served", "result frames sent", s.served, ran},
        {"daemon.rejected", "rejected submissions",
         s.rejectedQueueFull + s.rejectedQuota + s.rejectedDraining,
         ran},
        {"daemon.errors", "error frames sent", s.errors, ran},
    });
}

void
Daemon::start()
{
    if (_running.exchange(true))
        throw std::logic_error("daemon: start() called twice");

    if (::pipe(_wakePipe) != 0)
        throw std::runtime_error(
            std::string("daemon: pipe(): ") +
            std::strerror(errno));
    _listenFd = bindListenSocket(_cfg.socketPath);

    _submitters.reserve(_workers);
    for (unsigned i = 0; i < _workers; ++i)
        _submitters.emplace_back([this] { submitterLoop(); });
    _acceptThread = std::thread([this] { acceptLoop(); });
}

void
Daemon::requestDrain()
{
    if (_draining.exchange(true))
        return;
    _queue.beginDrain();
    // Wake the accept loop's poll(); it closes the listen socket.
    if (_wakePipe[1] >= 0) {
        const char byte = 1;
        ssize_t n;
        do {
            n = ::write(_wakePipe[1], &byte, 1);
        } while (n < 0 && errno == EINTR);
    }
}

void
Daemon::join()
{
    std::lock_guard<std::mutex> lock(_joinMutex);
    if (_stopped.load())
        return;

    if (_acceptThread.joinable())
        _acceptThread.join();
    // Submitters exit once the queue is drained dry; every admitted
    // job has had its response written by then.
    for (auto &t : _submitters)
        if (t.joinable())
            t.join();
    _submitters.clear();

    // Shut the connections down so blocked readers see EOF, then
    // reap them.
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> clock(_connMutex);
        conns.swap(_connections);
    }
    for (auto &c : conns) {
        c->open.store(false);
        ::shutdown(c->fd, SHUT_RDWR);
    }
    for (auto &c : conns)
        if (c->reader.joinable())
            c->reader.join();
    conns.clear();

    for (int *fd : {&_wakePipe[0], &_wakePipe[1]}) {
        if (*fd >= 0) {
            ::close(*fd);
            *fd = -1;
        }
    }
    ::unlink(_cfg.socketPath.c_str());
    _stopped.store(true);
}

void
Daemon::stop()
{
    requestDrain();
    join();
}

void
Daemon::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{_listenFd, POLLIN, 0},
                         {_wakePipe[0], POLLIN, 0}};
        int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (_draining.load() || (fds[1].revents & POLLIN))
            break;
        if (!(fds[0].revents & POLLIN))
            continue;

        reapConnections();
        int cfd = ::accept(_listenFd, nullptr, nullptr);
        if (cfd < 0) {
            // EMFILE, ENFILE, ECONNABORTED, ENOBUFS, ENOMEM pass:
            // back off and keep serving until the drain.
            if (errno != EINTR)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            continue;
        }

        auto conn = std::make_shared<Connection>();
        conn->fd = cfd;
        {
            std::lock_guard<std::mutex> lock(_connMutex);
            conn->id = ++_nextConnId;
            _connections.push_back(conn);
        }
        ++_connectionsAccepted;
        dmetrics().clients.add(1);
        conn->reader =
            std::thread([this, conn] { readerLoop(conn); });
    }
    // Stop accepting: new connect() attempts fail immediately once
    // the listening socket is gone.
    if (_listenFd >= 0) {
        ::close(_listenFd);
        _listenFd = -1;
    }
}

void
Daemon::readerLoop(const std::shared_ptr<Connection> &conn)
{
    std::string payload;
    try {
        while (readFrame(conn->fd, payload))
            handleFrame(conn, payload);
    } catch (const std::exception &) {
        // Framing/I-O error: drop the connection. In-flight jobs
        // still complete; their responses hit the closed socket and
        // are discarded.
    }
    conn->open.store(false);
    dmetrics().clients.add(-1);
    conn->done.store(true);
}

void
Daemon::reapConnections()
{
    std::vector<std::shared_ptr<Connection>> finished;
    {
        std::lock_guard<std::mutex> lock(_connMutex);
        auto live = _connections.begin();
        for (auto &c : _connections) {
            if (c->done.load())
                finished.push_back(std::move(c));
            else
                *live++ = std::move(c);
        }
        _connections.erase(live, _connections.end());
    }
    for (auto &c : finished)
        c->reader.join();
}

void
Daemon::handleFrame(const std::shared_ptr<Connection> &conn,
                    const std::string &payload)
{
    json::Value msg;
    std::string type;
    std::uint64_t id = 0;
    try {
        msg = json::Value::parse(payload);
        if (const auto *idv = msg.find("id"))
            id = idv->asUint();
        type = msg.at("type").asString();
    } catch (const std::exception &e) {
        sendError(*conn, id, std::string("malformed frame: ") + e.what());
        return;
    }

    if (type == "submit") {
        handleSubmit(conn, msg);
    } else if (type == "ping") {
        json::Value pong = json::Value::object();
        pong.set("type", "pong");
        pong.set("id", id);
        sendJson(*conn, pong);
    } else if (type == "stats") {
        json::Value s = statsJson();
        s.set("id", id);
        sendJson(*conn, s);
    } else if (type == "shutdown") {
        json::Value bye = json::Value::object();
        bye.set("type", "shutting_down");
        bye.set("id", id);
        sendJson(*conn, bye);
        requestDrain();
    } else {
        sendError(*conn, id, "unknown message type: " + type);
    }
}

void
Daemon::handleSubmit(const std::shared_ptr<Connection> &conn,
                     const json::Value &msg)
{
    const auto received = std::chrono::steady_clock::now();
    std::uint64_t id = 0;
    if (const auto *idv = msg.find("id"))
        id = idv->asUint();
    ++_requests;

    Pending pending;
    Priority priority = Priority::Normal;
    try {
        if (const auto *pv = msg.find("priority"))
            priority = priorityFromName(pv->asString());
        JobRequest req = JobRequest::fromJson(msg.at("job"));
        pending.conn = conn;
        pending.requestId = id;
        pending.client = req.client.empty()
            ? "conn-" + std::to_string(conn->id)
            : req.client;
        pending.key = cacheKeyOf(req);
        pending.spec = req.toJobSpec();
        // Structural compiles are shared across submissions; only
        // the cache pointer changes, never the compile mode, so
        // result bytes are identical with the cache on or off.
        pending.spec.driver.compileCache = &_compileCache;
        pending.received = received;
    } catch (const std::exception &e) {
        sendError(*conn, id, e.what());
        return;
    }

    // Cache hits are served inline: they consume no compute, so
    // they bypass admission control entirely.
    if (_cache.enabled()) {
        if (auto bytes = _cache.lookup(pending.key)) {
            obs::ScopedSpan span("daemon.serve.hit", "daemon");
            // Counted before the result frame goes out: a client
            // that reads its result and then asks for stats must see
            // it served.
            ++_served;
            sendResult(*conn, id, "hit", pending.key, *bytes);
            recordLatency(received);
            return;
        }
    }

    const std::string client = pending.client;
    const Admission verdict =
        _queue.push(std::move(pending), priority, client);
    if (verdict != Admission::Admitted) {
        json::Value rej = json::Value::object();
        rej.set("type", "rejected");
        rej.set("id", id);
        rej.set("reason", admissionReason(verdict));
        switch (verdict) {
        case Admission::RejectedQueueFull:
            rej.set("detail",
                    "admission queue at capacity; retry later");
            ++_rejectedQueueFull;
            break;
        case Admission::RejectedQuota:
            rej.set("detail", "per-client in-flight quota reached");
            ++_rejectedQuota;
            break;
        case Admission::RejectedDraining:
            rej.set("detail", "daemon is draining");
            ++_rejectedDraining;
            break;
        case Admission::Admitted:
            break;
        }
        sendJson(*conn, rej);
        recordLatency(received);
    }
    // Admitted: the response is written by a submitter.
}

void
Daemon::submitterLoop()
{
    Pending p;
    while (_queue.pop(p)) {
        dmetrics().queueWait.record(nsSince(p.received));

        JobResult r;
        {
            obs::ScopedSpan span("daemon.serve.miss", "daemon");
            r = executeJob(p.spec, 0, _cfg.defaultTimeout);
        }

        // Clear the display name, so the serialized bytes depend
        // only on the request content — the cache's byte-identity
        // contract (the job id is already 0).
        r.name.clear();
        const std::string bytes =
            jobResultToJson(r, /*deterministic_only=*/true).dump(0);
        if (r.status == JobStatus::Ok)
            _cache.insert(p.key, bytes);

        ++_served;
        if (p.conn->open.load()) {
            try {
                sendResult(*p.conn, p.requestId, "miss", p.key,
                           bytes);
            } catch (const std::exception &) {
                // Client went away; the result is still cached.
            }
        }
        recordLatency(p.received);
        _queue.release(p.client);
        p = Pending{};
    }
}

void
Daemon::sendPayload(Connection &conn, const std::string &payload)
{
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    writeFrame(conn.fd, payload);
}

void
Daemon::sendJson(Connection &conn, const json::Value &v)
{
    try {
        sendPayload(conn, v.dump(0));
    } catch (const std::exception &) {
        conn.open.store(false);
    }
}

void
Daemon::sendError(Connection &conn, std::uint64_t request_id,
                  const std::string &message)
{
    ++_errors;
    json::Value err = json::Value::object();
    err.set("type", "error");
    err.set("id", request_id);
    err.set("error", message);
    sendJson(conn, err);
}

void
Daemon::sendResult(Connection &conn, std::uint64_t request_id,
                   const char *cache_state, const CacheKey &key,
                   const std::string &result_bytes)
{
    // Splice the serialized result bytes into the envelope verbatim:
    // a cache hit replays exactly what the recompute produced.
    std::string payload;
    payload.reserve(result_bytes.size() + 96);
    payload += "{\"type\":\"result\",\"id\":";
    payload += std::to_string(request_id);
    payload += ",\"cache\":\"";
    payload += cache_state;
    payload += "\",\"key\":\"";
    payload += key.hex();
    payload += "\",\"result\":";
    payload += result_bytes;
    payload += "}";
    sendPayload(conn, payload);
}

void
Daemon::recordLatency(std::chrono::steady_clock::time_point received)
{
    dmetrics().latency.record(nsSince(received));
}

json::Value
Daemon::statsJson() const
{
    const DaemonStats s = stats();
    json::Value v = json::Value::object();
    v.set("type", "stats");
    v.set("workers", s.workers);
    v.set("draining", s.draining);
    v.set("connections", s.connections);
    v.set("requests", s.requests);
    v.set("served", s.served);
    v.set("queue_depth",
          static_cast<std::uint64_t>(s.queueDepth));
    json::Value rej = json::Value::object();
    rej.set("queue_full", s.rejectedQueueFull);
    rej.set("quota", s.rejectedQuota);
    rej.set("draining", s.rejectedDraining);
    v.set("rejected", std::move(rej));
    v.set("errors", s.errors);
    v.set("cache", cacheJson(s.cache));
    v.set("compile_cache", cacheJson(_compileCache.stats()));
    return v;
}

DaemonStats
Daemon::stats() const
{
    DaemonStats s;
    s.connections = _connectionsAccepted;
    s.requests = _requests;
    s.served = _served;
    s.rejectedQueueFull = _rejectedQueueFull;
    s.rejectedQuota = _rejectedQuota;
    s.rejectedDraining = _rejectedDraining;
    s.errors = _errors;
    s.cache = _cache.stats();
    s.queueDepth = _queue.depth();
    s.workers = _workers;
    s.draining = _draining.load();
    return s;
}

} // namespace qtenon::service::daemon
