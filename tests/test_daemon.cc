/**
 * @file
 * qtenond tests: frame protocol (round trip, EOF, oversize guard),
 * JobRequest JSON round trip and validation, admission queue policy
 * (priority order, depth bound, quotas, drain), daemon end-to-end
 * over a real AF_UNIX socket (ping/submit/hit/stats/rejections/
 * deadlines/connection reaping/graceful drain), and the daemon's and
 * its caches' published registry totals.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "service/daemon/admission.hh"
#include "service/daemon/client.hh"
#include "service/daemon/daemon.hh"
#include "service/daemon/protocol.hh"

using namespace qtenon;
using namespace qtenon::service::daemon;

namespace {

std::string
testSocketPath(const char *tag)
{
    return "/tmp/qtenon_d_" + std::to_string(::getpid()) + "_" +
        tag + ".sock";
}

JobRequest
smallRequest(std::uint64_t seed = 5)
{
    JobRequest req;
    req.name = "t";
    req.client = "test-client";
    req.algorithm = "vqe";
    req.qubits = 4;
    req.shots = 50;
    req.iterations = 2;
    req.seed = seed;
    return req;
}

/** A request whose job outlasts a 1 ms deadline. */
JobRequest
slowRequest()
{
    JobRequest req = smallRequest(31);
    req.qubits = 8;
    req.shots = 500;
    req.iterations = 20;
    return req;
}

/** The status fields of a result frame's JobResult bytes. */
struct ResultStatus {
    std::string status;
    std::string timeoutSource;
};

ResultStatus
statusOf(const Response &resp)
{
    const auto v = service::json::Value::parse(resp.resultBytes);
    ResultStatus out;
    out.status = v.at("status").asString();
    if (const auto *ts = v.find("timeout_source"))
        out.timeoutSource = ts->asString();
    return out;
}

/** Open file descriptors of this process. */
std::size_t
openFds()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

/** A connected AF_UNIX socket pair for framing tests. */
struct SocketPair {
    int fds[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(
            ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }
    ~SocketPair()
    {
        for (int fd : fds)
            if (fd >= 0)
                ::close(fd);
    }
    void
    closeWriter()
    {
        ::close(fds[0]);
        fds[0] = -1;
    }
};

} // namespace

// ---------------------------------------------------------------
// Framing.

TEST(Framing, RoundTripsPayloads)
{
    SocketPair sp;
    for (const std::string &payload :
         {std::string("{}"), std::string("x"),
          std::string(100000, 'q')}) {
        writeFrame(sp.fds[0], payload);
        std::string got;
        ASSERT_TRUE(readFrame(sp.fds[1], got));
        EXPECT_EQ(got, payload);
    }
}

TEST(Framing, CleanEofReturnsFalse)
{
    SocketPair sp;
    writeFrame(sp.fds[0], "last");
    sp.closeWriter();
    std::string got;
    ASSERT_TRUE(readFrame(sp.fds[1], got));
    EXPECT_EQ(got, "last");
    EXPECT_FALSE(readFrame(sp.fds[1], got));
}

TEST(Framing, TruncatedFrameThrows)
{
    SocketPair sp;
    // Announce 8 bytes, deliver 3, hang up.
    const unsigned char header[4] = {0, 0, 0, 8};
    ASSERT_EQ(::write(sp.fds[0], header, 4), 4);
    ASSERT_EQ(::write(sp.fds[0], "abc", 3), 3);
    sp.closeWriter();
    std::string got;
    EXPECT_THROW(readFrame(sp.fds[1], got), std::runtime_error);
}

TEST(Framing, OversizeLengthThrows)
{
    SocketPair sp;
    const std::uint32_t huge = (64u << 20) + 1;
    const unsigned char header[4] = {
        static_cast<unsigned char>(huge >> 24),
        static_cast<unsigned char>(huge >> 16),
        static_cast<unsigned char>(huge >> 8),
        static_cast<unsigned char>(huge)};
    ASSERT_EQ(::write(sp.fds[0], header, 4), 4);
    std::string got;
    EXPECT_THROW(readFrame(sp.fds[1], got), std::runtime_error);
    EXPECT_THROW(writeFrame(sp.fds[0],
                            std::string(maxFrameBytes + 1, 'x')),
                 std::runtime_error);
}

// ---------------------------------------------------------------
// JobRequest JSON round trip and validation.

TEST(JobRequestJson, RoundTripsAllFields)
{
    JobRequest req;
    req.name = "rt";
    req.client = "c0";
    req.algorithm = "qaoa";
    req.qubits = 8;
    req.layers = 2;
    req.shots = 123;
    req.iterations = 7;
    req.optimizer = "spsa";
    req.seed = 99;
    req.backend = "statevector";
    req.svSimd = "scalar";
    req.svFusion = true;
    req.exactCost = true;
    req.readoutError = 0.25;
    req.faultSpec = "eth.drop=0.5";
    req.hosts = {"rocket", "boom-l"};
    req.runBaseline = true;
    req.timeoutMs = 1234;

    const JobRequest back = JobRequest::fromJson(req.toJson());
    EXPECT_EQ(back.name, req.name);
    EXPECT_EQ(back.client, req.client);
    EXPECT_EQ(back.timeoutMs, req.timeoutMs);
    EXPECT_EQ(back.hosts, req.hosts);
    EXPECT_EQ(back.canonicalText(), req.canonicalText());
    EXPECT_EQ(cacheKeyOf(back), cacheKeyOf(req));
}

TEST(JobRequestJson, SeedOnlyFaultSpecRoundTrips)
{
    // A seed-only plan survives the wire and reaches the job spec,
    // where a custom body would reject it rather than drop it.
    JobRequest req = smallRequest();
    req.faultSpec = "seed=3";
    const JobRequest back = JobRequest::fromJson(req.toJson());
    EXPECT_EQ(back.faultSpec, "seed=3");
    EXPECT_EQ(back.canonicalText(), req.canonicalText());
    const auto spec = back.toJobSpec();
    EXPECT_FALSE(spec.faultSpec.empty());
    EXPECT_TRUE(spec.faultSpec.sites.empty());
    EXPECT_EQ(spec.faultSpec.seed, 3u);
    EXPECT_EQ(spec.faultSpec.toString(), "seed=3");
}

TEST(JobRequestJson, BackendAliasSharesCacheEntry)
{
    // The library's backend parser accepts aliases; the cache key
    // uses the canonical engine name, so an alias hits the same entry.
    JobRequest alias = smallRequest();
    alias.backend = "sv";
    JobRequest canonical = smallRequest();
    canonical.backend = "statevector";
    EXPECT_EQ(alias.canonicalText(), canonical.canonicalText());
    EXPECT_EQ(cacheKeyOf(alias), cacheKeyOf(canonical));
}

TEST(JobRequestJson, InvalidRequestsThrow)
{
    // Each mutation must be rejected by validation: the daemon checks
    // input from outside the program before it is queued.
    auto expectInvalid = [](JobRequest req) {
        EXPECT_THROW(JobRequest::fromJson(req.toJson()),
                     std::invalid_argument);
        EXPECT_THROW(req.toJobSpec(), std::invalid_argument);
    };
    JobRequest req = smallRequest();
    req.algorithm = "annealing";
    expectInvalid(req);
    req = smallRequest();
    req.qubits = 1;
    expectInvalid(req);
    req = smallRequest();
    req.algorithm = "qaoa";
    req.qubits = 5; // 3-regular MAX-CUT needs even n
    expectInvalid(req);
    req = smallRequest();
    req.backend = "statevector";
    req.qubits = 30;
    expectInvalid(req);
    req = smallRequest();
    req.optimizer = "newton";
    expectInvalid(req);
    req = smallRequest();
    req.backend = "qpu";
    expectInvalid(req);
    req = smallRequest();
    req.svSimd = "avx1024";
    expectInvalid(req);
    req = smallRequest();
    req.readoutError = 1.5;
    expectInvalid(req);
    req = smallRequest();
    req.readoutError = 0.7; // above the readout model's 0.5 bound
    expectInvalid(req);
    req = smallRequest();
    req.backend = "stabilizer"; // workloads carry non-Clifford angles
    expectInvalid(req);
    req = smallRequest();
    req.shots = 0;
    expectInvalid(req);
    req = smallRequest();
    req.faultSpec = "not a spec";
    expectInvalid(req);
    req = smallRequest();
    req.hosts = {"cray"};
    expectInvalid(req);
}

TEST(JobRequestJson, RejectsCountsAbove32Bits)
{
    // Raw client frames: 2^32 + 4 must not wrap to 4, which would be
    // served as a valid job under the small job's cache key.
    const std::string big = "4294967300";
    const auto frame = [](const std::string &qubits,
                          const std::string &layers,
                          const std::string &iterations) {
        return service::json::Value::parse(
            R"({"algorithm":"vqe","shots":50,"seed":5,"qubits":)" +
            qubits + R"(,"layers":)" + layers +
            R"(,"iterations":)" + iterations + "}");
    };
    EXPECT_NO_THROW(JobRequest::fromJson(frame("4", "1", "2")));
    const std::pair<std::string, service::json::Value> cases[] = {
        {"qubits", frame(big, "1", "2")},
        {"layers", frame("4", big, "2")},
        {"iterations", frame("4", "1", big)},
    };
    for (const auto &[field, v] : cases) {
        try {
            JobRequest::fromJson(v);
            ADD_FAILURE() << field << " above UINT32_MAX was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(JobRequestJson, ToJobSpecUsesSeedVerbatim)
{
    const JobRequest req = smallRequest(42);
    const service::JobSpec spec = req.toJobSpec();
    EXPECT_FALSE(spec.deriveSeedFromJobId);
    EXPECT_EQ(spec.driver.seed, 42u);
}

// ---------------------------------------------------------------
// Admission queue policy.

TEST(AdmissionQueuePolicy, PopsHighBeforeNormalBeforeLow)
{
    AdmissionQueue<int> q(AdmissionConfig{16, 16});
    ASSERT_EQ(q.push(1, Priority::Low, "c"),
              Admission::Admitted);
    ASSERT_EQ(q.push(2, Priority::Normal, "c"),
              Admission::Admitted);
    ASSERT_EQ(q.push(3, Priority::High, "c"),
              Admission::Admitted);
    ASSERT_EQ(q.push(4, Priority::High, "c"),
              Admission::Admitted);
    int out = 0;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.pop(out));
        order.push_back(out);
    }
    EXPECT_EQ(order, (std::vector<int>{3, 4, 2, 1}));
}

TEST(AdmissionQueuePolicy, BoundsTotalDepth)
{
    AdmissionQueue<int> q(AdmissionConfig{2, 16});
    EXPECT_EQ(q.push(1, Priority::Normal, "a"),
              Admission::Admitted);
    EXPECT_EQ(q.push(2, Priority::High, "b"),
              Admission::Admitted);
    EXPECT_EQ(q.push(3, Priority::High, "c"),
              Admission::RejectedQueueFull);
    EXPECT_EQ(q.depth(), 2u);
    // Rejection left no quota charge behind.
    EXPECT_EQ(q.inFlight("c"), 0u);
}

TEST(AdmissionQueuePolicy, EnforcesPerClientQuota)
{
    AdmissionQueue<int> q(AdmissionConfig{16, 2});
    EXPECT_EQ(q.push(1, Priority::Normal, "a"),
              Admission::Admitted);
    EXPECT_EQ(q.push(2, Priority::Normal, "a"),
              Admission::Admitted);
    EXPECT_EQ(q.push(3, Priority::Normal, "a"),
              Admission::RejectedQuota);
    // Other clients are unaffected.
    EXPECT_EQ(q.push(4, Priority::Normal, "b"),
              Admission::Admitted);
    // Quota covers queued AND executing: popping alone does not
    // release it.
    int out = 0;
    ASSERT_TRUE(q.pop(out));
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(q.push(5, Priority::Normal, "a"),
              Admission::RejectedQuota);
    q.release("a");
    EXPECT_EQ(q.push(6, Priority::Normal, "a"),
              Admission::Admitted);
}

TEST(AdmissionQueuePolicy, ZeroQuotaAlwaysRejects)
{
    AdmissionQueue<int> q(AdmissionConfig{16, 0});
    EXPECT_EQ(q.push(1, Priority::High, "a"),
              Admission::RejectedQuota);
}

TEST(AdmissionQueuePolicy, DrainRejectsNewAndEmptiesOld)
{
    AdmissionQueue<int> q(AdmissionConfig{16, 16});
    ASSERT_EQ(q.push(1, Priority::Normal, "a"),
              Admission::Admitted);
    q.beginDrain();
    EXPECT_EQ(q.push(2, Priority::Normal, "a"),
              Admission::RejectedDraining);
    int out = 0;
    // Admitted work still drains...
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, 1);
    // ...then pop reports the terminal state.
    EXPECT_FALSE(q.pop(out));
    EXPECT_FALSE(q.pop(out));
}

TEST(AdmissionQueuePolicy, PopBlocksUntilPushOrDrain)
{
    AdmissionQueue<int> q(AdmissionConfig{16, 16});
    int out = 0;
    std::thread consumer([&] { EXPECT_TRUE(q.pop(out)); });
    ASSERT_EQ(q.push(7, Priority::Normal, "a"),
              Admission::Admitted);
    consumer.join();
    EXPECT_EQ(out, 7);

    std::thread drainer([&] {
        int v;
        EXPECT_FALSE(q.pop(v));
    });
    q.beginDrain();
    drainer.join();
}

// ---------------------------------------------------------------
// Daemon end to end over a real socket.

TEST(DaemonE2E, PingSubmitHitStats)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("e2e");
    cfg.workers = 2;
    Daemon daemon(cfg);
    daemon.start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);

    const Response pong = client.ping(7);
    EXPECT_EQ(pong.type, "pong");
    EXPECT_EQ(pong.id, 7u);

    const Response first = client.submit(smallRequest(), 1);
    ASSERT_TRUE(first.isResult()) << first.error;
    EXPECT_EQ(first.id, 1u);
    EXPECT_EQ(first.cacheState, "miss");
    EXPECT_EQ(first.key.size(), 32u);
    EXPECT_FALSE(first.resultBytes.empty());

    const Response second = client.submit(smallRequest(), 2);
    ASSERT_TRUE(second.isResult());
    EXPECT_EQ(second.cacheState, "hit");
    EXPECT_EQ(second.key, first.key);
    EXPECT_EQ(second.resultBytes, first.resultBytes);

    const Response stats = client.stats(3);
    EXPECT_EQ(stats.type, "stats");
    EXPECT_EQ(stats.body.at("requests").asUint(), 2u);
    EXPECT_EQ(stats.body.at("served").asUint(), 2u);
    EXPECT_EQ(
        stats.body.at("cache").at("hits").asUint(), 1u);
    EXPECT_EQ(
        stats.body.at("cache").at("misses").asUint(), 1u);

    daemon.stop();
    const auto s = daemon.stats();
    EXPECT_EQ(s.requests, 2u);
    EXPECT_EQ(s.served, 2u);
    EXPECT_EQ(s.cache.hits, 1u);
}

TEST(DaemonE2E, ConcurrentClientsAllServed)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("conc");
    cfg.workers = 4;
    Daemon daemon(cfg);
    daemon.start();

    constexpr unsigned clients = 6;
    constexpr unsigned perClient = 4;
    std::vector<std::thread> threads;
    std::atomic<unsigned> results{0};
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            DaemonClient client;
            client.connectWithRetry(cfg.socketPath);
            for (unsigned r = 0; r < perClient; ++r) {
                JobRequest req =
                    smallRequest(100 + (c * perClient + r) % 5);
                // Appended: GCC 12 -O3 reports a false -Wrestrict on
                // "c" + std::to_string(c) and on assigning "c".
                std::string name(1, 'c');
                name += std::to_string(c);
                req.client = std::move(name);
                const Response resp = client.submit(req, r);
                if (resp.isResult())
                    ++results;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    daemon.stop();
    EXPECT_EQ(results.load(), clients * perClient);
    const auto s = daemon.stats();
    EXPECT_EQ(s.served, clients * perClient);
    // Five distinct seeds, 24 requests: the cache must have fired.
    // Concurrent identical requests can both miss (lookup races the
    // insert), so the exact split is load-dependent — but every
    // request either hit or missed, at least one evaluation ran per
    // seed, and the repeats guarantee hits.
    EXPECT_EQ(s.cache.hits + s.cache.misses,
              std::uint64_t{clients * perClient});
    EXPECT_GE(s.cache.misses, 5u);
    EXPECT_GT(s.cache.hits, 0u);
}

TEST(DaemonE2E, ServedJobsAreNotRetained)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("retain");
    cfg.workers = 2;
    Daemon daemon(cfg);
    daemon.start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);
    constexpr unsigned requests = 6;
    for (unsigned r = 0; r < requests; ++r) {
        // Distinct seeds: every request misses and runs a job.
        const Response resp = client.submit(smallRequest(200 + r), r);
        ASSERT_TRUE(resp.isResult()) << resp.error;
    }
    daemon.stop();
    const auto s = daemon.stats();
    EXPECT_EQ(s.served, requests);
    EXPECT_EQ(s.cache.misses, requests);
}

TEST(DaemonE2E, MalformedAndInvalidFramesGetErrors)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("err");
    cfg.workers = 1;
    Daemon daemon(cfg);
    daemon.start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);

    // Structurally invalid JSON.
    client.sendPayload("{definitely not json");
    const Response err0 = client.readResponse();
    EXPECT_TRUE(err0.isError());

    // Invalid requests are rejected client-side by fromJson; build
    // the frame by hand to prove the daemon rejects them too.
    service::json::Value frame = service::json::Value::object();
    frame.set("type", "submit");
    frame.set("id", std::uint64_t{9});
    service::json::Value job = service::json::Value::object();
    job.set("algorithm", "qaoa");
    job.set("qubits", 5u); // 3-regular MAX-CUT needs even n
    frame.set("job", std::move(job));
    client.sendPayload(frame.dump(0));
    const Response err = client.readResponse();
    EXPECT_TRUE(err.isError());
    EXPECT_EQ(err.id, 9u);

    service::json::Value unknown = service::json::Value::object();
    unknown.set("type", "frobnicate");
    unknown.set("id", std::uint64_t{10});
    client.sendPayload(unknown.dump(0));
    const Response err2 = client.readResponse();
    EXPECT_TRUE(err2.isError());

    // A VQA job on the Clifford-only stabilizer engine.
    service::json::Value stab = service::json::Value::object();
    stab.set("type", "submit");
    stab.set("id", std::uint64_t{12});
    service::json::Value stabJob = service::json::Value::object();
    stabJob.set("algorithm", "qaoa");
    stabJob.set("qubits", 6u);
    stabJob.set("backend", "stabilizer");
    stab.set("job", std::move(stabJob));
    client.sendPayload(stab.dump(0));
    const Response err3 = client.readResponse();
    EXPECT_TRUE(err3.isError());
    EXPECT_EQ(err3.id, 12u);

    // The connection survives errors: a valid submit still works.
    const Response okResp = client.submit(smallRequest(), 11);
    EXPECT_TRUE(okResp.isResult());

    daemon.stop();
    EXPECT_EQ(daemon.stats().errors, 4u);
}

TEST(DaemonE2E, ZeroQuotaRejectsDeterministically)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("quota");
    cfg.workers = 1;
    cfg.perClientQuota = 0;
    Daemon daemon(cfg);
    daemon.start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);
    const Response resp = client.submit(smallRequest(), 1);
    EXPECT_TRUE(resp.isRejected());
    EXPECT_EQ(resp.reason, "quota");
    daemon.stop();
    EXPECT_EQ(daemon.stats().rejectedQuota, 1u);
}

TEST(DaemonE2E, ZeroDepthRejectsQueueFull)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("depth");
    cfg.workers = 1;
    cfg.maxQueueDepth = 0;
    Daemon daemon(cfg);
    daemon.start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);
    const Response resp = client.submit(smallRequest(), 1);
    EXPECT_TRUE(resp.isRejected());
    EXPECT_EQ(resp.reason, "queue_full");
    daemon.stop();
    EXPECT_EQ(daemon.stats().rejectedQueueFull, 1u);
}

TEST(DaemonE2E, CacheHitsBypassAdmission)
{
    // Warm the cache with a normal daemon config, then throttle
    // admission to zero depth: the hit must still be served.
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("bypass");
    cfg.workers = 1;
    Daemon daemon(cfg);
    daemon.start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);
    ASSERT_TRUE(client.submit(smallRequest(), 1).isResult());
    const Response hit = client.submit(smallRequest(), 2);
    ASSERT_TRUE(hit.isResult());
    EXPECT_EQ(hit.cacheState, "hit");
    daemon.stop();
}

TEST(DaemonE2E, GracefulDrainCompletesAdmittedWork)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("drain");
    cfg.workers = 1;
    Daemon daemon(cfg);
    daemon.start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);
    // Pipeline several jobs, then ask for shutdown before reading
    // any response: every admitted job must still complete.
    constexpr unsigned jobs = 3;
    for (unsigned i = 0; i < jobs; ++i)
        client.submitAsync(smallRequest(50 + i), i + 1);

    const Response bye = client.shutdown(99);
    // Responses arrive in completion order; the shutdown ack and
    // the job results interleave, but all must arrive.
    unsigned resultsSeen = bye.isResult() ? 1 : 0;
    unsigned shuttingDown = bye.type == "shutting_down" ? 1 : 0;
    for (unsigned i = 0; i < jobs + 1 - 1; ++i) {
        const Response r = client.readResponse();
        if (r.isResult())
            ++resultsSeen;
        else if (r.type == "shutting_down")
            ++shuttingDown;
    }
    EXPECT_EQ(resultsSeen, jobs);
    EXPECT_EQ(shuttingDown, 1u);

    daemon.join();
    const auto s = daemon.stats();
    EXPECT_TRUE(s.draining);
    EXPECT_EQ(s.served, jobs);
    EXPECT_EQ(s.queueDepth, 0u);

    // New connections are refused after the drain.
    DaemonClient late;
    EXPECT_THROW(late.connect(cfg.socketPath),
                 std::runtime_error);
}

TEST(DaemonE2E, SubmitAfterDrainIsRejectedDraining)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("draining");
    cfg.workers = 1;
    Daemon daemon(cfg);
    daemon.start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);
    // The ping forces the connection out of the accept backlog —
    // drain closes the listen socket, which resets connections the
    // accept loop never picked up.
    EXPECT_EQ(client.ping(0).type, "pong");
    daemon.requestDrain();
    const Response resp = client.submit(smallRequest(77), 1);
    EXPECT_TRUE(resp.isRejected());
    EXPECT_EQ(resp.reason, "draining");
    daemon.join();
    EXPECT_EQ(daemon.stats().rejectedDraining, 1u);
}

TEST(DaemonE2E, JobOverrideTimeoutIsReportedAndNotCached)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("jobtimeout");
    cfg.workers = 1;
    Daemon daemon(cfg);
    daemon.start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);
    JobRequest req = slowRequest();
    req.timeoutMs = 1;
    for (std::uint64_t id = 1; id <= 2; ++id) {
        // A timed-out result is never cached: the repeat runs again.
        const Response resp = client.submit(req, id);
        ASSERT_TRUE(resp.isResult()) << resp.error;
        EXPECT_EQ(resp.cacheState, "miss");
        const auto st = statusOf(resp);
        EXPECT_EQ(st.status, "timed_out");
        EXPECT_EQ(st.timeoutSource, "job-override");
    }
    daemon.stop();
    const auto s = daemon.stats();
    EXPECT_EQ(s.served, 2u);
    EXPECT_EQ(s.cache.inserts, 0u);
    EXPECT_EQ(s.cache.entries, 0u);
}

TEST(DaemonE2E, DefaultTimeoutIsReportedAsSchedulerDefault)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("deftimeout");
    cfg.workers = 1;
    cfg.defaultTimeout = std::chrono::milliseconds(1);
    Daemon daemon(cfg);
    daemon.start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);
    const Response resp = client.submit(slowRequest(), 1);
    ASSERT_TRUE(resp.isResult()) << resp.error;
    const auto st = statusOf(resp);
    EXPECT_EQ(st.status, "timed_out");
    EXPECT_EQ(st.timeoutSource, "scheduler-default");
    daemon.stop();
    EXPECT_EQ(daemon.stats().cache.inserts, 0u);
}

TEST(DaemonE2E, ClosedConnectionsAreReaped)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("reap");
    cfg.workers = 1;
    Daemon daemon(cfg);
    daemon.start();
    const std::size_t baseline = openFds();

    constexpr unsigned cycles = 64;
    for (unsigned i = 0; i < cycles; ++i) {
        DaemonClient client;
        client.connectWithRetry(cfg.socketPath);
        ASSERT_EQ(client.ping(i).type, "pong");
    }
    // Each accept reaps the connections whose readers have returned.
    // A reader may not yet have seen its client's EOF, so retry the
    // live connection until the count settles; a daemon that keeps
    // closed connections never gets there.
    std::size_t live = 0;
    for (unsigned attempt = 0; attempt < 100; ++attempt) {
        DaemonClient client;
        client.connectWithRetry(cfg.socketPath);
        ASSERT_EQ(client.ping(cycles + attempt).type, "pong");
        // The live pair: this client's fd and the daemon's.
        live = openFds();
        if (live <= baseline + 2)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_LE(live, baseline + 2);
    daemon.stop();
    EXPECT_GE(daemon.stats().connections, cycles + 1);
}

TEST(DaemonE2E, RegistryTotalsEqualOwnerCounts)
{
    obs::registry().reset();
    obs::setMetricsEnabled(true);

    DaemonConfig cfg;
    cfg.socketPath = testSocketPath("registry");
    cfg.workers = 1;
    auto daemon = std::make_unique<Daemon>(cfg);
    daemon->start();

    DaemonClient client;
    client.connectWithRetry(cfg.socketPath);
    ASSERT_EQ(client.submit(smallRequest(), 1).cacheState, "miss");
    ASSERT_EQ(client.submit(smallRequest(), 2).cacheState, "hit");
    client.sendPayload("{definitely not json");
    ASSERT_TRUE(client.readResponse().isError());
    const Response frame = client.stats(3);
    daemon->requestDrain();
    ASSERT_TRUE(client.submit(smallRequest(77), 4).isRejected());
    daemon->join();
    const DaemonStats s = daemon->stats();
    daemon.reset();

    const auto c = obs::registry().counterValues();
    obs::setMetricsEnabled(false);
    EXPECT_EQ(c.at("daemon.requests"), s.requests);
    EXPECT_EQ(c.at("daemon.served"), s.served);
    EXPECT_EQ(c.at("daemon.rejected"),
              s.rejectedQueueFull + s.rejectedQuota +
                  s.rejectedDraining);
    EXPECT_EQ(c.at("daemon.rejected"), 1u);
    EXPECT_EQ(c.at("daemon.errors"), s.errors);
    EXPECT_EQ(c.at("daemon.errors"), 1u);
    EXPECT_EQ(c.at("daemon.cache.hits"), s.cache.hits);
    EXPECT_EQ(c.at("daemon.cache.misses"), s.cache.misses);
    EXPECT_EQ(c.at("daemon.cache.inserts"), s.cache.inserts);
    EXPECT_EQ(c.at("daemon.cache.evictions"), s.cache.evictions);
    // The stats frame came after the last compile.
    const auto &cc = frame.body.at("compile_cache");
    EXPECT_EQ(c.at("isa.compile_cache.hits"),
              cc.at("hits").asUint());
    EXPECT_EQ(c.at("isa.compile_cache.misses"),
              cc.at("misses").asUint());
    EXPECT_EQ(c.at("isa.compile_cache.inserts"),
              cc.at("inserts").asUint());
    obs::registry().reset();
}
