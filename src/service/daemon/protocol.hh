/**
 * @file
 * The qtenond wire protocol: length-prefixed JSON frames over a
 * local stream socket.
 *
 * Framing: each message is a 4-byte big-endian payload length
 * followed by that many bytes of UTF-8 JSON (one object per frame).
 * Frames above `maxFrameBytes` are a protocol error — the daemon
 * must never let one client make it allocate unboundedly.
 *
 * Message types (the "type" member of every frame):
 *
 *   client -> daemon
 *     "submit"    one VQA job request (see JobRequest), with a
 *                 client-chosen "id" echoed on every reply
 *     "ping"      liveness probe
 *     "stats"     daemon counters snapshot
 *     "shutdown"  request graceful drain (admin)
 *
 *   daemon -> client
 *     "result"         {"id", "cache": "hit"|"miss", "key": <hex>,
 *                       "result": <job-result object>}
 *     "rejected"       {"id", "reason": "queue_full"|"quota"|
 *                       "draining", "detail"}
 *     "error"          {"id"?, "error"} — malformed request
 *     "pong", "stats", "shutting_down"
 *
 * The "result" member is the deterministic serialization of the
 * JobResult (service::jobResultToJson with wall-clock fields
 * dropped and job id / name normalized to 0 / ""), which is the
 * byte-identity contract of the result cache: a cache hit replays
 * exactly the bytes a recompute would produce.
 */

#ifndef QTENON_SERVICE_DAEMON_PROTOCOL_HH
#define QTENON_SERVICE_DAEMON_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/job.hh"
#include "service/json.hh"

namespace qtenon::service::daemon {

/** Hard cap on one frame's payload (request or response). */
constexpr std::size_t maxFrameBytes = 64u << 20;

/**
 * Write one length-prefixed frame to @p fd. Thread-compatible (the
 * caller serializes writers per fd). Throws std::runtime_error on
 * I/O errors or oversize payloads.
 */
void writeFrame(int fd, const std::string &payload);

/**
 * Read one frame from @p fd into @p out. Returns false on clean EOF
 * at a frame boundary; throws std::runtime_error on I/O errors,
 * truncated frames, or oversize lengths.
 */
bool readFrame(int fd, std::string &out);

/** Submission priority classes, drained high to low. */
enum class Priority : std::uint8_t {
    High,
    Normal,
    Low,
};

const char *priorityName(Priority p);
/** Parse a priority name; throws std::invalid_argument. */
Priority priorityFromName(const std::string &name);

/**
 * One serving request: the declarative description of a VQA
 * evaluation a client submits. This is the unit the result cache
 * keys on — every member that can change the outcome participates
 * in canonicalText(), and the derived JobSpec always runs with the
 * request seed verbatim (deriveSeedFromJobId off), so identical
 * requests are bit-identical no matter which daemon worker count or
 * submission order produced them.
 */
struct JobRequest {
    /** Display name (excluded from the cache key). */
    std::string name = "job";
    /** Client identity for per-client quotas (excluded from key). */
    std::string client;

    /** "qaoa", "vqe", or "qnn". */
    std::string algorithm = "qaoa";
    std::uint32_t qubits = 8;
    /** Ansatz depth override; 0 keeps the paper default. */
    std::uint32_t layers = 0;
    std::uint64_t shots = 500;
    std::uint32_t iterations = 10;
    /** "gd" or "spsa". */
    std::string optimizer = "gd";
    std::uint64_t seed = 7;
    /** Functional engine name as quantum::backendKindFromName reads
     *  it ("auto", "statevector", "sv", ...); not "stabilizer",
     *  which cannot run the workloads' rotations. */
    std::string backend = "auto";
    /** Statevector kernel instruction set ("auto" or "scalar"). */
    std::string svSimd = "auto";
    bool svFusion = false;
    /** Compile + replay with the wave-granular vector ISA
     *  (`--isa-vector`); off keeps the byte-stable scalar path. */
    bool isaVector = false;
    bool exactCost = false;
    /** Readout flip probability, in [0, 0.5]. */
    double readoutError = 0.0;
    /** fault::FaultSpec textual form; empty = perfect links. */
    std::string faultSpec;
    /** Host models to replay on ("rocket", "boom-l"); empty = the
     *  default host only. */
    std::vector<std::string> hosts;
    bool runBaseline = false;
    /** Per-job deadline override in milliseconds (excluded from the
     *  key: it changes whether a result exists, not its content). */
    std::uint64_t timeoutMs = 0;

    /** As the "job" member of a submit frame. */
    json::Value toJson() const;
    /** Parse; throws std::invalid_argument on unknown fields'
     *  values or missing types. */
    static JobRequest fromJson(const json::Value &v);

    /**
     * The content-addressed identity of this request: the canonical
     * circuit IR + parameter table (built deterministically from
     * the workload config), the canonical driver config (backend,
     * seed, SIMD mode, fusion, shots, iterations, optimizer,
     * readout error, ...), the canonical fault spec, and the replay
     * plan. Building the workload is deterministic, so equal
     * requests always canonicalize equally.
     */
    std::string canonicalText() const;

    /** Expand into the JobSpec the scheduler runs. */
    JobSpec toJobSpec() const;
};

/** Build a submit frame around @p req. */
json::Value makeSubmit(const JobRequest &req, std::uint64_t id,
                       Priority priority);

} // namespace qtenon::service::daemon

#endif // QTENON_SERVICE_DAEMON_PROTOCOL_HH
