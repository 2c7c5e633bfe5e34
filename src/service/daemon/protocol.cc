#include "protocol.hh"

#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include <unistd.h>

#include "quantum/backend.hh"
#include "runtime/host_core.hh"
#include "vqa/workload.hh"

namespace qtenon::service::daemon {

namespace {

void
writeAll(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(
                std::string("frame write failed: ") +
                std::strerror(errno));
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
}

/** Read exactly @p len bytes; false on EOF before the first byte. */
bool
readAll(int fd, void *data, std::size_t len)
{
    char *p = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::read(fd, p + got, len - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(
                std::string("frame read failed: ") +
                std::strerror(errno));
        }
        if (n == 0) {
            if (got == 0)
                return false;
            throw std::runtime_error("truncated frame");
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

void
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > maxFrameBytes)
        throw std::runtime_error("frame payload too large");
    const auto len = static_cast<std::uint32_t>(payload.size());
    unsigned char header[4] = {
        static_cast<unsigned char>(len >> 24),
        static_cast<unsigned char>(len >> 16),
        static_cast<unsigned char>(len >> 8),
        static_cast<unsigned char>(len),
    };
    writeAll(fd, header, sizeof(header));
    writeAll(fd, payload.data(), payload.size());
}

bool
readFrame(int fd, std::string &out)
{
    unsigned char header[4];
    if (!readAll(fd, header, sizeof(header)))
        return false;
    const std::uint32_t len = (std::uint32_t{header[0]} << 24) |
        (std::uint32_t{header[1]} << 16) |
        (std::uint32_t{header[2]} << 8) | std::uint32_t{header[3]};
    if (len > maxFrameBytes)
        throw std::runtime_error("oversize frame (" +
                                 std::to_string(len) + " bytes)");
    out.resize(len);
    if (len > 0 && !readAll(fd, out.data(), len))
        return false;
    return true;
}

const char *
priorityName(Priority p)
{
    switch (p) {
    case Priority::High:
        return "high";
    case Priority::Normal:
        return "normal";
    case Priority::Low:
        return "low";
    }
    return "normal";
}

Priority
priorityFromName(const std::string &name)
{
    if (name == "high")
        return Priority::High;
    if (name == "normal" || name.empty())
        return Priority::Normal;
    if (name == "low")
        return Priority::Low;
    throw std::invalid_argument("unknown priority '" + name + "'");
}

namespace {

vqa::Algorithm
algorithmFromName(const std::string &name)
{
    if (name == "qaoa")
        return vqa::Algorithm::Qaoa;
    if (name == "vqe")
        return vqa::Algorithm::Vqe;
    if (name == "qnn")
        return vqa::Algorithm::Qnn;
    throw std::invalid_argument("unknown algorithm '" + name +
                                "' (qaoa|vqe|qnn)");
}

vqa::OptimizerKind
optimizerFromName(const std::string &name)
{
    if (name == "gd")
        return vqa::OptimizerKind::GradientDescent;
    if (name == "spsa")
        return vqa::OptimizerKind::Spsa;
    throw std::invalid_argument("unknown optimizer '" + name +
                                "' (gd|spsa)");
}

runtime::HostCoreModel
hostFromName(const std::string &name)
{
    if (name == "rocket")
        return runtime::HostCoreModel::rocket();
    if (name == "boom-l")
        return runtime::HostCoreModel::boomLarge();
    throw std::invalid_argument("unknown host '" + name +
                                "' (rocket|boom-l)");
}

/** @p v as a 32-bit field; a wider value is rejected, not truncated. */
std::uint32_t
asUint32(const json::Value &v, const char *field)
{
    const std::uint64_t x = v.asUint();
    if (x > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument(std::string(field) +
                                    " exceeds UINT32_MAX");
    return static_cast<std::uint32_t>(x);
}

/**
 * Reject a request the daemon will not serve. The library's name
 * parsers and engine caps apply its own rules (they throw
 * sim::ConfigError); the checks here are the daemon's policy for
 * input from outside the program.
 */
void
validate(const JobRequest &r)
{
    const auto kind = quantum::backendKindFromName(r.backend);
    if (r.qubits < 2 || r.qubits > 1024)
        throw std::invalid_argument("qubits out of range [2, 1024]");
    quantum::resolveBackendKind(kind, r.qubits,
                                quantum::StateVector::defaultMaxQubits);
    // Every daemon workload (qaoa/vqe/qnn) has continuous rotation
    // angles, which the Clifford-only tableau cannot run.
    if (kind == quantum::BackendKind::Stabilizer)
        throw std::invalid_argument(
            "stabilizer backend runs Clifford circuits only; qaoa, "
            "vqe and qnn use continuous rotations");
    if (!quantum::validReadoutError(r.readoutError))
        throw std::invalid_argument(
            "readout_error out of range [0, 0.5]");
    if (r.shots == 0)
        throw std::invalid_argument("shots must be positive");
    if (r.iterations == 0)
        throw std::invalid_argument("iterations must be positive");
    const auto alg = algorithmFromName(r.algorithm);
    if (alg == vqa::Algorithm::Qaoa) {
        // The QAOA workload builds a 3-regular MAX-CUT graph.
        if (r.qubits % 2 != 0 || r.qubits < 4)
            throw std::invalid_argument(
                "qaoa needs an even qubit count >= 4 "
                "(3-regular MAX-CUT graph)");
        if (r.exactCost && r.qubits > 24)
            throw std::invalid_argument(
                "exact MAX-CUT cost is brute-forced and capped "
                "at 24 qubits");
    }
    optimizerFromName(r.optimizer);
    quantum::simdModeFromName(r.svSimd);
    for (const auto &h : r.hosts)
        hostFromName(h);
    if (!r.faultSpec.empty())
        fault::FaultSpec::parse(r.faultSpec);
}

} // namespace

json::Value
JobRequest::toJson() const
{
    json::Value o = json::Value::object();
    o.set("name", name);
    if (!client.empty())
        o.set("client", client);
    o.set("algorithm", algorithm);
    o.set("qubits", qubits);
    if (layers)
        o.set("layers", layers);
    o.set("shots", shots);
    o.set("iterations", iterations);
    o.set("optimizer", optimizer);
    o.set("seed", seed);
    o.set("backend", backend);
    o.set("sv_simd", svSimd);
    if (svFusion)
        o.set("sv_fusion", svFusion);
    if (isaVector)
        o.set("isa_vector", isaVector);
    if (exactCost)
        o.set("exact_cost", exactCost);
    if (readoutError != 0.0)
        o.set("readout_error", readoutError);
    if (!faultSpec.empty())
        o.set("fault_spec", faultSpec);
    if (!hosts.empty()) {
        json::Value hs = json::Value::array();
        for (const auto &h : hosts)
            hs.asArray().emplace_back(h);
        o.set("hosts", std::move(hs));
    }
    if (runBaseline)
        o.set("baseline", runBaseline);
    if (timeoutMs)
        o.set("timeout_ms", timeoutMs);
    return o;
}

JobRequest
JobRequest::fromJson(const json::Value &v)
{
    if (!v.isObject())
        throw std::invalid_argument("job must be an object");
    JobRequest r;
    if (const auto *x = v.find("name"))
        r.name = x->asString();
    if (const auto *x = v.find("client"))
        r.client = x->asString();
    if (const auto *x = v.find("algorithm"))
        r.algorithm = x->asString();
    if (const auto *x = v.find("qubits"))
        r.qubits = asUint32(*x, "qubits");
    if (const auto *x = v.find("layers"))
        r.layers = asUint32(*x, "layers");
    if (const auto *x = v.find("shots"))
        r.shots = x->asUint();
    if (const auto *x = v.find("iterations"))
        r.iterations = asUint32(*x, "iterations");
    if (const auto *x = v.find("optimizer"))
        r.optimizer = x->asString();
    if (const auto *x = v.find("seed"))
        r.seed = x->asUint();
    if (const auto *x = v.find("backend"))
        r.backend = x->asString();
    if (const auto *x = v.find("sv_simd"))
        r.svSimd = x->asString();
    if (const auto *x = v.find("sv_fusion"))
        r.svFusion = x->asBool();
    if (const auto *x = v.find("isa_vector"))
        r.isaVector = x->asBool();
    if (const auto *x = v.find("exact_cost"))
        r.exactCost = x->asBool();
    if (const auto *x = v.find("readout_error"))
        r.readoutError = x->asDouble();
    if (const auto *x = v.find("fault_spec"))
        r.faultSpec = x->asString();
    if (const auto *x = v.find("hosts"))
        for (const auto &h : x->asArray())
            r.hosts.push_back(h.asString());
    if (const auto *x = v.find("baseline"))
        r.runBaseline = x->asBool();
    if (const auto *x = v.find("timeout_ms"))
        r.timeoutMs = x->asUint();
    validate(r);
    return r;
}

JobSpec
JobRequest::toJobSpec() const
{
    validate(*this);
    JobSpec spec;
    spec.name = name;
    spec.workload.algorithm = algorithmFromName(algorithm);
    spec.workload.numQubits = qubits;
    if (layers) {
        spec.workload.qaoaLayers = layers;
        spec.workload.vqeLayers = layers;
        spec.workload.qnnLayers = layers;
    }
    spec.driver.shots = shots;
    spec.driver.iterations = iterations;
    spec.driver.optimizer = optimizerFromName(optimizer);
    spec.driver.seed = seed;
    spec.driver.backend = quantum::backendKindFromName(backend);
    spec.driver.kernel.simd = quantum::simdModeFromName(svSimd);
    spec.driver.kernel.fuse1q = svFusion;
    spec.driver.isaVector = isaVector;
    spec.driver.useExactCost = exactCost;
    spec.driver.readoutError = readoutError;
    spec.driver.recordShotData = false;
    if (!faultSpec.empty())
        spec.faultSpec = fault::FaultSpec::parse(faultSpec);
    for (const auto &h : hosts)
        spec.hosts.push_back(hostFromName(h));
    spec.runBaseline = runBaseline;
    spec.timeout = std::chrono::milliseconds(timeoutMs);
    // The cache-determinism contract: the evaluation seed is the
    // request seed verbatim, never a function of the scheduler's
    // job numbering, so a recompute of the same request is
    // bit-identical on any daemon worker count.
    spec.deriveSeedFromJobId = false;
    return spec;
}

std::string
JobRequest::canonicalText() const
{
    const JobSpec spec = toJobSpec();
    // Building the workload is deterministic in (algorithm, size,
    // layers), so the canonical circuit covers the ansatz shape and
    // the initial parameter table bit-exactly. The algorithm name is
    // still included: the cost function (MAX-CUT vs molecular vs
    // QNN labels) is not part of the circuit IR.
    const auto w = vqa::Workload::build(spec.workload);
    std::string out;
    out += "alg=" + algorithm;
    out += ";q=" + std::to_string(qubits);
    out += ";layers=" + std::to_string(layers);
    out += ";circuit{" + w.circuit.canonicalText() + "}";
    out += ";driver{" + vqa::canonicalText(spec.driver) + "}";
    out += ";fault{" + spec.faultSpec.toString() + "}";
    out += ";hosts=[";
    for (std::size_t i = 0; i < hosts.size(); ++i) {
        if (i)
            out.push_back(',');
        out += hosts[i];
    }
    out += "];baseline=" + std::to_string(runBaseline ? 1 : 0);
    return out;
}

json::Value
makeSubmit(const JobRequest &req, std::uint64_t id,
           Priority priority)
{
    json::Value o = json::Value::object();
    o.set("type", "submit");
    o.set("id", id);
    o.set("priority", priorityName(priority));
    o.set("job", req.toJson());
    return o;
}

} // namespace qtenon::service::daemon
