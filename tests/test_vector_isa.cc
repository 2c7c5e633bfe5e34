/**
 * @file
 * The wave-granular vector ISA (q_update.v / q_gen.v) and the typed
 * InstrBuilder surface: exhaustive mask/stride operand round-trips,
 * builder-vs-raw-field byte identity, scalar-lowering byte stability
 * over the fig11/fig12/fig17 workload corpus when --isa-vector is
 * off, cache-key stability, and the QEC feed-forward harness's
 * vector-on/off functional equivalence and worker-count determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/hash.hh"
#include "isa/assembler.hh"
#include "isa/compiler.hh"
#include "qec/feed_forward.hh"
#include "service/batch_scheduler.hh"
#include "service/daemon/protocol.hh"
#include "service/json.hh"
#include "vqa/driver.hh"
#include "vqa/workload.hh"

using namespace qtenon;
using namespace qtenon::isa;

// ---------------------------------------------------------------
// Vector operand encodings: {count, stride, base} in q_update.v rs1
// and the q_gen.v lane mask.

TEST(VectorEncoding, StrideCountRoundTripExhaustive)
{
    // Every legal stride against every legal count; the base varies
    // deterministically so all three fields are exercised together.
    for (std::uint32_t stride = 1; stride <= vecMaxStride; ++stride) {
        for (std::uint32_t count = 1; count <= vecMaxCount;
             count += 97) {
            const std::uint64_t base =
                (std::uint64_t(stride) * 0x9e3779b9ull + count) &
                ((std::uint64_t(1) << qaddrFieldBits) - 1);
            const auto rs1 = packVecStride(base, stride, count);
            ASSERT_EQ(vecBaseOf(rs1), base);
            ASSERT_EQ(vecStrideOf(rs1), stride);
            ASSERT_EQ(vecCountOf(rs1), count);
        }
    }
    // The exact field-limit corners.
    const std::uint64_t base_max =
        (std::uint64_t(1) << qaddrFieldBits) - 1;
    const auto rs1 =
        packVecStride(base_max, vecMaxStride, vecMaxCount);
    EXPECT_EQ(vecBaseOf(rs1), base_max);
    EXPECT_EQ(vecStrideOf(rs1), vecMaxStride);
    EXPECT_EQ(vecCountOf(rs1), vecMaxCount);
}

TEST(VectorEncoding, WaveMaskExhaustive)
{
    for (std::uint32_t first = 0; first < vecMaxLanes; ++first) {
        for (std::uint32_t count = 1; count <= vecMaxLanes - first;
             ++count) {
            const auto mask = waveMask(first, count);
            ASSERT_EQ(std::popcount(mask), static_cast<int>(count));
            for (std::uint32_t lane = 0; lane < vecMaxLanes;
                 ++lane) {
                const bool set = (mask >> lane) & 1;
                ASSERT_EQ(set,
                          lane >= first && lane < first + count);
            }
        }
    }
    EXPECT_EQ(waveMask(0, vecMaxLanes), ~std::uint64_t(0));
}

TEST(VectorEncoding, VectorOpcodesRoundTripThroughRocc)
{
    EXPECT_EQ(opcodeName(Opcode::QUpdateV), "q_update.v");
    EXPECT_EQ(opcodeName(Opcode::QGenV), "q_gen.v");
    for (auto op : {Opcode::QUpdateV, Opcode::QGenV}) {
        RoccInstruction in;
        in.funct7 = op;
        in.rs1 = 10;
        in.rs2 = 11;
        in.xs1 = true;
        in.xs2 = true;
        const auto out = RoccInstruction::decode(in.encode());
        EXPECT_EQ(out, in);
    }
    // The vector funct7 values are disjoint from the scalar five.
    for (auto scalar :
         {Opcode::QUpdate, Opcode::QSet, Opcode::QAcquire,
          Opcode::QGen, Opcode::QRun}) {
        EXPECT_NE(scalar, Opcode::QUpdateV);
        EXPECT_NE(scalar, Opcode::QGenV);
    }
}

// ---------------------------------------------------------------
// InstrBuilder: the typed surface must reproduce the raw-field
// construction it replaced, byte for byte.

namespace {

/** The legacy raw-field emit (what makeOp used to hand-assemble). */
AssembledOp
legacyOp(Opcode op, std::uint64_t rs1, std::uint64_t rs2,
         bool uses_rs1, bool uses_rs2)
{
    const AssemblerAbi abi;
    AssembledOp a;
    a.instruction.funct7 = op;
    a.instruction.rs1 = uses_rs1 ? abi.addrReg : 0;
    a.instruction.rs2 = uses_rs2 ? abi.lenReg : 0;
    a.instruction.xs1 = uses_rs1;
    a.instruction.xs2 = uses_rs2;
    a.rs1Value = rs1;
    a.rs2Value = rs2;
    return a;
}

void
expectSameOp(const AssembledOp &got, const AssembledOp &want)
{
    EXPECT_EQ(got.instruction.encode(), want.instruction.encode());
    EXPECT_EQ(got.rs1Value, want.rs1Value);
    EXPECT_EQ(got.rs2Value, want.rs2Value);
}

} // namespace

TEST(InstrBuilderTyped, ScalarFormsMatchLegacyRawFields)
{
    const InstrBuilder b;
    expectSameOp(b.qUpdate(QAddr(0x123), 0x4567u),
                 legacyOp(Opcode::QUpdate, 0x123, 0x4567, true,
                          true));
    expectSameOp(b.qSet(CAddr(0x10000), 125, QAddr(0x80)),
                 legacyOp(Opcode::QSet, 0x10000,
                          packLengthQaddr(125, 0x80), true, true));
    expectSameOp(b.qAcquire(CAddr(0x20000), 64, QAddr(0x40)),
                 legacyOp(Opcode::QAcquire, 0x20000,
                          packLengthQaddr(64, 0x40), true, true));
    expectSameOp(b.qGen(),
                 legacyOp(Opcode::QGen, 0, 0, false, false));
    expectSameOp(b.qRun(500),
                 legacyOp(Opcode::QRun, 500, 0, true, false));
}

TEST(InstrBuilderTyped, VectorFormsPackOperands)
{
    const InstrBuilder b;
    const auto upd = b.qUpdateV(QAddr(0x200), 2, 17, CAddr(0x3000));
    EXPECT_EQ(upd.instruction.funct7, Opcode::QUpdateV);
    EXPECT_EQ(vecBaseOf(upd.rs1Value), 0x200u);
    EXPECT_EQ(vecStrideOf(upd.rs1Value), 2u);
    EXPECT_EQ(vecCountOf(upd.rs1Value), 17u);
    EXPECT_EQ(upd.rs2Value, 0x3000u);

    const auto gen = b.qGenV(64, WaveMask::span(0, 10));
    EXPECT_EQ(gen.instruction.funct7, Opcode::QGenV);
    EXPECT_EQ(gen.rs1Value, 64u);
    EXPECT_EQ(gen.rs2Value, waveMask(0, 10));
}

TEST(InstrBuilderTypedDeathTest, RejectsOutOfRangeWaves)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const InstrBuilder b;
    EXPECT_DEATH((void)b.qUpdateV(QAddr(0), 0, 1, CAddr(0)),
                 "stride");
    EXPECT_DEATH((void)b.qUpdateV(QAddr(0), 1, 0, CAddr(0)),
                 "count");
    EXPECT_DEATH(
        (void)b.qUpdateV(QAddr(std::uint64_t(1) << qaddrFieldBits),
                         1, 1, CAddr(0)),
        "exceeds");
    EXPECT_DEATH((void)b.qGenV(0, WaveMask(0)), "empty lane mask");
}

// ---------------------------------------------------------------
// Scalar lowering stays byte-stable over the figure corpus when the
// vector flag is off, and the vector pass only annotates.

namespace {

/** Content fingerprint of everything q_set ships (the .program
 *  image), including the wave annotations. */
std::uint64_t
imageFingerprint(const ProgramImage &img)
{
    core::Fnv1a h;
    h.update(std::uint64_t{img.numQubits});
    for (const auto &qubit : img.perQubit) {
        h.update(std::uint64_t{qubit.size()});
        for (const auto &e : qubit) {
            std::uint64_t lo = 0, hi = 0;
            e.pack(lo, hi);
            h.update(lo);
            h.update(hi);
        }
    }
    for (auto r : img.paramToReg)
        h.update(std::uint64_t{r});
    for (auto v : img.regfileInit)
        h.update(std::uint64_t{v});
    for (const auto &l : img.links) {
        h.update(std::uint64_t{l.reg});
        h.update(std::uint64_t{l.qubit});
        h.update(std::uint64_t{l.entry});
    }
    for (const auto &w : img.updateWaves) {
        h.update(std::uint64_t{w.baseReg});
        h.update(std::uint64_t{w.stride});
        h.update(std::uint64_t{w.count});
    }
    for (const auto &w : img.genWaves) {
        h.update(std::uint64_t{w.baseQubit});
        h.update(w.laneMask);
    }
    return h.digest();
}

/** The fig11/fig12/fig17 workload corpus (GD + SPSA speedup runs
 *  and the scalability sweep all lower these circuit shapes). */
std::vector<vqa::WorkloadConfig>
figCorpus()
{
    std::vector<vqa::WorkloadConfig> corpus;
    for (auto alg :
         {vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe,
          vqa::Algorithm::Qnn}) {
        for (std::uint32_t n : {8u, 16u}) {
            vqa::WorkloadConfig w;
            w.algorithm = alg;
            w.numQubits = n;
            corpus.push_back(w);
        }
    }
    vqa::WorkloadConfig big; // fig17's scalability shape
    big.numQubits = 64;
    corpus.push_back(big);
    return corpus;
}

} // namespace

TEST(ScalarLowering, FigCorpusImagesByteStableUnderVectorFlag)
{
    for (const auto &wcfg : figCorpus()) {
        const auto workload = vqa::Workload::build(wcfg);

        QtenonCompiler scalar_comp;
        PipelineConfig off;
        off.vectorIsa = false;
        QtenonCompiler off_comp(CompilerCostModel{}, off);
        PipelineConfig on;
        on.vectorIsa = true;
        QtenonCompiler on_comp(CompilerCostModel{}, on);

        const auto base = scalar_comp.compile(workload.circuit);
        const auto off_img = off_comp.compile(workload.circuit);
        const auto on_img = on_comp.compile(workload.circuit);

        // Off == default, byte for byte, and carries no waves.
        EXPECT_FALSE(base.hasWaves()) << workload.name;
        EXPECT_FALSE(off_img.hasWaves()) << workload.name;
        EXPECT_EQ(imageFingerprint(off_img), imageFingerprint(base))
            << workload.name;

        // On: every non-wave field identical; waves only annotate.
        auto stripped = on_img;
        stripped.updateWaves.clear();
        stripped.genWaves.clear();
        EXPECT_EQ(imageFingerprint(stripped),
                  imageFingerprint(base))
            << workload.name;
        ASSERT_TRUE(on_img.hasWaves()) << workload.name;

        // Wave formation rules: stride-1 waves of <= 64 lanes
        // covering every regfile slot exactly once; 64-lane qubit
        // waves covering every qubit exactly once.
        std::vector<bool> covered(on_img.regfileInit.size(), false);
        for (const auto &w : on_img.updateWaves) {
            EXPECT_EQ(w.stride, 1u);
            EXPECT_GE(w.count, 1u);
            EXPECT_LE(w.count, vecMaxLanes);
            for (std::uint32_t i = 0; i < w.count; ++i) {
                ASSERT_LT(w.baseReg + i, covered.size());
                EXPECT_FALSE(covered[w.baseReg + i]);
                covered[w.baseReg + i] = true;
            }
        }
        EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                                [](bool b) { return b; }));
        std::uint64_t lanes = 0;
        for (const auto &w : on_img.genWaves) {
            EXPECT_EQ(w.baseQubit % vecMaxLanes, 0u);
            lanes += std::popcount(w.laneMask);
        }
        EXPECT_EQ(lanes, on_img.numQubits);
    }
}

TEST(ScalarLowering, FigCorpusStreamsMatchRawReference)
{
    const memory::QccLayout layout;
    const QtenonAssembler assembler(layout);
    for (const auto &wcfg : figCorpus()) {
        const auto workload = vqa::Workload::build(wcfg);
        QtenonCompiler comp;
        const auto image = comp.compile(workload.circuit);

        // The install stream against a raw-field reference emit.
        const auto install =
            assembler.assembleInstall(image, 0x10000);
        std::vector<AssembledOp> want;
        for (std::uint32_t r = 0; r < image.regfileInit.size(); ++r)
            want.push_back(legacyOp(Opcode::QUpdate,
                                    layout.regfileAddr(r),
                                    image.regfileInit[r], true,
                                    true));
        std::uint64_t host = 0x10000;
        for (std::uint32_t q = 0; q < image.numQubits; ++q) {
            want.push_back(legacyOp(
                Opcode::QSet, host,
                packLengthQaddr(image.perQubit[q].size(),
                                layout.programAddr(q, 0)),
                true, true));
            host += image.perQubit[q].size() * 12;
        }
        want.push_back(legacyOp(Opcode::QGen, 0, 0, false, false));
        ASSERT_EQ(install.size(), want.size()) << workload.name;
        for (std::size_t i = 0; i < want.size(); ++i)
            expectSameOp(install.ops[i], want[i]);

        // One round against the reference emit.
        const UpdatePlan plan{{0, 111}, {1, 222}};
        const auto round =
            assembler.assembleRound(plan, 500, 0x20000, 125);
        ASSERT_EQ(round.size(), plan.size() + 3);
        for (std::size_t i = 0; i < plan.size(); ++i)
            expectSameOp(round.ops[i],
                         legacyOp(Opcode::QUpdate,
                                  layout.regfileAddr(plan[i].first),
                                  plan[i].second, true, true));
        expectSameOp(round.ops[plan.size()],
                     legacyOp(Opcode::QGen, 0, 0, false, false));
        expectSameOp(round.ops[plan.size() + 1],
                     legacyOp(Opcode::QRun, 500, 0, true, false));
        expectSameOp(round.ops[plan.size() + 2],
                     legacyOp(Opcode::QAcquire, 0x20000,
                              packLengthQaddr(125,
                                              layout.measureAddr(0)),
                              true, true));
    }
}

TEST(VectorLowering, RoundStreamCollapsesToWaves)
{
    const memory::QccLayout layout;
    const QtenonAssembler assembler(layout);
    vqa::WorkloadConfig wcfg;
    wcfg.numQubits = 16;
    const auto workload = vqa::Workload::build(wcfg);
    PipelineConfig on;
    on.vectorIsa = true;
    QtenonCompiler comp(CompilerCostModel{}, on);
    const auto image = comp.compile(workload.circuit);
    ASSERT_TRUE(image.hasWaves());
    ASSERT_GE(image.regfileInit.size(), 4u);

    UpdatePlan plan;
    for (std::uint32_t r = 0; r < 4; ++r)
        plan.push_back({r, 100 + r});
    const auto vec =
        assembler.assembleRoundVector(image, plan, 500, 0x20000, 125);
    const auto scalar =
        assembler.assembleRound(plan, 500, 0x20000, 125);

    // All four updates fall in the first 64-slot wave: one
    // q_update.v instead of four q_updates.
    EXPECT_EQ(vec.count(Opcode::QUpdateV), 1u);
    EXPECT_EQ(vec.count(Opcode::QUpdate), 0u);
    EXPECT_EQ(vec.count(Opcode::QGenV), image.genWaves.size());
    EXPECT_EQ(vec.count(Opcode::QGen), 0u);
    EXPECT_EQ(vec.count(Opcode::QRun), 1u);
    EXPECT_EQ(vec.count(Opcode::QAcquire), 1u);
    EXPECT_LT(vec.size(), scalar.size());

    // The wave descriptor spans exactly the touched slots.
    const auto &upd = vec.ops[0];
    EXPECT_EQ(vecBaseOf(upd.rs1Value), layout.regfileAddr(0));
    EXPECT_EQ(vecStrideOf(upd.rs1Value), 1u);
    EXPECT_EQ(vecCountOf(upd.rs1Value), 4u);

    // Waveless images fall back to the scalar stream byte for byte.
    QtenonCompiler scalar_comp;
    const auto scalar_img = scalar_comp.compile(workload.circuit);
    const auto fallback = assembler.assembleRoundVector(
        scalar_img, plan, 500, 0x20000, 125);
    ASSERT_EQ(fallback.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        expectSameOp(fallback.ops[i], scalar.ops[i]);
}

// ---------------------------------------------------------------
// Cache keys: the vector flag folds into every key only when set,
// so historical scalar keys survive the redesign.

TEST(CacheKeyStability, VectorFlagAppendsOnlyWhenOn)
{
    PipelineConfig off;
    off.vectorIsa = false;
    PipelineConfig on;
    on.vectorIsa = true;
    EXPECT_EQ(off.canonicalText(),
              PipelineConfig{}.canonicalText());
    EXPECT_EQ(off.canonicalText().find("vector"),
              std::string::npos);
    EXPECT_NE(on.canonicalText().find(";vector=1"),
              std::string::npos);
    EXPECT_NE(off.canonicalText(), on.canonicalText());

    vqa::DriverConfig doff;
    vqa::DriverConfig don;
    don.isaVector = true;
    EXPECT_EQ(vqa::canonicalText(doff).find("vector"),
              std::string::npos);
    EXPECT_NE(vqa::canonicalText(don).find(";vector=1"),
              std::string::npos);
    EXPECT_NE(vqa::canonicalText(doff), vqa::canonicalText(don));
}

TEST(CacheKeyStability, DaemonRequestRoundTripsVectorFlag)
{
    service::daemon::JobRequest req;
    req.name = "vector-job";
    // Off: the field is absent from the wire form (historical
    // clients and cached keys are untouched).
    const auto off_json = req.toJson().dump();
    EXPECT_EQ(off_json.find("isa_vector"), std::string::npos);
    const auto off_rt = service::daemon::JobRequest::fromJson(
        service::json::Value::parse(off_json));
    EXPECT_FALSE(off_rt.isaVector);

    req.isaVector = true;
    const auto on_json = req.toJson().dump();
    EXPECT_NE(on_json.find("isa_vector"), std::string::npos);
    const auto on_rt = service::daemon::JobRequest::fromJson(
        service::json::Value::parse(on_json));
    EXPECT_TRUE(on_rt.isaVector);
    EXPECT_TRUE(on_rt.toJobSpec().driver.isaVector);
}

// ---------------------------------------------------------------
// The QEC feed-forward harness: the vector ISA is a transport
// change, never a functional one, and the whole workload is
// deterministic at any worker count.

namespace {

qec::FeedForwardConfig
smallQec(bool vector, std::uint64_t seed = 7)
{
    qec::FeedForwardConfig cfg;
    cfg.distance = 5;
    cfg.rounds = 8;
    cfg.dataErrorRate = 0.2; // dense corrections in few rounds
    cfg.vectorIsa = vector;
    cfg.seed = seed;
    return cfg;
}

} // namespace

TEST(FeedForward, MeasurementsInvariantUnderVectorIsa)
{
    const auto scalar = qec::FeedForwardHarness(smallQec(false)).run();
    const auto vector = qec::FeedForwardHarness(smallQec(true)).run();

    // Identical functional trace: same injected errors, same decoded
    // corrections round by round, same logical readout.
    ASSERT_EQ(scalar.rounds.size(), vector.rounds.size());
    for (std::size_t i = 0; i < scalar.rounds.size(); ++i) {
        EXPECT_EQ(scalar.rounds[i].injectedErrors,
                  vector.rounds[i].injectedErrors);
        EXPECT_EQ(scalar.rounds[i].corrections,
                  vector.rounds[i].corrections);
    }
    EXPECT_EQ(scalar.injectedErrors, vector.injectedErrors);
    EXPECT_EQ(scalar.correctionsApplied, vector.correctionsApplied);
    EXPECT_EQ(scalar.logicalValue, vector.logicalValue);
    EXPECT_GT(scalar.correctionsApplied, 0u);

    // The transport difference is real: fewer RoCC instructions,
    // packed elements only on the vector path.
    EXPECT_LT(vector.roccTransfers, scalar.roccTransfers);
    EXPECT_GT(vector.roccVectorElements, 0u);
    EXPECT_EQ(scalar.roccVectorElements, 0u);
}

namespace {

/** Per-round tight-path latencies and the RoCC counters of a run. */
struct TightPath {
    std::vector<std::uint64_t> tightNs;
    std::uint64_t roccTransfers = 0;
    std::uint64_t roccVectorElements = 0;

    bool operator==(const TightPath &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const TightPath &t)
{
    os << "{{";
    for (std::size_t i = 0; i < t.tightNs.size(); ++i)
        os << (i ? ", " : "") << t.tightNs[i];
    return os << "}, " << t.roccTransfers << ", "
              << t.roccVectorElements << "}";
}

TightPath
tightPath(const qec::FeedForwardConfig &cfg)
{
    const auto res = qec::FeedForwardHarness(cfg).run();
    TightPath t;
    for (const auto &r : res.rounds)
        t.tightNs.push_back(r.tightNs);
    t.roccTransfers = res.roccTransfers;
    t.roccVectorElements = res.roccVectorElements;
    return t;
}

} // namespace

TEST(FeedForward, TightPathGolden)
{
    // The corrections' delivery pinned tick for tick: scalar
    // q_update, and q_update.v, on a distance-5 code (one wave) and a
    // distance-70 code (70 correction slots, so two waves).
    const TightPath scalar{
        {1460, 1356, 291, 291, 1358, 295, 295, 1356}, 13, 0};
    const TightPath vector{
        {1461, 1357, 291, 291, 1358, 296, 296, 1357}, 7, 14};
    EXPECT_EQ(tightPath(smallQec(false)), scalar);
    EXPECT_EQ(tightPath(smallQec(true)), vector);

    const TightPath wide_scalar{
        {4566, 4574, 4448, 4262, 4324, 4389, 4512, 4452}, 106, 0};
    const TightPath wide_vector{
        {4579, 4592, 4475, 4263, 4326, 4406, 4536, 4480}, 11, 380};
    auto wide = smallQec(false);
    wide.distance = 70;
    wide.dataErrorRate = 0.05;
    EXPECT_EQ(tightPath(wide), wide_scalar);
    wide.vectorIsa = true;
    EXPECT_EQ(tightPath(wide), wide_vector);
}

TEST(FeedForward, VqaReplayDistributionInvariantUnderVectorIsa)
{
    // The same property on the VQA sampling path: the measurement
    // distribution (and so every sampled cost) is untouched by the
    // vector lowering.
    vqa::WorkloadConfig wcfg;
    wcfg.numQubits = 8;
    auto run = [&](bool vec) {
        auto workload = vqa::Workload::build(wcfg);
        vqa::DriverConfig dcfg;
        dcfg.iterations = 4;
        dcfg.shots = 200;
        dcfg.isaVector = vec;
        vqa::VqaDriver driver(dcfg);
        return driver.run(workload).costHistory;
    };
    const auto scalar = run(false);
    const auto vector = run(true);
    ASSERT_FALSE(scalar.empty());
    EXPECT_EQ(scalar, vector);
}

namespace {

std::map<std::string, double>
qecJobMetrics(unsigned workers)
{
    std::vector<service::JobSpec> jobs;
    for (bool vec : {false, true}) {
        for (std::uint64_t seed : {7ull, 8ull}) {
            service::JobSpec spec;
            spec.name = std::string(vec ? "vec" : "sca") + "-" +
                std::to_string(seed);
            spec.deriveSeedFromJobId = false;
            spec.custom = [vec, seed](service::JobContext &ctx) {
                (void)ctx.seed;
                const auto res =
                    qec::FeedForwardHarness(smallQec(vec, seed))
                        .run();
                auto &m = ctx.result.metrics;
                m["tight_misses"] =
                    static_cast<double>(res.tightMisses);
                m["decoupled_misses"] =
                    static_cast<double>(res.decoupledMisses);
                m["rocc"] =
                    static_cast<double>(res.roccTransfers);
                m["vec_elems"] =
                    static_cast<double>(res.roccVectorElements);
                m["corrections"] =
                    static_cast<double>(res.correctionsApplied);
                for (std::size_t i = 0; i < res.rounds.size(); ++i) {
                    const auto n = std::to_string(i);
                    m[std::string("t") + n] = static_cast<double>(
                        res.rounds[i].tightNs);
                    m[std::string("d") + n] = static_cast<double>(
                        res.rounds[i].decoupledNs);
                }
            };
            jobs.push_back(std::move(spec));
        }
    }
    service::SchedulerConfig cfg;
    cfg.workers = workers;
    service::BatchScheduler sched(cfg);
    const auto handles = sched.submitAll(std::move(jobs));
    auto &store = sched.wait();
    std::map<std::string, double> merged;
    for (std::size_t i = 0; i < handles.size(); ++i) {
        const auto r = store.get(handles[i].id);
        EXPECT_EQ(r.status, service::JobStatus::Ok) << r.error;
        for (const auto &kv : r.metrics)
            merged["job" + std::to_string(i) + "." + kv.first] =
                kv.second;
    }
    return merged;
}

} // namespace

TEST(FeedForward, DeadlineMissesDeterministicAcrossWorkers)
{
    const auto serial = qecJobMetrics(1);
    const auto parallel = qecJobMetrics(8);
    EXPECT_EQ(serial, parallel);
    EXPECT_FALSE(serial.empty());
}
