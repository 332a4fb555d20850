/** @file Determinism tests for the parallel Monte-Carlo engine: results
 *  must be bitwise identical regardless of the worker count, because runs
 *  and reads land in indexed slots, reductions happen in index order, and
 *  conversion noise comes from per-read streams (VmmBackend::beginRead)
 *  rather than a shared mutable generator. */

#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "basecall/basecaller.h"
#include "basecall/bonito_lite.h"
#include "core/evaluator.h"
#include "core/nonideality.h"
#include "core/vmm_backend.h"
#include "genomics/dataset.h"
#include "tensor/kernels.h"
#include "tensor/quantize.h"
#include "tensor/simd.h"
#include "util/fault.h"
#include "util/thread_pool.h"

#include "test_util.h"

using namespace swordfish;
using namespace swordfish::core;

namespace {

/** Exact bit pattern of a double, for bitwise (not just ==) comparison. */
std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

void
expectBitwiseEqual(const AccuracySummary& a, const AccuracySummary& b)
{
    EXPECT_EQ(bits(a.mean), bits(b.mean));
    EXPECT_EQ(bits(a.stddev), bits(b.stddev));
    EXPECT_EQ(bits(a.min), bits(b.min));
    EXPECT_EQ(bits(a.max), bits(b.max));
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.degraded.okReads, b.degraded.okReads);
    EXPECT_EQ(a.degraded.retriedReads, b.degraded.retriedReads);
    EXPECT_EQ(a.degraded.decodeErrors, b.degraded.decodeErrors);
    EXPECT_EQ(a.degraded.nanOutputs, b.degraded.nanOutputs);
    EXPECT_EQ(a.degraded.vmmFaults, b.degraded.vmmFaults);
}

/** Small untrained model + datasets (accuracy values are irrelevant here;
 *  only their exact reproducibility matters). */
struct Fixture
{
    static Fixture&
    get()
    {
        static Fixture f;
        return f;
    }

    nn::SequenceModel model;
    genomics::Dataset dataset;
    genomics::Dataset dataset5; ///< 5 reads, for ragged batch grids
    genomics::Dataset dataset8; ///< 8 reads, one sweep-sized daemon job

  private:
    Fixture()
    {
        basecall::BonitoLiteConfig cfg;
        cfg.convChannels = 8;
        cfg.lstmHidden = 8;
        cfg.lstmLayers = 1;
        model = basecall::buildBonitoLite(cfg);
        const genomics::PoreModel pore;
        dataset = genomics::makeDataset(genomics::specById("D1"), pore, 3);
        dataset5 = genomics::makeDataset(genomics::specById("D2"), pore, 5);
        dataset8 = genomics::makeDataset(genomics::specById("D1"), pore, 8);
    }
};

AccuracySummary
evalWithThreads(std::size_t threads, NonIdealityKind kind)
{
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(threads);
    NonIdealityConfig scenario;
    scenario.kind = kind;
    scenario.crossbar.size = 64;
    SramRemapConfig remap;
    remap.fraction = 0.05;
    return evaluateNonIdealAccuracy(
        f.model, {scenario, remap},
        EvalOptions(f.dataset).runs(3).maxReads(3).seedBase(7));
}

/**
 * Full-request evaluation over the 5-read dataset: batch x threads x runs.
 * With two runs and two or more threads every run lands on a pool worker
 * and basecalls its reads there in groups of `batch`; one run stays on the
 * calling thread, which slices the 5 reads across the workers first (at 4
 * threads 2/1/1/1, the 1-read slices taking the serial path).
 */
AccuracySummary
evalBatched(std::size_t threads, std::size_t batch, NonIdealityKind kind,
            std::size_t runs = 2,
            const FaultConfig& faults = envFaultConfig())
{
    Fixture& f = Fixture::get();
    NonIdealityConfig scenario;
    scenario.kind = kind;
    scenario.crossbar.size = 64;
    SramRemapConfig remap;
    remap.fraction = 0.05;
    return evaluateNonIdealAccuracy(
        f.model, {scenario, remap},
        EvalOptions(f.dataset5).runs(runs).maxReads(5).seedBase(7)
            .batch(batch).threads(threads).faults(faults));
}

/** Full composition of the four extended noise sources plus K=2 layer
 *  ensemble averaging, over the 5-read dataset. */
AccuracySummary
evalComposedEnsemble(std::size_t threads, std::size_t batch,
                     std::size_t runs)
{
    Fixture& f = Fixture::get();
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    scenario.noise = "rtn.amp=0.05,rtn.dwell_up=3,rtn.dwell_down=2,"
                     "disturb.rate=0.02,disturb.reads=1000,"
                     "tdrift.t=350,tdrift.ea=0.2,tdrift.hours=10,"
                     "tdrift.nu=0.05,tdrift.nu_sigma=0.01,"
                     "cwrite.sigma=0.1,cwrite.len=4";
    SramRemapConfig remap;
    remap.fraction = 0.05;
    return evaluateNonIdealAccuracy(
        f.model, {scenario, remap},
        EvalOptions(f.dataset5).runs(runs).maxReads(5).seedBase(7)
            .batch(batch).threads(threads).ensembleK(2));
}

/**
 * Forwards every call to an inner backend and records the widest lane
 * group a matmulBatched() call carried, the way the benchmark's traced
 * replay wraps the backend it times.
 */
class LaneWidthRecorder : public nn::VmmBackend
{
  public:
    explicit LaneWidthRecorder(nn::VmmBackend& inner) : inner_(inner) {}

    std::size_t widest() const { return widest_.load(); }

    void
    matmul(const std::string& name, const Matrix& w, const Matrix& x,
           Matrix& y) override
    {
        inner_.matmul(name, w, x, y);
    }

    void
    matmulBatched(const std::string& name, const Matrix& w, const Matrix& x,
                  Matrix& y, const nn::BatchLayout& layout) override
    {
        std::size_t seen = widest_.load();
        while (layout.size() > seen
               && !widest_.compare_exchange_weak(seen, layout.size())) {
        }
        inner_.matmulBatched(name, w, x, y, layout);
    }

    void onActivations(Matrix& m) override { inner_.onActivations(m); }

    void
    onActivationsRows(Matrix& m, std::size_t row_begin,
                      std::size_t row_end) override
    {
        inner_.onActivationsRows(m, row_begin, row_end);
    }

    void beginRead(std::uint64_t stream) override { inner_.beginRead(stream); }

    void
    beginBatch(const std::vector<std::uint64_t>& streams) override
    {
        inner_.beginBatch(streams);
    }

    void endBatch() override { inner_.endBatch(); }

    void
    selectBatchLane(std::size_t lane) override
    {
        inner_.selectBatchLane(lane);
    }

    void
    prepareWeight(const std::string& name, const Matrix& w) override
    {
        inner_.prepareWeight(name, w);
    }

  private:
    nn::VmmBackend& inner_;
    std::atomic<std::size_t> widest_{0};
};

/** Bitwise equality of two single-run accuracy results. */
void
expectSameResult(const basecall::AccuracyResult& a,
                 const basecall::AccuracyResult& b)
{
    EXPECT_EQ(bits(a.meanIdentity), bits(b.meanIdentity));
    EXPECT_EQ(bits(a.minIdentity), bits(b.minIdentity));
    EXPECT_EQ(a.readsEvaluated, b.readsEvaluated);
    EXPECT_EQ(a.basesCalled, b.basesCalled);
    EXPECT_EQ(a.completedReads, b.completedReads);
    EXPECT_EQ(a.interrupted, b.interrupted);
}

/** The 8 reads at batch 8 on a freshly programmed Combined 64x64 chip
 *  and a pool of `threads` workers, called from this (non-pool) thread. */
basecall::AccuracyResult
evalEightReads(std::size_t threads, EvalOptions opts)
{
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(threads);
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    CrossbarVmmBackend backend(scenario, 17);
    f.model.setBackend(&backend);
    const auto result = basecall::evaluateAccuracy(
        f.model, opts.maxReads(8).batch(8));
    f.model.setBackend(nullptr);
    return result;
}

} // namespace

TEST(Determinism, NonIdealAccuracyIndependentOfThreadCount)
{
    const AccuracySummary t1 =
        evalWithThreads(1, NonIdealityKind::Combined);
    const AccuracySummary t2 =
        evalWithThreads(2, NonIdealityKind::Combined);
    const AccuracySummary t4 =
        evalWithThreads(4, NonIdealityKind::Combined);
    expectBitwiseEqual(t1, t2);
    expectBitwiseEqual(t1, t4);
    EXPECT_EQ(t1.runs, 3u);
}

TEST(Determinism, MeasuredScenarioIndependentOfThreadCount)
{
    // The Measured path adds library draws and per-die column gain/offset
    // folds, which must stay in tile order under parallel programming.
    const AccuracySummary t1 =
        evalWithThreads(1, NonIdealityKind::Measured);
    const AccuracySummary t4 =
        evalWithThreads(4, NonIdealityKind::Measured);
    expectBitwiseEqual(t1, t4);
}

TEST(Determinism, RepeatedCallIsReproducible)
{
    // Same seed, same thread count => same bits (no hidden global state
    // leaks between evaluations).
    const AccuracySummary a =
        evalWithThreads(2, NonIdealityKind::Combined);
    const AccuracySummary b =
        evalWithThreads(2, NonIdealityKind::Combined);
    expectBitwiseEqual(a, b);
}

TEST(Determinism, ReadShardingIndependentOfThreadCount)
{
    // Below the run fan-out, evaluateAccuracy itself shards reads across
    // workers; its per-read identities must not depend on the sharding.
    Fixture& f = Fixture::get();
    CrossbarVmmBackend backend(NonIdealityConfig{}, 11);
    f.model.setBackend(&backend);

    setGlobalPoolThreads(1);
    const auto serial = basecall::evaluateAccuracy(f.model, f.dataset, 3);
    setGlobalPoolThreads(4);
    const auto pooled = basecall::evaluateAccuracy(f.model, f.dataset, 3);
    f.model.setBackend(nullptr);

    EXPECT_EQ(bits(serial.meanIdentity), bits(pooled.meanIdentity));
    EXPECT_EQ(bits(serial.minIdentity), bits(pooled.minIdentity));
    EXPECT_EQ(serial.basesCalled, pooled.basesCalled);
    EXPECT_EQ(serial.readsEvaluated, pooled.readsEvaluated);
}

TEST(Determinism, SmallJobShardsReadsAcrossIdleWorkers)
{
    // A sweep-sized job (8 reads, batch 8) called from outside the pool
    // slices its reads over the 4 workers, so no VMM carries more than 2
    // lanes; the same evaluation on a pool worker (as a Monte-Carlo run
    // is) keeps its one 8-lane group. Both equal the serial run bitwise.
    Fixture& f = Fixture::get();
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    CrossbarVmmBackend backend(scenario, 17);
    auto eval = [&] {
        return basecall::evaluateAccuracy(
            f.model, EvalOptions(f.dataset8).maxReads(8).batch(8));
    };

    setGlobalPoolThreads(0);
    f.model.setBackend(&backend);
    const auto serial = eval();

    setGlobalPoolThreads(4);
    LaneWidthRecorder caller_side(backend);
    f.model.setBackend(&caller_side);
    const auto sharded = eval();
    EXPECT_EQ(caller_side.widest(), 2u);

    LaneWidthRecorder worker_side(backend);
    f.model.setBackend(&worker_side);
    const auto on_worker = globalPool().submit(eval).get();
    EXPECT_EQ(worker_side.widest(), 8u);
    f.model.setBackend(nullptr);

    EXPECT_EQ(serial.readsEvaluated, 8u);
    expectSameResult(serial, sharded);
    expectSameResult(serial, on_worker);
}

TEST(Determinism, ShardedBlockModeMatchesSerial)
{
    // Block mode around the sliced fan-out: a progress sink sees the same
    // events, and a run stopped after its first block and resumed from
    // the checkpoint lands on the serial run's bits.
    std::vector<basecall::BlockEvent> events[2];
    auto sink = [&events](std::size_t side) {
        return [&events, side](const basecall::BlockEvent& ev) {
            events[side].push_back(ev);
        };
    };
    const auto serial = evalEightReads(
        0, EvalOptions(Fixture::get().dataset8).checkpointEvery(6)
               .onBlock(sink(0)));
    const auto sharded = evalEightReads(
        4, EvalOptions(Fixture::get().dataset8).checkpointEvery(6)
               .onBlock(sink(1)));
    expectSameResult(serial, sharded);
    ASSERT_EQ(events[0].size(), 2u); // blocks [0, 6) and [6, 8)
    ASSERT_EQ(events[0].size(), events[1].size());
    for (std::size_t i = 0; i < events[0].size(); ++i) {
        EXPECT_EQ(events[0][i].done, events[1][i].done);
        EXPECT_EQ(events[0][i].survivors, events[1][i].survivors);
        EXPECT_EQ(events[0][i].skipped, events[1][i].skipped);
        EXPECT_EQ(bits(events[0][i].meanIdentity),
                  bits(events[1][i].meanIdentity));
    }

    const std::string path =
        (std::filesystem::temp_directory_path()
         / "swordfish_determinism_shard_ckpt.bin").string();
    std::remove(path.c_str());
    std::atomic<bool> stop{false};
    const auto half = evalEightReads(
        4, swordfish::testing::stopOnceDone(
               EvalOptions(Fixture::get().dataset8).checkpoint(path)
                   .checkpointEvery(6),
               stop, 6));
    EXPECT_TRUE(half.interrupted);
    EXPECT_EQ(half.completedReads, 6u);
    const auto resumed = evalEightReads(
        4, EvalOptions(Fixture::get().dataset8).checkpoint(path)
               .checkpointEvery(6));
    std::remove(path.c_str());
    expectSameResult(serial, resumed);
}

TEST(Determinism, BatchedEvalBitwiseIdenticalAcrossBatchAndThreadGrid)
{
    // The tentpole invariant: chunk-level batching must not change a
    // single bit of the result for ANY batch size x thread count, because
    // each batch lane draws from its own read-indexed noise stream.
    // batch=3 over 5 reads exercises a ragged final group ({3, 2});
    // batch=8 exceeds the read count (one 5-lane group).
    // runs=1 keeps the run on the calling thread, so its reads are
    // sliced across the workers before they are grouped.
    for (std::size_t runs : {std::size_t{1}, std::size_t{2}}) {
        const AccuracySummary ref =
            evalBatched(1, 1, NonIdealityKind::Combined, runs);
        EXPECT_EQ(ref.runs, runs);
        for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
            for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}}) {
                SCOPED_TRACE("runs=" + std::to_string(runs)
                             + " batch=" + std::to_string(batch)
                             + " threads=" + std::to_string(threads));
                expectBitwiseEqual(
                    ref, evalBatched(threads, batch,
                                     NonIdealityKind::Combined, runs));
            }
        }
    }
}

TEST(Determinism, MeasuredScenarioBatchedMatchesSerial)
{
    // The measured-library path folds per-output gain/offset with a
    // per-lane x_max; batching must reproduce the per-read folds exactly.
    const AccuracySummary ref =
        evalBatched(1, 1, NonIdealityKind::Measured);
    expectBitwiseEqual(ref,
                       evalBatched(2, 3, NonIdealityKind::Measured));
    expectBitwiseEqual(ref,
                       evalBatched(4, 8, NonIdealityKind::Measured));
}

TEST(Determinism, BatchedBasecallsIdenticalToSerial)
{
    // Per-call check under a non-ideal backend: basecallBatch must emit
    // the exact base sequences the serial beginRead + basecallRead loop
    // produces, for both a full group and a ragged split.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    CrossbarVmmBackend backend(scenario, 13);
    f.model.setBackend(&backend);
    f.model.compileBackend();

    std::vector<genomics::Sequence> serial;
    for (std::size_t i = 0; i < 5; ++i) {
        f.model.beginRead(i);
        serial.push_back(
            basecall::basecallRead(f.model, f.dataset5.reads[i]));
    }

    const auto whole =
        basecall::basecallBatch(f.model, f.dataset5, {0, 1, 2, 3, 4});
    ASSERT_EQ(whole.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(whole[i], serial[i]) << "read " << i;

    const auto head =
        basecall::basecallBatch(f.model, f.dataset5, {0, 1, 2});
    const auto tail = basecall::basecallBatch(f.model, f.dataset5, {3, 4});
    ASSERT_EQ(head.size(), 3u);
    ASSERT_EQ(tail.size(), 2u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(head[i], serial[i]) << "read " << i;
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(tail[i], serial[3 + i]) << "read " << (3 + i);

    f.model.setBackend(nullptr);
}

TEST(Determinism, FaultScheduleBitwiseIdenticalAcrossThreadBatchGrid)
{
    // With a fixed fault seed, the whole degraded evaluation — accuracy
    // over the survivors AND the per-class outcome breakdown — must be
    // bitwise identical for any thread x batch combination, because fault
    // firing keys on (seed, site, read index), never on the grid.
    FaultConfig faults;
    faults.seed = 21;
    faults.maxRetries = 2;
    faults.setP(FaultSite::ReadDecode, 0.2);
    faults.setP(FaultSite::TileProgram, 0.1);
    faults.setP(FaultSite::VmmStuck, 0.3);
    faults.setP(FaultSite::WorkerTask, 0.3);

    for (std::size_t runs : {std::size_t{1}, std::size_t{2}}) {
        const AccuracySummary ref =
            evalBatched(1, 1, NonIdealityKind::Combined, runs, faults);
        EXPECT_EQ(ref.degraded.okReads + ref.degraded.retriedReads
                      + ref.degraded.skippedReads(),
                  runs * 5u); // every read of every run is accounted for
        for (std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
            for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}}) {
                SCOPED_TRACE("runs=" + std::to_string(runs)
                             + " batch=" + std::to_string(batch)
                             + " threads=" + std::to_string(threads));
                expectBitwiseEqual(
                    ref, evalBatched(threads, batch,
                                     NonIdealityKind::Combined, runs,
                                     faults));
            }
        }
    }
}

TEST(Determinism, FaultsDisabledMatchesEnabledWithZeroProbabilities)
{
    // Enabling the injector with every probability at zero must not
    // perturb a single bit (fault checks never touch the noise streams).
    const AccuracySummary off =
        evalBatched(2, 3, NonIdealityKind::Combined, 2, FaultConfig{});
    FaultConfig zero;
    zero.seed = 99;
    expectBitwiseEqual(
        off, evalBatched(2, 3, NonIdealityKind::Combined, 2, zero));
}

TEST(Determinism, BitwiseIdenticalAcrossSimdLevelGrid)
{
    // The SIMD contract: every level's kernels share one blocked
    // reduction order, so flipping the dispatch level must not change a
    // single bit — across the whole threads x batch grid on top, at every
    // level the CPU supports.
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    AccuracySummary ref;
    {
        const ScopedSimdLevel scoped(SimdLevel::Scalar);
        ref = evalBatched(1, 1, NonIdealityKind::Combined);
    }
    for (const SimdLevel level : swordfish::testing::supportedSimdLevels()) {
        const ScopedSimdLevel scoped(level);
        for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
            for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}}) {
                SCOPED_TRACE(std::string("simd=") + simdLevelName(level)
                             + " batch=" + std::to_string(batch)
                             + " threads=" + std::to_string(threads));
                expectBitwiseEqual(
                    ref, evalBatched(threads, batch,
                                     NonIdealityKind::Combined));
            }
        }
    }
}

/** Exact bit pattern of a float (the kernel outputs are float32). */
std::uint32_t
fbits(float v)
{
    std::uint32_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

namespace {

/** Quantizer::apply(float, float) on every element, out of line. */
[[gnu::noinline]] std::vector<float>
quantizeReference(const Quantizer& q, const std::vector<float>& in,
                  float scale)
{
    std::vector<float> out(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        out[i] = q.apply(in[i], scale);
    return out;
}

} // namespace

TEST(Determinism, SimdParityUnderNonDefaultRoundingMode)
{
    // The transcendental range-reduction round must not follow the
    // ambient FP rounding mode — roundps in the AVX2 path never does —
    // or a caller running under fesetround() would silently break the
    // scalar==AVX2 bitwise contract. The LSTM gate block covers exp,
    // sigmoid, and tanh in one call; hidden=19 exercises the scalar
    // tail behind the vector blocks too. The activation quantizer's
    // round is the opposite case: it follows the mode, as the
    // per-element std::nearbyint reference always has, so under every
    // mode both levels must equal that reference (37 elements, off the
    // ties, where the directed modes round differently).
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    constexpr std::size_t hidden = 19;
    std::vector<float> zi(4 * hidden), zr(4 * hidden), b(4 * hidden);
    std::vector<float> c_prev(hidden);
    for (std::size_t i = 0; i < 4 * hidden; ++i) {
        zi[i] = 0.37f * static_cast<float>(i) - 3.1f;
        zr[i] = -0.11f * static_cast<float>(i) + 1.7f;
        b[i] = 0.05f * static_cast<float>(i) - 0.4f;
    }
    for (std::size_t j = 0; j < hidden; ++j)
        c_prev[j] = 0.21f * static_cast<float>(j) - 1.3f;
    constexpr std::size_t n_act = 37;
    const Quantizer act_quant(8);
    const float act_scale = 0.0371f;
    std::vector<float> act(n_act);
    for (std::size_t i = 0; i < n_act; ++i)
        act[i] = 0.0137f * static_cast<float>(i * i) - 3.3f;
    act[5] = -0.0f;

    const int old_mode = std::fegetround();
    for (const int mode : {FE_DOWNWARD, FE_UPWARD, FE_TONEAREST}) {
        std::vector<float> c_s(hidden), tc_s(hidden), h_s(hidden);
        std::vector<float> c_v(hidden), tc_v(hidden), h_v(hidden);
        std::vector<float> g_s(4 * hidden), g_v(4 * hidden);
        std::vector<float> act_s = act, act_v = act;
        ASSERT_EQ(0, std::fesetround(mode));
        {
            const ScopedSimdLevel scoped(SimdLevel::Scalar);
            kernels::lstmGateBlock(zi.data(), zr.data(), b.data(), hidden,
                                   c_prev.data(), c_s.data(), tc_s.data(),
                                   h_s.data(), g_s.data());
            kernels::quantizeRows(act_s.data(), n_act, act_scale, 127.0f);
        }
        {
            const ScopedSimdLevel scoped(SimdLevel::Avx2);
            kernels::lstmGateBlock(zi.data(), zr.data(), b.data(), hidden,
                                   c_prev.data(), c_v.data(), tc_v.data(),
                                   h_v.data(), g_v.data());
            kernels::quantizeRows(act_v.data(), n_act, act_scale, 127.0f);
        }
        const std::vector<float> act_ref =
            quantizeReference(act_quant, act, act_scale);
        std::fesetround(old_mode);
        SCOPED_TRACE("rounding mode " + std::to_string(mode));
        for (std::size_t j = 0; j < hidden; ++j) {
            EXPECT_EQ(fbits(c_s[j]), fbits(c_v[j]));
            EXPECT_EQ(fbits(tc_s[j]), fbits(tc_v[j]));
            EXPECT_EQ(fbits(h_s[j]), fbits(h_v[j]));
        }
        for (std::size_t i = 0; i < 4 * hidden; ++i)
            EXPECT_EQ(fbits(g_s[i]), fbits(g_v[i]));
        for (std::size_t i = 0; i < n_act; ++i) {
            EXPECT_EQ(fbits(act_s[i]), fbits(act_v[i])) << "i=" << i;
            EXPECT_EQ(fbits(act_s[i]), fbits(act_ref[i])) << "i=" << i;
        }
    }
    std::fesetround(old_mode);
}



TEST(Determinism, MeasuredScenarioIndependentOfSimdLevel)
{
    // The measured-library fold uses the absmax kernel per lane; every
    // level must agree through the gain/offset arithmetic too.
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    AccuracySummary scalar;
    {
        const ScopedSimdLevel scoped(SimdLevel::Scalar);
        scalar = evalBatched(2, 3, NonIdealityKind::Measured);
    }
    for (const SimdLevel level : swordfish::testing::supportedSimdLevels()) {
        const ScopedSimdLevel scoped(level);
        SCOPED_TRACE(simdLevelName(level));
        expectBitwiseEqual(scalar,
                           evalBatched(2, 3, NonIdealityKind::Measured));
    }
}

TEST(Determinism, ComposedNoiseEnsembleBitwiseAcrossFullGrid)
{
    // The composable-noise-layer invariant: all four extended sources
    // composed onto the Combined preset, plus K=2 layer-ensemble
    // averaging, must stay bitwise across threads x batch x SIMD — every
    // source draws from its own (tile, source, cell) keyed stream,
    // replica seeds key off the tile seed, and the replica average is
    // quantized by one shared ADC pass.
    const std::vector<SimdLevel> levels =
        swordfish::testing::supportedSimdLevels();
    for (std::size_t runs : {std::size_t{1}, std::size_t{2}}) {
        AccuracySummary ref;
        {
            const ScopedSimdLevel scoped(SimdLevel::Scalar);
            ref = evalComposedEnsemble(1, 1, runs);
        }
        EXPECT_EQ(ref.runs, runs);
        for (const SimdLevel level : levels) {
            const ScopedSimdLevel scoped(level);
            for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                                      std::size_t{8}}) {
                for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                            std::size_t{4}}) {
                    SCOPED_TRACE(std::string("simd=") + simdLevelName(level)
                                 + " runs=" + std::to_string(runs)
                                 + " batch=" + std::to_string(batch)
                                 + " threads=" + std::to_string(threads));
                    expectBitwiseEqual(
                        ref, evalComposedEnsemble(threads, batch, runs));
                }
            }
        }
    }
}

TEST(Determinism, QuantizedBatchedMatchesSerial)
{
    // The digital fixed-point path quantizes activations per lane, so the
    // batched result must also be bitwise stable across batch sizes.
    Fixture& f = Fixture::get();
    const QuantConfig quant{8, 8};
    auto eval_q = [&](std::size_t threads, std::size_t batch) {
        return evaluateQuantizedAccuracy(
            f.model, quant,
            EvalOptions(f.dataset5).maxReads(5).batch(batch)
                .threads(threads)).meanIdentity;
    };
    const double ref = eval_q(1, 1);
    EXPECT_EQ(bits(ref), bits(eval_q(1, 3)));
    EXPECT_EQ(bits(ref), bits(eval_q(2, 8)));
    EXPECT_EQ(bits(ref), bits(eval_q(4, 2)));
}
