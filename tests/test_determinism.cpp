/** @file Determinism tests for the parallel Monte-Carlo engine: results
 *  must be bitwise identical regardless of the worker count, because runs
 *  and reads land in indexed slots, reductions happen in index order, and
 *  conversion noise comes from per-read streams (VmmBackend::beginRead)
 *  rather than a shared mutable generator. */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "basecall/basecaller.h"
#include "basecall/bonito_lite.h"
#include "core/evaluator.h"
#include "core/nonideality.h"
#include "core/vmm_backend.h"
#include "genomics/dataset.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "util/fault.h"
#include "util/thread_pool.h"

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

/** Full-request evaluation over the 5-read dataset: batch x threads. */
AccuracySummary
evalBatched(std::size_t threads, std::size_t batch, NonIdealityKind kind)
{
    Fixture& f = Fixture::get();
    NonIdealityConfig scenario;
    scenario.kind = kind;
    scenario.crossbar.size = 64;
    SramRemapConfig remap;
    remap.fraction = 0.05;
    return evaluateNonIdealAccuracy(
        f.model, {scenario, remap},
        EvalOptions(f.dataset5).runs(2).maxReads(5).seedBase(7)
            .batch(batch).threads(threads));
}

/** Full composition of the four extended noise sources plus K=2 layer
 *  ensemble averaging, over the 5-read dataset. */
AccuracySummary
evalComposedEnsemble(std::size_t threads, std::size_t batch)
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
        EvalOptions(f.dataset5).runs(2).maxReads(5).seedBase(7)
            .batch(batch).threads(threads).ensembleK(2));
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

TEST(Determinism, BatchedEvalBitwiseIdenticalAcrossBatchAndThreadGrid)
{
    // The tentpole invariant: chunk-level batching must not change a
    // single bit of the result for ANY batch size x thread count, because
    // each batch lane draws from its own read-indexed noise stream.
    // batch=3 over 5 reads exercises a ragged final group ({3, 2});
    // batch=8 exceeds the read count (one 5-lane group).
    const AccuracySummary ref =
        evalBatched(1, 1, NonIdealityKind::Combined);
    EXPECT_EQ(ref.runs, 2u);
    for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                              std::size_t{8}}) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
            SCOPED_TRACE("batch=" + std::to_string(batch)
                         + " threads=" + std::to_string(threads));
            expectBitwiseEqual(
                ref, evalBatched(threads, batch,
                                 NonIdealityKind::Combined));
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
    ScopedFaultConfig scoped(faults);

    const AccuracySummary ref =
        evalBatched(1, 1, NonIdealityKind::Combined);
    EXPECT_EQ(ref.degraded.okReads + ref.degraded.retriedReads
                  + ref.degraded.skippedReads(),
              2u * 5u); // every read of both runs is accounted for
    for (std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
            SCOPED_TRACE("batch=" + std::to_string(batch)
                         + " threads=" + std::to_string(threads));
            expectBitwiseEqual(
                ref, evalBatched(threads, batch,
                                 NonIdealityKind::Combined));
        }
    }
}

TEST(Determinism, FaultsDisabledMatchesEnabledWithZeroProbabilities)
{
    // Enabling the injector with every probability at zero must not
    // perturb a single bit (fault checks never touch the noise streams).
    const AccuracySummary off =
        evalBatched(2, 3, NonIdealityKind::Combined);
    FaultConfig zero;
    zero.seed = 99;
    ScopedFaultConfig scoped(zero);
    expectBitwiseEqual(off, evalBatched(2, 3, NonIdealityKind::Combined));
}

TEST(Determinism, BitwiseIdenticalAcrossSimdLevelGrid)
{
    // The SIMD contract: the scalar and AVX2 kernels share one blocked
    // reduction order, so flipping the dispatch level must not change a
    // single bit — across the whole threads x batch grid on top.
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    AccuracySummary ref;
    {
        const ScopedSimdLevel scoped(SimdLevel::Scalar);
        ref = evalBatched(1, 1, NonIdealityKind::Combined);
    }
    for (const SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2}) {
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

TEST(Determinism, SimdParityUnderNonDefaultRoundingMode)
{
    // The transcendental range-reduction round must not follow the
    // ambient FP rounding mode — roundps in the AVX2 path never does —
    // or a caller running under fesetround() would silently break the
    // scalar==AVX2 bitwise contract. The LSTM gate block covers exp,
    // sigmoid, and tanh in one call; hidden=19 exercises the scalar
    // tail behind the vector blocks too.
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

    const int old_mode = std::fegetround();
    for (const int mode : {FE_DOWNWARD, FE_UPWARD, FE_TONEAREST}) {
        std::vector<float> c_s(hidden), tc_s(hidden), h_s(hidden);
        std::vector<float> c_v(hidden), tc_v(hidden), h_v(hidden);
        std::vector<float> g_s(4 * hidden), g_v(4 * hidden);
        ASSERT_EQ(0, std::fesetround(mode));
        {
            const ScopedSimdLevel scoped(SimdLevel::Scalar);
            kernels::lstmGateBlock(zi.data(), zr.data(), b.data(), hidden,
                                   c_prev.data(), c_s.data(), tc_s.data(),
                                   h_s.data(), g_s.data());
        }
        {
            const ScopedSimdLevel scoped(SimdLevel::Avx2);
            kernels::lstmGateBlock(zi.data(), zr.data(), b.data(), hidden,
                                   c_prev.data(), c_v.data(), tc_v.data(),
                                   h_v.data(), g_v.data());
        }
        std::fesetround(old_mode);
        SCOPED_TRACE("rounding mode " + std::to_string(mode));
        for (std::size_t j = 0; j < hidden; ++j) {
            EXPECT_EQ(fbits(c_s[j]), fbits(c_v[j]));
            EXPECT_EQ(fbits(tc_s[j]), fbits(tc_v[j]));
            EXPECT_EQ(fbits(h_s[j]), fbits(h_v[j]));
        }
        for (std::size_t i = 0; i < 4 * hidden; ++i)
            EXPECT_EQ(fbits(g_s[i]), fbits(g_v[i]));
    }
    std::fesetround(old_mode);
}

TEST(Determinism, MeasuredScenarioIndependentOfSimdLevel)
{
    // The measured-library fold uses the absmax kernel per lane; both
    // levels must agree through the gain/offset arithmetic too.
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    AccuracySummary scalar, avx2;
    {
        const ScopedSimdLevel scoped(SimdLevel::Scalar);
        scalar = evalBatched(2, 3, NonIdealityKind::Measured);
    }
    {
        const ScopedSimdLevel scoped(SimdLevel::Avx2);
        avx2 = evalBatched(2, 3, NonIdealityKind::Measured);
    }
    expectBitwiseEqual(scalar, avx2);
}

TEST(Determinism, ComposedNoiseEnsembleBitwiseAcrossFullGrid)
{
    // The composable-noise-layer invariant: all four extended sources
    // composed onto the Combined preset, plus K=2 layer-ensemble
    // averaging, must stay bitwise across threads x batch x SIMD — every
    // source draws from its own (tile, source, cell) keyed stream,
    // replica seeds key off the tile seed, and the replica average is
    // quantized by one shared ADC pass.
    AccuracySummary ref;
    {
        const ScopedSimdLevel scoped(SimdLevel::Scalar);
        ref = evalComposedEnsemble(1, 1);
    }
    EXPECT_EQ(ref.runs, 2u);
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (cpuSupportsAvx2())
        levels.push_back(SimdLevel::Avx2);
    for (const SimdLevel level : levels) {
        const ScopedSimdLevel scoped(level);
        for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
            for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}}) {
                SCOPED_TRACE(std::string("simd=") + simdLevelName(level)
                             + " batch=" + std::to_string(batch)
                             + " threads=" + std::to_string(threads));
                expectBitwiseEqual(ref,
                                   evalComposedEnsemble(threads, batch));
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
                .threads(threads));
    };
    const double ref = eval_q(1, 1);
    EXPECT_EQ(bits(ref), bits(eval_q(1, 3)));
    EXPECT_EQ(bits(ref), bits(eval_q(2, 8)));
    EXPECT_EQ(bits(ref), bits(eval_q(4, 2)));
}

TEST(Determinism, Int8KernelPathBatchedMatchesSerial)
{
    // The true-integer int8 path: int32 accumulation is exact, so batched
    // and serial evaluation must agree bitwise at every level and grid
    // point (per-lane activation scales equal the serial per-read scales).
    Fixture& f = Fixture::get();
    const QuantConfig quant{8, 8};
    auto eval_i8 = [&](std::size_t threads, std::size_t batch) {
        return evaluateQuantizedAccuracy(
            f.model, quant,
            EvalOptions(f.dataset5).maxReads(5).batch(batch)
                .threads(threads).int8Kernel());
    };
    const double ref = eval_i8(1, 1);
    EXPECT_EQ(bits(ref), bits(eval_i8(1, 3)));
    EXPECT_EQ(bits(ref), bits(eval_i8(2, 8)));
    EXPECT_EQ(bits(ref), bits(eval_i8(4, 2)));
    if (cpuSupportsAvx2()) {
        const ScopedSimdLevel scoped(SimdLevel::Scalar);
        EXPECT_EQ(bits(ref), bits(eval_i8(2, 3)));
    }
}
