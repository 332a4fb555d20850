/** @file Tests for the deterministic fault-injection layer: config
 *  parsing, the pure (seed, site, key) firing schedule, and end-to-end
 *  graceful degradation of the evaluation pipeline — the injected fault
 *  schedule must map to exactly the recorded per-read outcomes, and
 *  accuracy must be computed over the survivors only. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "basecall/basecaller.h"
#include "basecall/bonito_lite.h"
#include "basecall/pipeline.h"
#include "core/evaluator.h"
#include "core/vmm_backend.h"
#include "genomics/align.h"
#include "genomics/dataset.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace swordfish;
using namespace swordfish::basecall;

namespace {

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** Small untrained model + dataset shared across the e2e tests. */
struct Fixture
{
    static Fixture&
    get()
    {
        static Fixture f;
        return f;
    }

    nn::SequenceModel model;
    genomics::Dataset dataset; ///< 6 reads

  private:
    Fixture()
    {
        BonitoLiteConfig cfg;
        cfg.convChannels = 8;
        cfg.lstmHidden = 8;
        cfg.lstmLayers = 1;
        model = buildBonitoLite(cfg);
        const genomics::PoreModel pore;
        dataset = genomics::makeDataset(genomics::specById("D1"), pore, 6);
    }
};

/** Config with every probability zero except the listed (site, p) pairs. */
FaultConfig
configWith(std::uint64_t seed,
           std::initializer_list<std::pair<FaultSite, double>> sites,
           std::size_t retries = 2)
{
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.maxRetries = retries;
    for (const auto& [site, p] : sites)
        cfg.setP(site, p);
    return cfg;
}

/**
 * Replay of the evaluator's classification, driven purely by the injector
 * — what the recorded outcome of read i must be when the model itself
 * never produces non-finite output (ideal backend).
 */
ReadOutcome
expectedOutcome(const FaultInjector& inj, std::size_t i)
{
    if (inj.fires(FaultSite::ReadDecode, i)
        || inj.fires(FaultSite::Chunk, i))
        return ReadOutcome::DecodeError;
    if (!inj.fires(FaultSite::WorkerTask, i))
        return ReadOutcome::Ok;
    for (std::size_t k = 1; k <= inj.maxRetries(); ++k) {
        if (!inj.fires(FaultSite::WorkerTask,
                       FaultInjector::retryStream(i, k)))
            return ReadOutcome::Retried;
    }
    return ReadOutcome::VmmFault;
}

} // namespace

TEST(FaultConfig, ParseFullSpec)
{
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(FaultConfig::parse(
        "seed=42,retries=3,decode=0.25,chunk=0.5,program=1,"
        "vmm.nan=0.125,vmm.stuck=0.0625,task=1.0",
        cfg, error))
        << error;
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_EQ(cfg.maxRetries, 3u);
    EXPECT_DOUBLE_EQ(cfg.p(FaultSite::ReadDecode), 0.25);
    EXPECT_DOUBLE_EQ(cfg.p(FaultSite::Chunk), 0.5);
    EXPECT_DOUBLE_EQ(cfg.p(FaultSite::TileProgram), 1.0);
    EXPECT_DOUBLE_EQ(cfg.p(FaultSite::VmmNan), 0.125);
    EXPECT_DOUBLE_EQ(cfg.p(FaultSite::VmmStuck), 0.0625);
    EXPECT_DOUBLE_EQ(cfg.p(FaultSite::WorkerTask), 1.0);
    EXPECT_TRUE(cfg.anyEnabled());
}

TEST(FaultConfig, JsonDumpKeepsEveryDigit)
{
    // Configs are compared through their dumps, so two probabilities that
    // differ in the 7th significant digit must dump differently, and the
    // dump must read back to the same double.
    FaultConfig a;
    FaultConfig b;
    std::string error;
    ASSERT_TRUE(FaultConfig::parse("vmm.nan=0.1234567", a, error)) << error;
    ASSERT_TRUE(FaultConfig::parse("vmm.nan=0.1234568", b, error)) << error;
    EXPECT_NE(a.toJson(), b.toJson());
    JsonValue doc;
    const JsonError err = JsonValue::parse(a.toJson(), doc);
    ASSERT_FALSE(err) << err.message;
    EXPECT_EQ(doc.get("vmm.nan").asDouble(), 0.1234567);
    EXPECT_EQ(doc.get("seed").asU64(), a.seed);
}

TEST(FaultConfig, ParseAcceptsAlternateSeparators)
{
    FaultConfig a, b;
    std::string error;
    ASSERT_TRUE(FaultConfig::parse("decode=0.5; task=0.25", a, error))
        << error;
    ASSERT_TRUE(FaultConfig::parse("decode=0.5 task=0.25", b, error))
        << error;
    EXPECT_DOUBLE_EQ(a.p(FaultSite::ReadDecode), 0.5);
    EXPECT_DOUBLE_EQ(a.p(FaultSite::WorkerTask), 0.25);
    EXPECT_DOUBLE_EQ(b.p(FaultSite::ReadDecode), 0.5);
    EXPECT_DOUBLE_EQ(b.p(FaultSite::WorkerTask), 0.25);
}

TEST(FaultConfig, ParseRejectsMalformedSpecs)
{
    const char* bad[] = {
        "decode",          // no value
        "=0.5",            // no key
        "decode=1.5",      // p out of range
        "decode=-0.1",     // p out of range
        "decode=abc",      // non-numeric
        "decode=nan",      // non-finite: no ordering against [0, 1]
        "decode=NaN",
        "decode=-nan",
        "decode=inf",
        "unknown=0.5",     // unknown site
        "seed=",           // empty value
        "seed=nope",       // non-numeric seed
        "retries=9999999", // beyond the retry cap
    };
    for (const char* spec : bad) {
        SCOPED_TRACE(spec);
        FaultConfig cfg;
        cfg.seed = 77; // sentinel: parse failure must leave cfg untouched
        std::string error;
        EXPECT_FALSE(FaultConfig::parse(spec, cfg, error));
        EXPECT_FALSE(error.empty());
        EXPECT_EQ(cfg.seed, 77u);
        EXPECT_FALSE(cfg.anyEnabled());
    }
}

TEST(FaultConfig, EmptySpecDisablesEverything)
{
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(FaultConfig::parse("", cfg, error)) << error;
    EXPECT_FALSE(cfg.anyEnabled());
}

TEST(FaultInjector, DisabledWhenAllProbabilitiesZero)
{
    const FaultInjector inj{FaultConfig{}};
    EXPECT_FALSE(inj.enabled());
    EXPECT_FALSE(inj.fires(FaultSite::ReadDecode, 0));
}

TEST(FaultInjector, ProbabilityExtremes)
{
    const FaultInjector inj(configWith(
        9, {{FaultSite::ReadDecode, 0.0}, {FaultSite::VmmNan, 1.0}}));
    EXPECT_TRUE(inj.enabled());
    for (std::uint64_t key = 0; key < 256; ++key) {
        EXPECT_FALSE(inj.fires(FaultSite::ReadDecode, key));
        EXPECT_TRUE(inj.fires(FaultSite::VmmNan, key));
    }
}

TEST(FaultInjector, FiringScheduleIsPureAndSeedDriven)
{
    const auto schedule = [](std::uint64_t seed) {
        const FaultInjector inj(
            configWith(seed, {{FaultSite::WorkerTask, 0.5}}));
        std::vector<bool> fired;
        for (std::uint64_t key = 0; key < 512; ++key)
            fired.push_back(inj.fires(FaultSite::WorkerTask, key));
        return fired;
    };
    const auto a = schedule(1);
    EXPECT_EQ(a, schedule(1)); // repeatable
    EXPECT_NE(a, schedule(2)); // seed actually feeds the hash

    // Roughly half the keys fire at p=0.5 (hash uniformity sanity check).
    const std::size_t hits =
        static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
    EXPECT_GT(hits, 512 / 4);
    EXPECT_LT(hits, 512 * 3 / 4);
}

TEST(FaultInjector, SitesAreIndependentStreams)
{
    const FaultInjector inj(configWith(
        5, {{FaultSite::ReadDecode, 0.5}, {FaultSite::Chunk, 0.5}}));
    bool differ = false;
    for (std::uint64_t key = 0; key < 128 && !differ; ++key)
        differ = inj.fires(FaultSite::ReadDecode, key)
            != inj.fires(FaultSite::Chunk, key);
    EXPECT_TRUE(differ);
}

TEST(FaultInjector, DrawIsDeterministicAndInRange)
{
    const FaultInjector inj(configWith(3, {{FaultSite::VmmStuck, 1.0}}));
    for (std::uint64_t key = 0; key < 64; ++key) {
        const std::uint64_t pick = inj.draw(FaultSite::VmmStuck, key, 7);
        EXPECT_LT(pick, 7u);
        EXPECT_EQ(pick, inj.draw(FaultSite::VmmStuck, key, 7));
    }
}

TEST(FaultInjector, RetryStreamsAreDistinct)
{
    // Retry attempts must land on fresh streams: different from the read
    // index and from each other (else a "retry" would replay the identical
    // noise and fault decisions).
    for (std::uint64_t read = 0; read < 16; ++read) {
        const std::uint64_t r1 = FaultInjector::retryStream(read, 1);
        const std::uint64_t r2 = FaultInjector::retryStream(read, 2);
        EXPECT_NE(r1, read);
        EXPECT_NE(r2, read);
        EXPECT_NE(r1, r2);
    }
}

TEST(FaultDegradation, InjectedScheduleMatchesRecordedOutcomesExactly)
{
    // The e2e contract: N injected faults => exactly N recorded outcomes,
    // class by class, matching the injector's own schedule.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const FaultConfig faults = configWith(21,
                                          {{FaultSite::ReadDecode, 0.3},
                                           {FaultSite::Chunk, 0.2},
                                           {FaultSite::WorkerTask, 0.4}},
                                          1);
    const FaultInjector inj(faults);

    DegradedResult expected;
    for (std::size_t i = 0; i < 6; ++i)
        expected.record(expectedOutcome(inj, i));
    // The seed/probabilities above must actually exercise degradation on
    // this 6-read dataset; if not, pick a different seed.
    ASSERT_GT(expected.skippedReads() + expected.retriedReads, 0u);
    ASSERT_GT(expected.survivors(), 0u);

    const AccuracyResult res = evaluateAccuracy(
        f.model, EvalOptions(f.dataset).maxReads(6).faults(faults));
    EXPECT_EQ(res.degraded.okReads, expected.okReads);
    EXPECT_EQ(res.degraded.retriedReads, expected.retriedReads);
    EXPECT_EQ(res.degraded.decodeErrors, expected.decodeErrors);
    EXPECT_EQ(res.degraded.nanOutputs, expected.nanOutputs);
    EXPECT_EQ(res.degraded.vmmFaults, expected.vmmFaults);
    EXPECT_EQ(res.readsEvaluated, expected.survivors());
}

TEST(FaultDegradation, AccuracyIsComputedOverSurvivorsOnly)
{
    // Ideal backend => every survivor's call is the deterministic no-noise
    // call, so the expected mean identity is computable read by read.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const FaultConfig faults = configWith(21,
                                          {{FaultSite::ReadDecode, 0.3},
                                           {FaultSite::Chunk, 0.2},
                                           {FaultSite::WorkerTask, 0.4}},
                                          1);
    const FaultInjector inj(faults);

    double sum = 0.0;
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < 6; ++i) {
        if (!survives(expectedOutcome(inj, i)))
            continue;
        const genomics::Sequence called =
            basecallRead(f.model, f.dataset.reads[i]);
        sum += genomics::alignGlobal(called, f.dataset.reads[i].bases)
                   .identity();
        ++survivors;
    }
    ASSERT_GT(survivors, 0u);

    const AccuracyResult res = evaluateAccuracy(
        f.model, EvalOptions(f.dataset).maxReads(6).faults(faults));
    EXPECT_EQ(res.readsEvaluated, survivors);
    EXPECT_EQ(bits(res.meanIdentity),
              bits(sum / static_cast<double>(survivors)));
}

TEST(FaultDegradation, BreakdownIdenticalAcrossBatchSizes)
{
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const FaultConfig faults = configWith(21,
                                          {{FaultSite::ReadDecode, 0.3},
                                           {FaultSite::WorkerTask, 0.4}},
                                          2);
    const AccuracyResult serial = evaluateAccuracy(
        f.model, EvalOptions(f.dataset).maxReads(6).batch(1).faults(faults));
    for (std::size_t batch : {std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        const AccuracyResult b = evaluateAccuracy(
            f.model,
            EvalOptions(f.dataset).maxReads(6).batch(batch).faults(faults));
        EXPECT_EQ(bits(serial.meanIdentity), bits(b.meanIdentity));
        EXPECT_EQ(serial.readsEvaluated, b.readsEvaluated);
        EXPECT_EQ(serial.degraded.okReads, b.degraded.okReads);
        EXPECT_EQ(serial.degraded.retriedReads, b.degraded.retriedReads);
        EXPECT_EQ(serial.degraded.decodeErrors, b.degraded.decodeErrors);
        EXPECT_EQ(serial.degraded.vmmFaults, b.degraded.vmmFaults);
    }
}

TEST(FaultDegradation, NanPoisoningSkipsEveryReadAsVmmFault)
{
    // p=1 NaN poisoning on a crossbar backend: every read's output is
    // non-finite, attributable to the injector => all VmmFault, none
    // evaluated, and the evaluation still completes cleanly.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const FaultConfig faults = configWith(4, {{FaultSite::VmmNan, 1.0}});
    core::CrossbarVmmBackend backend(core::NonIdealityConfig{}, 17, faults);
    f.model.setBackend(&backend);
    const AccuracyResult res = evaluateAccuracy(
        f.model, EvalOptions(f.dataset).maxReads(4).faults(faults));
    f.model.setBackend(nullptr);

    EXPECT_EQ(res.degraded.vmmFaults, 4u);
    EXPECT_EQ(res.degraded.survivors(), 0u);
    EXPECT_EQ(res.readsEvaluated, 0u);
    EXPECT_EQ(res.basesCalled, 0u);
    EXPECT_EQ(res.meanIdentity, 0.0);
}

TEST(FaultDegradation, StuckColumnDegradesSilently)
{
    // Stuck-at columns corrupt values but never poison them: reads stay
    // Ok and the batched path reproduces the serial calls bitwise.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const FaultConfig faults = configWith(6, {{FaultSite::VmmStuck, 1.0}});
    core::CrossbarVmmBackend backend(core::NonIdealityConfig{}, 17, faults);
    f.model.setBackend(&backend);
    const AccuracyResult serial = evaluateAccuracy(
        f.model, EvalOptions(f.dataset).maxReads(4).batch(1).faults(faults));
    const AccuracyResult batched = evaluateAccuracy(
        f.model, EvalOptions(f.dataset).maxReads(4).batch(4).faults(faults));
    f.model.setBackend(nullptr);

    EXPECT_EQ(serial.degraded.okReads, 4u);
    EXPECT_EQ(serial.readsEvaluated, 4u);
    EXPECT_EQ(bits(serial.meanIdentity), bits(batched.meanIdentity));
    EXPECT_EQ(serial.basesCalled, batched.basesCalled);
}

TEST(FaultDegradation, DeadTileProgrammingKeepsReadsAlive)
{
    // A dead tile (p=1: every tile) degrades accuracy but must not skip
    // reads or abort programming.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const FaultConfig faults =
        configWith(8, {{FaultSite::TileProgram, 1.0}});
    core::CrossbarVmmBackend backend(core::NonIdealityConfig{}, 17, faults);
    f.model.setBackend(&backend);
    const AccuracyResult res = evaluateAccuracy(
        f.model, EvalOptions(f.dataset).maxReads(3).faults(faults));
    f.model.setBackend(nullptr);

    EXPECT_EQ(res.degraded.okReads, 3u);
    EXPECT_EQ(res.readsEvaluated, 3u);
}

TEST(FaultDegradation, RetriesExhaustedBecomesVmmFault)
{
    // p=1 transient faults with a retry budget of 2: attempt 0 and both
    // retries fail, so every read ends VmmFault after the full budget.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const AccuracyResult res = evaluateAccuracy(
        f.model,
        EvalOptions(f.dataset).maxReads(3).faults(
            configWith(2, {{FaultSite::WorkerTask, 1.0}}, 2)));
    EXPECT_EQ(res.degraded.vmmFaults, 3u);
    EXPECT_EQ(res.degraded.retriedReads, 0u);
    EXPECT_EQ(res.readsEvaluated, 0u);
}

TEST(FaultDegradation, RetriedReadsMatchTheSerialCallOnTheirRetryStream)
{
    // The read loop runs every read through the batched forward pass: an
    // Ok read in its lane group on its own index, a retried read as a
    // one-lane group on the stream of its succeeding attempt k. On a noisy
    // crossbar each call must equal the serial reference, beginRead(stream)
    // + basecallRead, on exactly that stream, at any batch and thread
    // count. Seed 3 gives reads 0 and 2 Ok, 1 and 5 retried on attempt 1,
    // 4 on attempt 2 and 3 out of retries.
    Fixture& f = Fixture::get();
    const std::size_t n = f.dataset.reads.size();
    const FaultConfig faults =
        configWith(3, {{FaultSite::WorkerTask, 0.4}}, 2);
    const FaultInjector inj(faults);

    // The stream each surviving read must be basecalled on.
    std::vector<std::optional<std::uint64_t>> stream(n);
    std::size_t retried = 0;
    std::size_t second_attempts = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!inj.fires(FaultSite::WorkerTask, i)) {
            stream[i] = i;
            continue;
        }
        for (std::size_t k = 1; k <= inj.maxRetries(); ++k) {
            const std::uint64_t retry = FaultInjector::retryStream(i, k);
            if (!inj.fires(FaultSite::WorkerTask, retry)) {
                stream[i] = retry;
                ++retried;
                second_attempts += k == 2 ? 1 : 0;
                break;
            }
        }
    }
    ASSERT_EQ(expectedOutcome(inj, 0), ReadOutcome::Ok);
    ASSERT_GT(second_attempts, 0u);

    core::NonIdealityConfig scenario;
    scenario.kind = core::NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    core::CrossbarVmmBackend backend(scenario, 13, faults);
    f.model.setBackend(&backend);
    f.model.compileBackend();

    std::vector<genomics::Sequence> reference(n);
    std::size_t own_stream_differs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!stream[i])
            continue;
        f.model.beginRead(*stream[i]);
        reference[i] = basecallRead(f.model, f.dataset.reads[i]);
        if (*stream[i] != i) {
            f.model.beginRead(i);
            if (basecallRead(f.model, f.dataset.reads[i]) != reference[i])
                ++own_stream_differs;
        }
    }
    // The check has power only if a retried read's own stream would give
    // another call.
    ASSERT_GT(own_stream_differs, 0u);

    for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
        for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE("threads=" + std::to_string(threads)
                         + " batch=" + std::to_string(batch));
            const EvalRequest req = EvalOptions(f.dataset)
                                        .maxReads(n)
                                        .batch(batch)
                                        .threads(threads)
                                        .faults(faults);
            prepareReads(f.model, req, "retry test");
            std::vector<genomics::Sequence> calls(n);
            std::vector<std::uint8_t> scored(n, 0);
            const AccuracyResult res = basecallReads(
                f.model, req,
                [&](std::size_t i, genomics::Sequence& call) {
                    calls[i] = call;
                    scored[i] = 1;
                    return 0.0;
                });
            EXPECT_EQ(res.degraded.retriedReads, retried);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(scored[i] != 0, stream[i].has_value())
                    << "read " << i;
                if (stream[i]) {
                    EXPECT_EQ(calls[i], reference[i]) << "read " << i;
                }
            }
        }
    }
    f.model.setBackend(nullptr);
    setGlobalPoolThreads(0);
}

TEST(FaultDegradation, PipelineSkipsFaultedReadsInLaterStages)
{
    // Stage 1 is the evaluation read loop, so the report must not move a
    // bit for any batch, thread count or block length.
    Fixture& f = Fixture::get();
    const FaultConfig faults = configWith(21,
                                          {{FaultSite::ReadDecode, 0.3},
                                           {FaultSite::Chunk, 0.2},
                                           {FaultSite::WorkerTask, 0.4}},
                                          1);
    const FaultInjector inj(faults);
    DegradedResult expected;
    for (std::size_t i = 0; i < 6; ++i)
        expected.record(expectedOutcome(inj, i));

    const std::atomic<bool> never{false};
    std::optional<PipelineReport> first;
    for (const std::size_t batch : {1, 3, 8}) {
        for (const std::size_t threads : {0, 4}) {
            for (const bool blocks : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "batch " << batch << " threads " << threads
                             << " blocks " << blocks);
                setGlobalPoolThreads(threads);
                EvalOptions opts(f.dataset);
                opts.maxReads(6).batch(batch).faults(faults);
                if (blocks)
                    opts.checkpointEvery(2).stopFlag(&never);
                const PipelineReport report = runPipeline(f.model, opts);
                EXPECT_EQ(report.degraded.okReads, expected.okReads);
                EXPECT_EQ(report.degraded.retriedReads,
                          expected.retriedReads);
                EXPECT_EQ(report.degraded.decodeErrors,
                          expected.decodeErrors);
                EXPECT_EQ(report.degraded.nanOutputs, expected.nanOutputs);
                EXPECT_EQ(report.degraded.vmmFaults, expected.vmmFaults);
                EXPECT_EQ(report.completedReads, 6u);
                EXPECT_FALSE(report.interrupted);
                // mappedFraction's denominator is the survivor count, so it
                // stays a valid [0, 1] fraction under degradation.
                EXPECT_GE(report.mappedFraction, 0.0);
                EXPECT_LE(report.mappedFraction, 1.0);
                if (!first)
                    first = report;
                EXPECT_EQ(bits(report.mappedFraction),
                          bits(first->mappedFraction));
                EXPECT_EQ(bits(report.meanMapIdentity),
                          bits(first->meanMapIdentity));
            }
        }
    }
    setGlobalPoolThreads(0);
}

TEST(FaultDegradation, MonteCarloSummaryFoldsBreakdownAcrossRuns)
{
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const FaultConfig faults = configWith(21,
                                          {{FaultSite::ReadDecode, 0.3},
                                           {FaultSite::WorkerTask, 0.4}},
                                          1);
    const FaultInjector inj(faults);
    DegradedResult per_run;
    for (std::size_t i = 0; i < 5; ++i)
        per_run.record(expectedOutcome(inj, i));

    core::NonIdealityConfig scenario;
    scenario.crossbar.size = 64;
    const core::AccuracySummary summary = core::evaluateNonIdealAccuracy(
        f.model, {scenario},
        core::EvalOptions(f.dataset).runs(2).maxReads(5).seedBase(7)
            .faults(faults));
    // The fault schedule keys on read indices, so both runs degrade
    // identically and the summary folds two copies.
    EXPECT_EQ(summary.degraded.decodeErrors, 2 * per_run.decodeErrors);
    EXPECT_EQ(summary.degraded.retriedReads, 2 * per_run.retriedReads);
    EXPECT_EQ(summary.degraded.okReads + summary.degraded.retriedReads,
              2 * per_run.survivors());
}

TEST(FaultDegradation, DisabledInjectionLeavesResultsUntouched)
{
    // The zero-overhead contract: evaluating with the injector disabled
    // must match an evaluation with no fault layer consulted at all
    // (all-Ok breakdown, identical accuracy across repeat calls).
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const EvalRequest off =
        EvalOptions(f.dataset).maxReads(4).faults(FaultConfig{});
    const AccuracyResult a = evaluateAccuracy(f.model, off);
    const AccuracyResult b = evaluateAccuracy(f.model, off);
    EXPECT_EQ(bits(a.meanIdentity), bits(b.meanIdentity));
    EXPECT_EQ(a.degraded.okReads, 4u);
    EXPECT_EQ(a.degraded.skippedReads(), 0u);
    EXPECT_EQ(a.degraded.retriedReads, 0u);
}
