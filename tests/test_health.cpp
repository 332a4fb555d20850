/** @file Tests for the self-healing crossbar runtime: SWORDFISH_REFRESH
 *  parsing, bitwise neutrality of the block-mode evaluation machinery,
 *  the probe -> refresh -> backoff -> failover -> dead healing chain,
 *  healing's accuracy benefit under aggressive aging, determinism across
 *  the thread x batch grid, and checkpoint / graceful-shutdown resume. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "basecall/basecaller.h"
#include "basecall/bonito_lite.h"
#include "basecall/chunker.h"
#include "basecall/trainer.h"
#include "core/evaluator.h"
#include "core/health.h"
#include "core/vmm_backend.h"
#include "genomics/dataset.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/shutdown.h"
#include "util/thread_pool.h"

using namespace swordfish;
using namespace swordfish::basecall;
using namespace swordfish::core;

namespace {

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

std::string
tempPath(const char* name)
{
    return (std::filesystem::temp_directory_path() / name).string();
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
    genomics::Dataset dataset; ///< 8 reads

  private:
    Fixture()
    {
        BonitoLiteConfig cfg;
        cfg.convChannels = 8;
        cfg.lstmHidden = 8;
        cfg.lstmLayers = 1;
        model = buildBonitoLite(cfg);
        const genomics::PoreModel pore;
        dataset = genomics::makeDataset(genomics::specById("D1"), pore, 8);
    }
};

/** Deterministic zero-drift law (nu draws collapse to exactly 0). */
crossbar::DriftConfig
noDrift()
{
    crossbar::DriftConfig d;
    d.nu = 0.0;
    d.nuSigma = 0.0;
    return d;
}

/** Aggressive drift: tiles decay hard within one epoch. */
crossbar::DriftConfig
harshDrift()
{
    crossbar::DriftConfig d;
    d.nu = 0.3;
    d.nuSigma = 0.0;
    return d;
}

NonIdealityConfig
scenario64()
{
    NonIdealityConfig s;
    s.kind = NonIdealityKind::Combined;
    s.crossbar.size = 64;
    return s;
}

AccuracyResult
evalWithBackend(CrossbarVmmBackend& backend, const EvalRequest& req)
{
    Fixture& f = Fixture::get();
    f.model.setBackend(&backend);
    const AccuracyResult res = evaluateAccuracy(f.model, req);
    f.model.setBackend(nullptr);
    return res;
}

} // namespace

// ---------------------------------------------------------------------------
// SWORDFISH_REFRESH parsing

TEST(RefreshConfigParse, FullSpecRoundTrips)
{
    RefreshConfig cfg;
    std::string err;
    ASSERT_TRUE(RefreshConfig::parse(
        "threshold=0.25,interval_h=4,age_h_per_read=2,spares=3,"
        "retries=5,probe_reads=8,nu=0.3,nu_sigma=0.01,t0_h=2",
        cfg, err))
        << err;
    EXPECT_DOUBLE_EQ(cfg.thresholdError, 0.25);
    EXPECT_DOUBLE_EQ(cfg.intervalHours, 4.0);
    EXPECT_DOUBLE_EQ(cfg.ageHoursPerRead, 2.0);
    EXPECT_EQ(cfg.spares, 3u);
    EXPECT_EQ(cfg.retries, 5u);
    EXPECT_EQ(cfg.probeReads, 8u);
    EXPECT_DOUBLE_EQ(cfg.drift.nu, 0.3);
    EXPECT_DOUBLE_EQ(cfg.drift.nuSigma, 0.01);
    EXPECT_DOUBLE_EQ(cfg.drift.t0Hours, 2.0);
    EXPECT_TRUE(cfg.enabled());
    EXPECT_EQ(cfg.epochReads(), 8u);
    EXPECT_DOUBLE_EQ(cfg.epochHours(), 16.0);
    EXPECT_FALSE(cfg.toJson().empty());
}

TEST(RefreshConfigParse, ProbeHoursOverridesProbeReads)
{
    RefreshConfig cfg;
    std::string err;
    ASSERT_TRUE(RefreshConfig::parse("age_h_per_read=2,probe_h=8", cfg,
                                     err))
        << err;
    EXPECT_EQ(cfg.epochReads(), 4u);
}

TEST(RefreshConfigParse, EmptySpecStaysDisabled)
{
    RefreshConfig cfg;
    std::string err;
    ASSERT_TRUE(RefreshConfig::parse("", cfg, err)) << err;
    EXPECT_FALSE(cfg.enabled());
}

TEST(RefreshConfigParse, MalformedSpecsRejectedAndOutUntouched)
{
    for (const char* bad : {"bogus=1", "threshold=abc", "threshold=-1",
                            "spares=-2", "probe_reads=0", "t0_h=0",
                            "probe_h=4",      // needs age_h_per_read > 0
                            "interval_h=4",   // needs age_h_per_read > 0
                            "threshold"}) {
        SCOPED_TRACE(bad);
        RefreshConfig cfg;
        cfg.thresholdError = 0.75; // sentinel: must survive a failed parse
        std::string err;
        EXPECT_FALSE(RefreshConfig::parse(bad, cfg, err));
        EXPECT_FALSE(err.empty());
        EXPECT_DOUBLE_EQ(cfg.thresholdError, 0.75);
    }
}

// ---------------------------------------------------------------------------
// Bitwise neutrality

TEST(Health, BlockModeMachineryIsBitwiseNeutral)
{
    // stopAfterReads == n engages the block-mode loop without stopping
    // early; with healing off the result must equal the plain pass
    // bit for bit.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    CrossbarVmmBackend backend(scenario64(), 9);
    const AccuracyResult plain =
        evalWithBackend(backend, EvalOptions(f.dataset).maxReads(8));
    const AccuracyResult blocked = evalWithBackend(
        backend, EvalOptions(f.dataset).maxReads(8).stopAfterReads(8)
                     .checkpointEvery(3));
    EXPECT_FALSE(plain.interrupted);
    EXPECT_FALSE(blocked.interrupted);
    EXPECT_EQ(bits(plain.meanIdentity), bits(blocked.meanIdentity));
    EXPECT_EQ(plain.basesCalled, blocked.basesCalled);
    EXPECT_EQ(plain.readsEvaluated, blocked.readsEvaluated);
}

TEST(Health, ZeroDriftHealingMatchesBaselineBitwise)
{
    // An enabled monitor whose aging is a no-op (nu == 0, no threshold,
    // no schedule) must observe without perturbing: same bits as a
    // healing-free backend with the same seed.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    CrossbarVmmBackend baseline(scenario64(), 11);
    const AccuracyResult expected =
        evalWithBackend(baseline, EvalOptions(f.dataset).maxReads(8));

    RefreshConfig cfg;
    cfg.ageHoursPerRead = 1.0;
    cfg.probeReads = 2;
    cfg.drift = noDrift();
    ScopedRefreshConfig scoped(cfg);
    CrossbarVmmBackend healing(scenario64(), 11);
    ASSERT_NE(healing.health(), nullptr);
    const AccuracyResult observed =
        evalWithBackend(healing, EvalOptions(f.dataset).maxReads(8));

    EXPECT_EQ(bits(expected.meanIdentity), bits(observed.meanIdentity));
    EXPECT_EQ(expected.basesCalled, observed.basesCalled);
    EXPECT_GT(healing.health()->stats().probes, 0u);
    EXPECT_EQ(healing.health()->stats().refreshAttempts, 0u);
}

// ---------------------------------------------------------------------------
// The healing chain

TEST(Health, ThresholdRefreshBeatsUnhealedAgingAccuracy)
{
    // Aggressive drift collapses a trained model's accuracy (an untrained
    // one sits at the noise floor either way, where drift is invisible);
    // threshold-driven refresh must strictly recover some of it.
    setGlobalPoolThreads(0);
    BonitoLiteConfig mcfg;
    mcfg.convChannels = 16;
    mcfg.lstmHidden = 16;
    mcfg.lstmLayers = 2;
    nn::SequenceModel model = buildBonitoLite(mcfg);
    const genomics::PoreModel pore;
    const genomics::Dataset train =
        genomics::makeTrainingDataset(24, 300, pore);
    TrainConfig tc;
    tc.epochs = 10;
    trainCtc(model, chunkDataset(train, 256), tc);
    const genomics::Dataset ds =
        genomics::makeDataset(genomics::specById("D1"), pore, 6);

    RefreshConfig aging;
    aging.ageHoursPerRead = 50.0;
    aging.probeReads = 2;
    aging.drift = harshDrift();

    RefreshConfig healing = aging;
    healing.thresholdError = 0.25;
    healing.spares = 2;
    healing.retries = 2;

    auto eval = [&](CrossbarVmmBackend& backend) {
        model.setBackend(&backend);
        const double acc =
            evaluateAccuracy(model, EvalOptions(ds).maxReads(6))
                .meanIdentity;
        model.setBackend(nullptr);
        return acc;
    };

    double unhealed = 0.0;
    double healed = 0.0;
    {
        ScopedRefreshConfig scoped(aging);
        CrossbarVmmBackend backend(scenario64(), 5);
        unhealed = eval(backend);
        EXPECT_EQ(backend.health()->stats().refreshAttempts, 0u);
    }
    {
        ScopedRefreshConfig scoped(healing);
        CrossbarVmmBackend backend(scenario64(), 5);
        healed = eval(backend);
        const HealthStats& st = backend.health()->stats();
        EXPECT_GT(st.probes, 0u);
        EXPECT_GT(st.unhealthy, 0u);
        EXPECT_GT(st.refreshSuccesses, 0u);
        EXPECT_EQ(st.deadTiles, 0u);
    }
    EXPECT_GT(healed, unhealed);
}

TEST(Health, StuckTileRetriesFailsOverThenDegradesToVmmFault)
{
    // A persistently-stuck column (vmm.stuck at p=1, keyed per hardware
    // generation) defeats re-programming: the monitor must retry, burn
    // the one spare, mark tiles dead, and degrade later read blocks to
    // VmmFault instead of trusting poisoned outputs.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    FaultConfig faults;
    faults.seed = 21;
    faults.setP(FaultSite::VmmStuck, 1.0);
    ScopedFaultConfig scoped_faults(faults);

    RefreshConfig cfg;
    cfg.thresholdError = 0.2;
    cfg.probeReads = 2;
    cfg.spares = 1;
    cfg.retries = 1;
    cfg.drift = noDrift();
    ScopedRefreshConfig scoped(cfg);

    CrossbarVmmBackend backend(scenario64(), 5);
    const AccuracyResult res =
        evalWithBackend(backend, EvalOptions(f.dataset).maxReads(8));

    // The first block ran on live hardware; once spares were exhausted
    // the remaining blocks degraded.
    EXPECT_GE(res.degraded.okReads, 2u);
    EXPECT_GT(res.degraded.vmmFaults, 0u);
    EXPECT_TRUE(backend.healthDegraded());

    const HealthStats& st = backend.health()->stats();
    EXPECT_GT(st.probes, 0u);
    EXPECT_GT(st.unhealthy, 0u);
    EXPECT_GT(st.refreshAttempts, 0u);
    EXPECT_GT(st.refreshFailures, 0u);
    EXPECT_GE(st.failovers, 1u);
    EXPECT_GT(st.deadTiles, 0u);

    // Health state is exported as metrics.
    const MetricsSnapshot snap = metrics().snapshot();
    const auto dead = snap.gauges.find("health.tile.dead");
    ASSERT_NE(dead, snap.gauges.end());
    EXPECT_GT(dead->second, 0.0);
    EXPECT_NE(snap.gauges.find("health.tile.error"), snap.gauges.end());
}

TEST(Health, BackoffGatesRetryEpochs)
{
    // With a generous retry budget and no spares, failed refreshes must
    // follow the exponential backoff schedule: attempts at epochs 1, 3,
    // 7, ... and silence in between.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    FaultConfig faults;
    faults.seed = 21;
    faults.setP(FaultSite::VmmStuck, 1.0);
    ScopedFaultConfig scoped_faults(faults);

    RefreshConfig cfg;
    cfg.thresholdError = 0.2;
    cfg.probeReads = 2;
    cfg.spares = 0;
    cfg.retries = 100; // never fail over: isolate the backoff schedule
    cfg.drift = noDrift();
    ScopedRefreshConfig scoped(cfg);

    CrossbarVmmBackend backend(scenario64(), 5);
    f.model.setBackend(&backend);
    // Program the weights (first forward pass maps them lazily).
    basecallRead(f.model, f.dataset.reads[0]);
    f.model.setBackend(nullptr);
    ASSERT_NE(backend.health(), nullptr);

    std::vector<std::uint64_t> attempts_at; // cumulative, index = epoch
    attempts_at.push_back(backend.health()->stats().refreshAttempts);
    for (int e = 1; e <= 8; ++e) {
        backend.healthEpochAdvance();
        attempts_at.push_back(backend.health()->stats().refreshAttempts);
    }
    EXPECT_GT(attempts_at[1], attempts_at[0]); // first failure
    EXPECT_EQ(attempts_at[2], attempts_at[1]); // backoff: 1 + 2^1 = 3
    EXPECT_GT(attempts_at[3], attempts_at[2]);
    EXPECT_EQ(attempts_at[4], attempts_at[3]); // backoff: 3 + 2^2 = 7
    EXPECT_EQ(attempts_at[5], attempts_at[4]);
    EXPECT_EQ(attempts_at[6], attempts_at[5]);
    EXPECT_GT(attempts_at[7], attempts_at[6]);
    EXPECT_EQ(attempts_at[8], attempts_at[7]);
}

// ---------------------------------------------------------------------------
// Determinism across the execution grid

TEST(Health, HealingIsBitwiseAcrossThreadsAndBatches)
{
    Fixture& f = Fixture::get();
    RefreshConfig cfg;
    cfg.thresholdError = 0.25;
    cfg.ageHoursPerRead = 50.0;
    cfg.probeReads = 2;
    cfg.spares = 2;
    cfg.drift = harshDrift();
    ScopedRefreshConfig scoped(cfg);

    setGlobalPoolThreads(0);
    CrossbarVmmBackend ref_backend(scenario64(), 5);
    const AccuracyResult ref = evalWithBackend(
        ref_backend, EvalOptions(f.dataset).maxReads(8).batch(1));
    ASSERT_GT(ref_backend.health()->stats().refreshSuccesses, 0u);

    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
        for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
            SCOPED_TRACE("threads=" + std::to_string(threads)
                         + " batch=" + std::to_string(batch));
            CrossbarVmmBackend backend(scenario64(), 5);
            const AccuracyResult res = evalWithBackend(
                backend, EvalOptions(f.dataset).maxReads(8)
                             .threads(threads).batch(batch));
            EXPECT_EQ(bits(ref.meanIdentity), bits(res.meanIdentity));
            EXPECT_EQ(ref.basesCalled, res.basesCalled);
            EXPECT_EQ(backend.health()->stats().refreshSuccesses,
                      ref_backend.health()->stats().refreshSuccesses);
            EXPECT_EQ(backend.health()->epoch(),
                      ref_backend.health()->epoch());
        }
    }
    setGlobalPoolThreads(0);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

TEST(Health, CheckpointResumeReproducesUninterruptedRun)
{
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    RefreshConfig cfg;
    cfg.thresholdError = 0.25;
    cfg.ageHoursPerRead = 50.0;
    cfg.probeReads = 2;
    cfg.spares = 2;
    cfg.drift = harshDrift();
    ScopedRefreshConfig scoped(cfg);

    CrossbarVmmBackend full_backend(scenario64(), 7);
    const AccuracyResult full = evalWithBackend(
        full_backend, EvalOptions(f.dataset).maxReads(8));

    const std::string path = tempPath("swordfish_health_ckpt.bin");
    std::remove(path.c_str());

    // First half: stop after 4 reads (two epochs), checkpointing.
    CrossbarVmmBackend first(scenario64(), 7);
    const AccuracyResult half = evalWithBackend(
        first, EvalOptions(f.dataset).maxReads(8).checkpoint(path)
                   .stopAfterReads(4));
    EXPECT_TRUE(half.interrupted);
    EXPECT_EQ(half.completedReads, 4u);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Resume on a fresh backend: must replay the healing history and land
    // on the uninterrupted run's exact bits.
    CrossbarVmmBackend second(scenario64(), 7);
    const AccuracyResult resumed = evalWithBackend(
        second, EvalOptions(f.dataset).maxReads(8).checkpoint(path));
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.completedReads, 8u);
    EXPECT_EQ(bits(full.meanIdentity), bits(resumed.meanIdentity));
    EXPECT_EQ(full.basesCalled, resumed.basesCalled);
    EXPECT_EQ(full_backend.health()->epoch(), second.health()->epoch());
    std::remove(path.c_str());
}

TEST(Health, CorruptCheckpointIsIgnoredNotTrusted)
{
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    RefreshConfig cfg;
    cfg.ageHoursPerRead = 1.0;
    cfg.probeReads = 2;
    cfg.drift = noDrift();
    ScopedRefreshConfig scoped(cfg);

    CrossbarVmmBackend clean(scenario64(), 7);
    const AccuracyResult expected =
        evalWithBackend(clean, EvalOptions(f.dataset).maxReads(8));

    const std::string path = tempPath("swordfish_health_bad_ckpt.bin");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a checkpoint";
    }
    CrossbarVmmBackend backend(scenario64(), 7);
    const AccuracyResult res = evalWithBackend(
        backend, EvalOptions(f.dataset).maxReads(8).checkpoint(path));
    EXPECT_FALSE(res.interrupted);
    EXPECT_EQ(res.completedReads, 8u);
    EXPECT_EQ(bits(expected.meanIdentity), bits(res.meanIdentity));
    std::remove(path.c_str());
}

TEST(Health, OlderVersionCheckpointIsIgnoredNotResumed)
{
    // A checkpoint from a build whose conversion-noise stream differed
    // holds that stream's reads; resuming it would splice them onto this
    // build's reads. Take a real checkpoint, stamp it with the previous
    // format version (1) and poison its prefix identities: the resumed
    // run must still equal a clean run bitwise.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    RefreshConfig cfg;
    cfg.thresholdError = 0.25;
    cfg.ageHoursPerRead = 50.0;
    cfg.probeReads = 2;
    cfg.spares = 2;
    cfg.drift = harshDrift();
    ScopedRefreshConfig scoped(cfg);

    CrossbarVmmBackend clean(scenario64(), 7);
    const AccuracyResult expected =
        evalWithBackend(clean, EvalOptions(f.dataset).maxReads(8));

    const std::string path = tempPath("swordfish_health_v1_ckpt.bin");
    std::remove(path.c_str());
    CrossbarVmmBackend first(scenario64(), 7);
    const AccuracyResult half = evalWithBackend(
        first, EvalOptions(f.dataset).maxReads(8).checkpoint(path)
                   .stopAfterReads(4));
    ASSERT_TRUE(half.interrupted);
    ASSERT_EQ(half.completedReads, 4u);

    // Layout: magic, version, fingerprint, prefix length, then per read
    // (outcome, identity, bases), eight bytes each.
    {
        std::fstream io(path, std::ios::in | std::ios::out
                                  | std::ios::binary);
        ASSERT_TRUE(io.good());
        std::uint64_t prefix = 0;
        io.seekg(24);
        io.read(reinterpret_cast<char*>(&prefix), sizeof(prefix));
        ASSERT_EQ(prefix, 4u);
        const std::uint64_t old_version = 1;
        io.seekp(8);
        io.write(reinterpret_cast<const char*>(&old_version), 8);
        const double poison = 0.125;
        for (std::uint64_t i = 0; i < prefix; ++i) {
            io.seekp(static_cast<std::streamoff>(32 + 24 * i + 8));
            io.write(reinterpret_cast<const char*>(&poison), 8);
        }
        ASSERT_TRUE(io.good());
    }

    CrossbarVmmBackend second(scenario64(), 7);
    const AccuracyResult res = evalWithBackend(
        second, EvalOptions(f.dataset).maxReads(8).checkpoint(path));
    EXPECT_FALSE(res.interrupted);
    EXPECT_EQ(res.completedReads, 8u);
    EXPECT_EQ(bits(expected.meanIdentity), bits(res.meanIdentity));
    EXPECT_EQ(expected.basesCalled, res.basesCalled);
    std::remove(path.c_str());
}

TEST(Health, GracefulShutdownCheckpointsAndResumes)
{
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    RefreshConfig cfg;
    cfg.thresholdError = 0.25;
    cfg.ageHoursPerRead = 50.0;
    cfg.probeReads = 2;
    cfg.spares = 2;
    cfg.drift = harshDrift();
    ScopedRefreshConfig scoped(cfg);

    CrossbarVmmBackend full_backend(scenario64(), 13);
    const AccuracyResult full = evalWithBackend(
        full_backend, EvalOptions(f.dataset).maxReads(8));

    const std::string path = tempPath("swordfish_health_sig_ckpt.bin");
    std::remove(path.c_str());

    // A shutdown request arriving before the run stops it at the first
    // block boundary — in-flight reads finish, the checkpoint lands.
    requestShutdown();
    CrossbarVmmBackend first(scenario64(), 13);
    const AccuracyResult cut = evalWithBackend(
        first, EvalOptions(f.dataset).maxReads(8).checkpoint(path));
    clearShutdownRequest();
    EXPECT_TRUE(cut.interrupted);
    EXPECT_GT(cut.completedReads, 0u);
    EXPECT_LT(cut.completedReads, 8u);
    ASSERT_TRUE(std::filesystem::exists(path));

    CrossbarVmmBackend second(scenario64(), 13);
    const AccuracyResult resumed = evalWithBackend(
        second, EvalOptions(f.dataset).maxReads(8).checkpoint(path));
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(bits(full.meanIdentity), bits(resumed.meanIdentity));
    EXPECT_EQ(full.basesCalled, resumed.basesCalled);
    std::remove(path.c_str());
}

TEST(Health, InterruptedSweepFoldsOnlyCompleteRuns)
{
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const std::string path = tempPath("swordfish_health_sweep_ckpt");
    for (std::size_t r = 0; r < 3; ++r)
        std::remove((path + ".run" + std::to_string(r)).c_str());

    const EvalRequest req = EvalOptions(f.dataset).runs(3).maxReads(4)
                                .seedBase(31).checkpoint(path);
    const AccuracySummary full =
        evaluateNonIdealAccuracy(f.model, scenario64(), req);
    EXPECT_FALSE(full.interrupted);
    EXPECT_EQ(full.runs, 3u);

    // A pre-existing shutdown request skips every run: nothing folds.
    for (std::size_t r = 0; r < 3; ++r)
        std::remove((path + ".run" + std::to_string(r)).c_str());
    requestShutdown();
    const AccuracySummary none =
        evaluateNonIdealAccuracy(f.model, scenario64(), req);
    clearShutdownRequest();
    EXPECT_TRUE(none.interrupted);
    EXPECT_EQ(none.runs, 0u);

    // Resuming after the aborted sweep reproduces the full summary.
    const AccuracySummary resumed =
        evaluateNonIdealAccuracy(f.model, scenario64(), req);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(bits(full.mean), bits(resumed.mean));
    EXPECT_EQ(bits(full.stddev), bits(resumed.stddev));
    for (std::size_t r = 0; r < 3; ++r)
        std::remove((path + ".run" + std::to_string(r)).c_str());
}
