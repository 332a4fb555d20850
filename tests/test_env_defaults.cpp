/** @file The SWORDFISH_* defaults under a real environment. The
 *  test_env_defaults ctest entry sets SWORDFISH_FAULTS, SWORDFISH_REFRESH
 *  and SWORDFISH_NOISE; these tests check that every owner given no
 *  setting (request, scenario, backend, job, daemon) picks each one up,
 *  that an explicit setting wins even when all-off, and that the ideal and
 *  measured arms ignore the noise override. They skip when the variables
 *  are unset. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "basecall/basecaller.h"
#include "basecall/bonito_lite.h"
#include "core/evaluator.h"
#include "core/health.h"
#include "core/noise_model.h"
#include "core/registry.h"
#include "core/vmm_backend.h"
#include "genomics/dataset.h"
#include "service/job_manager.h"
#include "service/job_spec.h"
#include "util/fault.h"
#include "util/thread_pool.h"

using namespace swordfish;
using namespace swordfish::core;

namespace {

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** The variable's value, or "" when unset. */
std::string
env(const char* name)
{
    const char* v = std::getenv(name);
    return v != nullptr ? v : "";
}

/** True when the three variables these tests read are all set. */
bool
haveEnv()
{
    return !env(kFaultsEnv).empty() && !env(kRefreshEnv).empty()
        && !env("SWORDFISH_NOISE").empty();
}

constexpr const char* kSkipReason =
    "set SWORDFISH_FAULTS, SWORDFISH_REFRESH and SWORDFISH_NOISE (the "
    "test_env_defaults ctest entry does)";

FaultConfig
envFaults()
{
    FaultConfig cfg;
    std::string error;
    std::string spec = env(kFaultsEnv);
    const std::string chaos = env(kChaosEnv);
    if (!chaos.empty())
        spec += "," + chaos;
    EXPECT_TRUE(FaultConfig::parse(spec, cfg, error)) << error;
    return cfg;
}

RefreshConfig
envRefresh()
{
    RefreshConfig cfg;
    std::string error;
    EXPECT_TRUE(RefreshConfig::parse(env(kRefreshEnv), cfg, error)) << error;
    return cfg;
}

NonIdealityConfig
scenario64()
{
    NonIdealityConfig s;
    s.kind = NonIdealityKind::Combined;
    s.crossbar.size = 64;
    return s;
}

/** Small untrained model + 6-read dataset. */
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

  private:
    Fixture()
    {
        basecall::BonitoLiteConfig cfg;
        cfg.convChannels = 8;
        cfg.lstmHidden = 8;
        cfg.lstmLayers = 1;
        model = basecall::buildBonitoLite(cfg);
        const genomics::PoreModel pore;
        dataset = genomics::makeDataset(genomics::specById("D1"), pore, 6);
    }
};

AccuracySummary
monteCarlo(const EvalOptions& opts)
{
    Fixture& f = Fixture::get();
    return evaluateNonIdealAccuracy(f.model, {scenario64()}, opts);
}

} // namespace

TEST(EnvDefaults, UnsetOwnersTakeTheEnvFaults)
{
    if (!haveEnv())
        GTEST_SKIP() << kSkipReason;
    const FaultConfig faults = envFaults();
    ASSERT_TRUE(faults.anyEnabled());
    EXPECT_EQ(envFaultConfig().toJson(), faults.toJson());
    EXPECT_EQ(basecall::resolvedFaults(EvalRequest{}).toJson(),
              faults.toJson());
    EXPECT_EQ(BackendSpec{}.faults.toJson(), faults.toJson());
    EXPECT_EQ(service::JobManagerConfig{}.chaos.toJson(), faults.toJson());

    // An unset request (and, through it, each run's backend) degrades
    // exactly like one given the env campaign explicitly.
    setGlobalPoolThreads(0);
    Fixture& f = Fixture::get();
    const EvalOptions base =
        EvalOptions(f.dataset).runs(2).maxReads(6).seedBase(7);
    const AccuracySummary unset = monteCarlo(base);
    const AccuracySummary pinned =
        monteCarlo(EvalOptions(base).faults(faults));
    EXPECT_GT(unset.degraded.skippedReads(), 0u);
    EXPECT_EQ(bits(unset.mean), bits(pinned.mean));
    EXPECT_EQ(unset.degraded.skippedReads(), pinned.degraded.skippedReads());
    EXPECT_EQ(unset.degraded.retriedReads, pinned.degraded.retriedReads);

    // A job with no "faults" runs the env campaign too.
    service::JobSpec spec;
    spec.kind = service::JobKind::Eval;
    spec.datasetReads = 6;
    const service::JobResult job_unset = service::runJobSpec(spec);
    spec.faults = env(kFaultsEnv);
    const service::JobResult job_pinned = service::runJobSpec(spec);
    EXPECT_GT(job_unset.skipped, 0u);
    EXPECT_EQ(job_unset.skipped, job_pinned.skipped);
    EXPECT_EQ(bits(job_unset.mean), bits(job_pinned.mean));
}

TEST(EnvDefaults, ExplicitFaultsWinEvenAllOff)
{
    if (!haveEnv())
        GTEST_SKIP() << kSkipReason;
    setGlobalPoolThreads(0);
    Fixture& f = Fixture::get();
    const EvalOptions base =
        EvalOptions(f.dataset).runs(2).maxReads(6).seedBase(7);
    const AccuracySummary off = monteCarlo(EvalOptions(base).faults({}));
    EXPECT_EQ(off.degraded.okReads, 12u);
    EXPECT_EQ(off.degraded.skippedReads(), 0u);

    FaultConfig decode_all;
    decode_all.setP(FaultSite::ReadDecode, 1.0);
    const AccuracySummary dead =
        monteCarlo(EvalOptions(base).faults(decode_all));
    EXPECT_EQ(dead.degraded.decodeErrors, 12u);

    // A backend given an all-off campaign programs clean tiles, like one
    // built before any campaign existed.
    CrossbarVmmBackend clean(scenario64(), 5, FaultConfig{});
    f.model.setBackend(&clean);
    const basecall::AccuracyResult res = basecall::evaluateAccuracy(
        f.model, EvalOptions(f.dataset).maxReads(6).faults({}));
    f.model.setBackend(nullptr);
    EXPECT_EQ(res.degraded.okReads, 6u);
}

TEST(EnvDefaults, UnsetScenarioTakesTheEnvRefresh)
{
    if (!haveEnv())
        GTEST_SKIP() << kSkipReason;
    const RefreshConfig refresh = envRefresh();
    ASSERT_TRUE(refresh.enabled());
    EXPECT_EQ(envRefreshConfig().toJson(), refresh.toJson());

    CrossbarVmmBackend unset(scenario64(), 5);
    ASSERT_NE(unset.health(), nullptr);
    EXPECT_EQ(unset.health()->config().toJson(), refresh.toJson());

    // An explicit policy wins, and an all-off one turns healing off.
    NonIdealityConfig off = scenario64();
    off.refresh = RefreshConfig{};
    EXPECT_EQ(CrossbarVmmBackend(off, 5).health(), nullptr);
    RefreshConfig other;
    other.intervalHours = 3.0;
    other.ageHoursPerRead = 1.0;
    NonIdealityConfig pinned = scenario64();
    pinned.refresh = other;
    const CrossbarVmmBackend backend(pinned, 5);
    ASSERT_NE(backend.health(), nullptr);
    EXPECT_EQ(backend.health()->config().toJson(), other.toJson());

    // The measured arm has no live tiles to heal.
    NonIdealityConfig measured = scenario64();
    measured.kind = NonIdealityKind::Measured;
    EXPECT_EQ(CrossbarVmmBackend(measured, 5).health(), nullptr);
}

TEST(EnvDefaults, NoiseOverrideReachesOnlyTheNoisyArms)
{
    if (!haveEnv())
        GTEST_SKIP() << kSkipReason;
    EXPECT_EQ(noiseOverrideSpec(), env("SWORDFISH_NOISE"));

    // An unset scenario composes the override onto its preset...
    NoiseModel expected;
    std::string error;
    ASSERT_TRUE(NoiseModel::parse(
        env("SWORDFISH_NOISE"), NoiseModel::preset(NonIdealityKind::Combined),
        expected, error))
        << error;
    ASSERT_FALSE(expected == NoiseModel::preset(NonIdealityKind::Combined));
    EXPECT_TRUE(resolveNoiseModel(scenario64()) == expected);
    EXPECT_TRUE(CrossbarVmmBackend(scenario64(), 5).noiseModel() == expected);

    // ...an explicit spec wins...
    NonIdealityConfig pinned = scenario64();
    pinned.noise = "preset=combined";
    EXPECT_TRUE(resolveNoiseModel(pinned)
                == NoiseModel::preset(NonIdealityKind::Combined));

    // ...and the None and Measured arms ignore it.
    for (const NonIdealityKind kind :
         {NonIdealityKind::None, NonIdealityKind::Measured}) {
        NonIdealityConfig arm = scenario64();
        arm.kind = kind;
        EXPECT_TRUE(resolveNoiseModel(arm) == NoiseModel::preset(kind))
            << nonIdealityName(kind);
    }
}
