/** @file Golden-snapshot regression test: evaluates a fixed-seed model on
 *  the ideal, non-ideal, fault-injected and ensemble refresh paths and
 *  diffs the numbers against tests/golden/eval_golden.json. Any
 *  unintentional change to the numerics (noise streams, batching,
 *  reductions, fault schedule, tile programming and healing) shows up as
 *  a diff here even when the determinism invariants still hold. The
 *  crossbar legs set their noise spec and refresh policy and every leg
 *  its fault campaign, so SWORDFISH_NOISE, SWORDFISH_REFRESH and
 *  SWORDFISH_FAULTS cannot move the snapshot.
 *
 *  Regenerate intentionally with:
 *      test_golden --golden <path> --update-golden
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "basecall/basecaller.h"
#include "basecall/bonito_lite.h"
#include "core/evaluator.h"
#include "core/nonideality.h"
#include "genomics/dataset.h"
#include "tensor/simd.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

using namespace swordfish;
using namespace swordfish::basecall;

namespace {

std::string g_golden_path;
bool g_update_golden = false;
bool g_pinned_leg = false; ///< a ctest leg that pins a lower SIMD level

/** The snapshot: an ordered flat map so the JSON is stable and diffable. */
using Snapshot = std::map<std::string, double>;

/** Serialize with max_digits10 so doubles round-trip exactly. */
std::string
toJson(const Snapshot& snap)
{
    std::ostringstream out;
    out.precision(17);
    out << "{\n";
    bool first = true;
    for (const auto& [key, value] : snap) {
        if (!first)
            out << ",\n";
        first = false;
        out << "  \"" << key << "\": " << value;
    }
    out << "\n}\n";
    return out.str();
}

/** Minimal parser for the flat {"key": number, ...} files we write. */
bool
fromJson(std::istream& is, Snapshot& out)
{
    out.clear();
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    std::size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        const std::size_t close = text.find('"', pos + 1);
        if (close == std::string::npos)
            return false;
        const std::string key = text.substr(pos + 1, close - pos - 1);
        const std::size_t colon = text.find(':', close);
        if (colon == std::string::npos)
            return false;
        const char* start = text.c_str() + colon + 1;
        char* end = nullptr;
        const double value = std::strtod(start, &end);
        if (end == start)
            return false;
        out[key] = value;
        pos = static_cast<std::size_t>(end - text.c_str());
    }
    return !out.empty();
}

/** One metrics counter, summed over every thread shard. */
double
counterValue(const std::string& name)
{
    const MetricsSnapshot snap = metrics().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/**
 * Ensemble (K = 4) evaluations under composed device noise and the
 * self-healing runtime: the tile programming, aging, probing and
 * re-programming of every replica. Scenario, noise spec, refresh policy
 * and fault campaign are all explicit, so the legs ignore SWORDFISH_NOISE,
 * SWORDFISH_REFRESH and SWORDFISH_FAULTS. Each leg runs its two runs on
 * two pool workers, which program, age and refresh their backends'
 * replicas side by side (the tsan preset runs this test); by the
 * determinism contract the values are bitwise the serial ones. Each leg
 * also pins the programming faults and healing activity it caused: the
 * counters sum every thread's shard, so the deltas are exact.
 */
void
refreshLegs(nn::SequenceModel& model, const genomics::Dataset& dataset,
            Snapshot& snap)
{
    const auto leg = [&](const std::string& prefix,
                         const core::RefreshConfig& refresh,
                         const FaultConfig& faults) {
        core::NonIdealityConfig scenario;
        scenario.kind = core::NonIdealityKind::Combined;
        scenario.crossbar.size = 64;
        scenario.noise = "preset=combined,rtn.amp=0.05,disturb.rate=0.01,"
                         "disturb.reads=1000";
        scenario.refresh = refresh;
        const std::pair<const char*, const char*> kCounters[] = {
            {"program_faults", "fault.injected.program_tiles"},
            {"probes", "health.probe.count"},
            {"unhealthy", "health.probe.unhealthy"},
            {"refresh_attempts", "health.refresh.attempts"},
            {"refresh_successes", "health.refresh.success"},
            {"refresh_failures", "health.refresh.failure"},
            {"failovers", "health.failover.count"},
            {"dead_tiles", "health.tile.died"}};
        std::map<std::string, double> before;
        for (const auto& [key, counter] : kCounters)
            before[key] = counterValue(counter);
        const core::AccuracySummary s = core::evaluateNonIdealAccuracy(
            model, {scenario},
            core::EvalOptions(dataset).runs(2).maxReads(4).seedBase(11)
                .ensembleK(4).faults(faults).threads(2));
        snap[prefix + ".mean"] = s.mean;
        snap[prefix + ".stddev"] = s.stddev;
        snap[prefix + ".min"] = s.min;
        snap[prefix + ".max"] = s.max;
        snap[prefix + ".runs"] = static_cast<double>(s.runs);
        snap[prefix + ".ok"] = static_cast<double>(s.degraded.okReads);
        snap[prefix + ".vmm_faults"] =
            static_cast<double>(s.degraded.vmmFaults);
        for (const auto& [key, counter] : kCounters)
            snap[prefix + "." + key] = counterValue(counter) - before[key];
    };

    // (a) An interval schedule due at every epoch (one read, one hour):
    // every tile and replica is re-programmed three times per run.
    core::RefreshConfig interval;
    interval.intervalHours = 1.0;
    interval.ageHoursPerRead = 1.0;
    interval.probeReads = 1;
    leg("refresh.interval", interval, FaultConfig{});

    // (b) Aging with no refresh policy: every replica keeps drifting.
    core::RefreshConfig aging;
    aging.ageHoursPerRead = 1.0;
    aging.probeReads = 1;
    leg("refresh.aging", aging, FaultConfig{});

    // (c) A threshold policy with one spare per weight, one retry per
    // array and tile-programming faults: a refresh zeroed by a fault, a
    // backoff epoch, a failover and a dead tile (which degrades the
    // reads after it) all occur.
    core::RefreshConfig threshold;
    threshold.thresholdError = 0.2;
    threshold.ageHoursPerRead = 1.0;
    threshold.probeReads = 1;
    threshold.spares = 1;
    threshold.retries = 1;
    FaultConfig program_faults;
    program_faults.seed = 1;
    program_faults.setP(FaultSite::TileProgram, 0.5);
    leg("refresh.threshold", threshold, program_faults);
}

/** Fixed-seed evaluation of every numeric the snapshot guards. */
Snapshot
computeSnapshot()
{
    setGlobalPoolThreads(0);

    BonitoLiteConfig cfg;
    cfg.convChannels = 8;
    cfg.lstmHidden = 8;
    cfg.lstmLayers = 1;
    nn::SequenceModel model = buildBonitoLite(cfg);
    const genomics::PoreModel pore;
    const genomics::Dataset dataset =
        genomics::makeDataset(genomics::specById("D1"), pore, 4);

    Snapshot snap;

    // Ideal digital execution. This leg and the non-ideal one set an
    // empty fault campaign, so SWORDFISH_FAULTS cannot move them.
    const AccuracyResult ideal = evaluateAccuracy(
        model, EvalOptions(dataset).maxReads(4).faults(FaultConfig{}));
    snap["ideal.mean_identity"] = ideal.meanIdentity;
    snap["ideal.min_identity"] = ideal.minIdentity;
    snap["ideal.reads"] = static_cast<double>(ideal.readsEvaluated);
    snap["ideal.bases"] = static_cast<double>(ideal.basesCalled);

    // Non-ideal crossbars, fixed seed base, two Monte-Carlo runs. The
    // explicit noise spec pins the scenario to the Combined preset
    // through the composable-noise layer: it must reproduce the
    // pre-NoiseModel numbers bitwise, and (explicit spec > process
    // override) it makes the snapshot immune to a SWORDFISH_NOISE value
    // set in the environment, e.g. by a CI matrix leg. The all-off
    // refresh policy does the same for SWORDFISH_REFRESH.
    core::NonIdealityConfig scenario;
    scenario.kind = core::NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    scenario.noise = "preset=combined";
    scenario.refresh = core::RefreshConfig{};
    const core::AccuracySummary nonideal = core::evaluateNonIdealAccuracy(
        model, {scenario},
        core::EvalOptions(dataset).runs(2).maxReads(4).seedBase(7).faults(
            FaultConfig{}));
    snap["nonideal.mean"] = nonideal.mean;
    snap["nonideal.stddev"] = nonideal.stddev;
    snap["nonideal.min"] = nonideal.min;
    snap["nonideal.max"] = nonideal.max;
    snap["nonideal.runs"] = static_cast<double>(nonideal.runs);

    // Fault-injected evaluation: the degraded breakdown is part of the
    // guarded surface (a fault-schedule change must show up here).
    FaultConfig faults;
    faults.seed = 21;
    faults.maxRetries = 1;
    faults.setP(FaultSite::ReadDecode, 0.3);
    faults.setP(FaultSite::WorkerTask, 0.4);
    const AccuracyResult degraded = evaluateAccuracy(
        model, EvalOptions(dataset).maxReads(4).faults(faults));
    snap["fault.mean_identity"] = degraded.meanIdentity;
    snap["fault.reads"] = static_cast<double>(degraded.readsEvaluated);
    snap["fault.ok"] = static_cast<double>(degraded.degraded.okReads);
    snap["fault.retried"] =
        static_cast<double>(degraded.degraded.retriedReads);
    snap["fault.decode_errors"] =
        static_cast<double>(degraded.degraded.decodeErrors);
    snap["fault.vmm_faults"] =
        static_cast<double>(degraded.degraded.vmmFaults);

    refreshLegs(model, dataset, snap);
    return snap;
}

} // namespace

TEST(Golden, EvaluationMatchesSnapshot)
{
    ASSERT_FALSE(g_golden_path.empty())
        << "pass --golden <path> (ctest wires this automatically)";
    // ctest's test_golden_avx2 / test_golden_scalar pass --pinned-leg and
    // pin a lower level through SWORDFISH_SIMD. Without AVX2 the plain run
    // is already the scalar one, and the avx2 pin cannot run.
    if (g_pinned_leg && !cpuSupportsAvx2())
        GTEST_SKIP() << "this CPU lacks AVX2: test_golden already covers "
                        "its one level";

    const Snapshot actual = computeSnapshot();

    if (g_update_golden) {
        // Atomic rewrite: an interrupted --update-golden never leaves a
        // half-written snapshot for the next run to diff against.
        ASSERT_TRUE(swordfish::atomicWriteFile(g_golden_path,
                                               toJson(actual)))
            << "cannot write " << g_golden_path;
        GTEST_SKIP() << "golden snapshot rewritten: " << g_golden_path;
    }

    std::ifstream in(g_golden_path);
    ASSERT_TRUE(in) << "missing golden file " << g_golden_path
                    << " — regenerate with --update-golden";
    Snapshot golden;
    ASSERT_TRUE(fromJson(in, golden)) << "unparseable " << g_golden_path;

    for (const auto& [key, expected] : golden) {
        const auto it = actual.find(key);
        ASSERT_NE(it, actual.end()) << "snapshot lost key " << key;
        // Counts are exact; identities tolerate only round-trip noise.
        EXPECT_NEAR(it->second, expected, 1e-12) << key;
    }
    for (const auto& [key, value] : actual) {
        (void)value;
        EXPECT_TRUE(golden.count(key))
            << "new key " << key << " — regenerate the golden file";
    }
}

int
main(int argc, char** argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--golden") == 0 && i + 1 < argc)
            g_golden_path = argv[++i];
        else if (std::strcmp(argv[i], "--update-golden") == 0)
            g_update_golden = true;
        else if (std::strcmp(argv[i], "--pinned-leg") == 0)
            g_pinned_leg = true;
    }
    return RUN_ALL_TESTS();
}
