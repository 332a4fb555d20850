/** @file Golden-snapshot regression test: evaluates a fixed-seed model on
 *  the ideal, non-ideal, and fault-injected paths and diffs the numbers
 *  against tests/golden/eval_golden.json. Any unintentional change to the
 *  numerics (noise streams, batching, reductions, fault schedule) shows up
 *  as a diff here even when the determinism invariants still hold.
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

    // Ideal digital execution.
    const AccuracyResult ideal =
        evaluateAccuracy(model, EvalOptions(dataset).maxReads(4));
    snap["ideal.mean_identity"] = ideal.meanIdentity;
    snap["ideal.min_identity"] = ideal.minIdentity;
    snap["ideal.reads"] = static_cast<double>(ideal.readsEvaluated);
    snap["ideal.bases"] = static_cast<double>(ideal.basesCalled);

    // Non-ideal crossbars, fixed seed base, two Monte-Carlo runs. The
    // explicit noise spec pins the scenario to the Combined preset
    // through the composable-noise layer: it must reproduce the
    // pre-NoiseModel numbers bitwise, and (explicit spec > process
    // override) it makes the snapshot immune to a SWORDFISH_NOISE value
    // set in the environment, e.g. by a CI matrix leg.
    core::NonIdealityConfig scenario;
    scenario.kind = core::NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    scenario.noise = "preset=combined";
    const core::AccuracySummary nonideal = core::evaluateNonIdealAccuracy(
        model, {scenario},
        core::EvalOptions(dataset).runs(2).maxReads(4).seedBase(7));
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
