/** @file End-to-end integration tests: a small basecaller trained briefly,
 *  then pushed through the full Swordfish flow (quantize -> partition ->
 *  non-ideal evaluation -> mitigation), checking the relationships the
 *  framework exists to measure. */

#include <gtest/gtest.h>

#include "basecall/basecaller.h"
#include "basecall/bonito_lite.h"
#include "basecall/pipeline.h"
#include "basecall/trainer.h"
#include "core/swordfish.h"
#include "test_util.h"
#include "util/thread_pool.h"

using namespace swordfish;
using namespace swordfish::core;
using namespace swordfish::basecall;
using namespace swordfish::genomics;

namespace {

/** Shared, lazily-trained small model + data (one training for the file). */
struct World
{
    static World&
    get()
    {
        static World w;
        return w;
    }

    nn::SequenceModel model;
    Dataset dataset;
    std::vector<TrainChunk> chunks;
    double idealAccuracy = 0.0;

  private:
    World()
    {
        const PoreModel pore;
        BonitoLiteConfig cfg;
        cfg.convChannels = 16;
        cfg.lstmHidden = 16;
        cfg.lstmLayers = 2;
        model = buildBonitoLite(cfg);

        const Dataset train = makeTrainingDataset(24, 300, pore);
        chunks = chunkDataset(train, 256);
        TrainConfig tc;
        tc.epochs = 10;
        trainCtc(model, chunks, tc);

        dataset = makeDataset(specById("D1"), pore, 4);
        idealAccuracy = evaluateAccuracy(model, dataset, 4).meanIdentity;
    }
};

} // namespace

TEST(Integration, TrainingReachesUsableAccuracy)
{
    World& w = World::get();
    // A briefly-trained small model won't hit 97%, but it must be far
    // above the ~25% random-sequence floor for the rest to be meaningful.
    EXPECT_GT(w.idealAccuracy, 0.55);
}

TEST(Integration, SixteenBitDeploymentIsLossless)
{
    World& w = World::get();
    const double q16 = evaluateQuantizedAccuracy(
        w.model, QuantConfig::deployment(),
        EvalOptions(w.dataset).maxReads(4)).meanIdentity;
    EXPECT_NEAR(q16, w.idealAccuracy, 0.01);
}

TEST(Integration, ExtremeQuantizationHurts)
{
    World& w = World::get();
    const double q2 = evaluateQuantizedAccuracy(
        w.model, QuantConfig{4, 2}, EvalOptions(w.dataset).maxReads(4))
        .meanIdentity;
    EXPECT_LT(q2, w.idealAccuracy - 0.02);
}

TEST(Integration, CombinedNonIdealitiesDegradeAccuracy)
{
    World& w = World::get();
    auto student = quantizeModel(w.model, QuantConfig::deployment());
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    const auto s = evaluateNonIdealAccuracy(
        student, scenario, EvalOptions(w.dataset).runs(2).maxReads(4));
    EXPECT_LT(s.mean, w.idealAccuracy - 0.03);
}

TEST(Integration, WriteVerifyProgrammingRecoversAccuracy)
{
    World& w = World::get();
    auto student = quantizeModel(w.model, QuantConfig::deployment());
    NonIdealityConfig pulse;
    pulse.kind = NonIdealityKind::SynapticWires;
    pulse.crossbar.size = 64;
    pulse.crossbar.writeVariationRate = 0.25;
    NonIdealityConfig wrv = pulse;
    wrv.crossbar.scheme = crossbar::WriteScheme::WriteReadVerify;

    const auto noisy = evaluateNonIdealAccuracy(
        student, pulse, EvalOptions(w.dataset).runs(3).maxReads(4));
    const auto verified = evaluateNonIdealAccuracy(
        student, wrv, EvalOptions(w.dataset).runs(3).maxReads(4));
    EXPECT_GT(verified.mean, noisy.mean);
}

TEST(Integration, RsaRemapRecoversAccuracy)
{
    World& w = World::get();
    auto student = quantizeModel(w.model, QuantConfig::deployment());
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Measured;
    scenario.crossbar.size = 64;
    scenario.library.cellSigma = 0.3; // strong, so the remap is visible

    const auto base = evaluateNonIdealAccuracy(
        student, scenario, EvalOptions(w.dataset).runs(3).maxReads(4));
    SramRemapConfig remap;
    remap.fraction = 0.10;
    const auto fixed = evaluateNonIdealAccuracy(
        student, {scenario, remap},
        EvalOptions(w.dataset).runs(3).maxReads(4));
    EXPECT_GT(fixed.mean, base.mean);
}

TEST(Integration, ErrorAwareRemapBeatsRandomRemap)
{
    World& w = World::get();
    auto student = quantizeModel(w.model, QuantConfig::deployment());
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Measured;
    scenario.crossbar.size = 64;
    scenario.library.cellSigma = 0.3;

    SramRemapConfig aware;
    aware.fraction = 0.05;
    aware.useErrorKnowledge = true;
    SramRemapConfig random = aware;
    random.useErrorKnowledge = false;

    const auto a = evaluateNonIdealAccuracy(
        student, {scenario, aware},
        EvalOptions(w.dataset).runs(4).maxReads(4));
    const auto r = evaluateNonIdealAccuracy(
        student, {scenario, random},
        EvalOptions(w.dataset).runs(4).maxReads(4));
    // Paper Section 3.4.4: profile knowledge beats random choice.
    EXPECT_GT(a.mean, r.mean - 0.01);
}

TEST(Integration, PipelineRunsAndBasecallingDominates)
{
    World& w = World::get();
    // A serial pipeline: the basecall stage shards its reads across the
    // pool while the mapping stage's index build is serial, so with a
    // wider pool the share below would follow the number of free cores.
    // Twelve reads keep basecalling well above the index build (about
    // 2.5x on a 4-vCPU VM), so one host stall cannot sink the share.
    const Dataset reads = makeDataset(specById("D1"), PoreModel{}, 12);
    const std::size_t pool_width = globalPool().threadCount();
    const auto report =
        runPipeline(w.model, EvalOptions(reads).threads(1));
    setGlobalPoolThreads(pool_width);
    ASSERT_EQ(report.stages.size(), 3u);
    EXPECT_GT(report.totalSeconds, 0.0);
    double fraction_sum = 0.0;
    for (const auto& s : report.stages)
        fraction_sum += s.fractionOfTotal;
    EXPECT_NEAR(fraction_sum, 1.0, 1e-9);
    // The paper's Fig. 1 observation, reproduced in miniature.
    EXPECT_GT(report.stages[0].fractionOfTotal, 0.40);
    // Seed-and-extend mapping needs exact 13-mers, which a briefly
    // trained ~75%-accuracy fixture almost never produces; only check
    // the mapped fraction when the basecaller is strong enough for the
    // check to be meaningful (the full-strength bench path always is).
    if (w.idealAccuracy > 0.93) {
        EXPECT_GT(report.mappedFraction, 0.5);
    }
}

TEST(Integration, PartitionCoversDeployedModel)
{
    World& w = World::get();
    auto student = quantizeModel(w.model, QuantConfig::deployment());
    const auto map = arch::buildPartitionMap(student, 64);
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    CrossbarVmmBackend backend(scenario, 1);
    ASSERT_TRUE(backend.compile(student).ok());
    // The backend must have programmed exactly the tiles the Partition &
    // Map module predicted.
    EXPECT_EQ(backend.programmedTiles(), map.totalTiles());
}
