/** @file Tests for the Accuracy Enhancer and the System Evaluator, on a
 *  deliberately tiny network/corpus so they run fast. */

#include <gtest/gtest.h>

#include <cstring>

#include "basecall/bonito_lite.h"
#include "core/context.h"
#include "core/deploy.h"
#include "core/enhancer.h"
#include "core/evaluator.h"
#include "genomics/dataset.h"
#include "test_util.h"

using namespace swordfish;
using namespace swordfish::core;
using namespace swordfish::basecall;
using namespace swordfish::genomics;

namespace {

BonitoLiteConfig
tinyConfig()
{
    BonitoLiteConfig cfg;
    cfg.convChannels = 8;
    cfg.lstmHidden = 8;
    cfg.lstmLayers = 1;
    return cfg;
}

struct Fixture
{
    Fixture()
        : teacher(buildBonitoLite(tinyConfig()))
    {
        const PoreModel pore;
        const Dataset train = makeTrainingDataset(3, 150, pore);
        chunks = chunkDataset(train, 256);
        dataset = makeDataset(specById("D1"), pore, 3);
    }

    nn::SequenceModel teacher;
    std::vector<TrainChunk> chunks;
    Dataset dataset;
};

/** True when every parameter of the two models holds the same bits. */
bool
sameWeightBits(nn::SequenceModel& a, nn::SequenceModel& b)
{
    const auto pa = a.parameters();
    const auto pb = b.parameters();
    if (pa.size() != pb.size())
        return false;
    for (std::size_t i = 0; i < pa.size(); ++i)
        if (pa[i]->size() != pb[i]->size()
            || std::memcmp(pa[i]->value.raw().data(),
                           pb[i]->value.raw().data(),
                           pa[i]->size() * sizeof(float))
                != 0)
            return false;
    return true;
}

} // namespace

TEST(Enhancer, TechniqueNamesMatchPaper)
{
    EXPECT_STREQ(techniqueName(Technique::Vat), "VAT");
    EXPECT_STREQ(techniqueName(Technique::RsaKd), "RSA+KD");
    EXPECT_STREQ(techniqueName(Technique::Rvw), "R-V-W");
    const auto sweep = figureTenSweep();
    ASSERT_EQ(sweep.size(), 5u);
    EXPECT_EQ(sweep.back(), Technique::All);
}

TEST(Enhancer, NoneLeavesWeightsAndScenarioUntouched)
{
    Fixture f;
    AccuracyEnhancer enhancer(f.teacher, f.chunks);
    NonIdealityConfig scenario;
    auto deployed = quantizeModel(f.teacher, scenario.quant);
    EnhancerConfig cfg;
    cfg.technique = Technique::None;
    auto out = enhancer.enhance(deployed, scenario, cfg);
    EXPECT_EQ(out.remap.fraction, 0.0);
    EXPECT_EQ(out.evalConfig.crossbar.scheme, scenario.crossbar.scheme);
    auto a = deployed.parameters();
    auto b = out.model.parameters();
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t j = 0; j < a[i]->size(); ++j)
            EXPECT_EQ(a[i]->value.raw()[j], b[i]->value.raw()[j]);
}

TEST(Enhancer, RvwSwitchesProgrammingScheme)
{
    Fixture f;
    AccuracyEnhancer enhancer(f.teacher, f.chunks);
    NonIdealityConfig scenario;
    EnhancerConfig cfg;
    cfg.technique = Technique::Rvw;
    auto out = enhancer.enhance(quantizeModel(f.teacher, scenario.quant),
                                scenario, cfg);
    EXPECT_EQ(out.evalConfig.crossbar.scheme,
              crossbar::WriteScheme::WriteReadVerify);
    EXPECT_EQ(out.remap.fraction, 0.0);
}

TEST(Enhancer, RsaSetsRemapWithoutRetraining)
{
    Fixture f;
    AccuracyEnhancer enhancer(f.teacher, f.chunks);
    NonIdealityConfig scenario;
    EnhancerConfig cfg;
    cfg.technique = Technique::Rsa;
    cfg.sramFraction = 0.07;
    auto deployed = quantizeModel(f.teacher, scenario.quant);
    auto out = enhancer.enhance(deployed, scenario, cfg);
    EXPECT_DOUBLE_EQ(out.remap.fraction, 0.07);
    EXPECT_TRUE(out.remap.useErrorKnowledge);
    // No retraining: weights unchanged.
    auto a = deployed.parameters();
    auto b = out.model.parameters();
    for (std::size_t j = 0; j < a[0]->size(); ++j)
        EXPECT_EQ(a[0]->value.raw()[j], b[0]->value.raw()[j]);
}

TEST(Enhancer, VatChangesWeights)
{
    Fixture f;
    AccuracyEnhancer enhancer(f.teacher, f.chunks);
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    EnhancerConfig cfg;
    cfg.technique = Technique::Vat;
    cfg.retrainEpochs = 1;
    auto deployed = quantizeModel(f.teacher, scenario.quant);
    auto out = enhancer.enhance(deployed, scenario, cfg);
    bool changed = false;
    auto a = deployed.parameters();
    auto b = out.model.parameters();
    for (std::size_t j = 0; j < a[0]->size(); ++j)
        changed |= a[0]->value.raw()[j] != b[0]->value.raw()[j];
    EXPECT_TRUE(changed);
}

TEST(Enhancer, RsaKdRetrainsUnderSramMasks)
{
    // RSA+KD compiles a probe crossbar to learn which weights the remap
    // holds in SRAM, then KD-retrains under those masks: deterministic,
    // a change to the deployed weights, and not plain KD (which empty
    // masks would reduce it to).
    Fixture f;
    AccuracyEnhancer enhancer(f.teacher, f.chunks);
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    nn::SequenceModel deployed = quantizeModel(f.teacher, scenario.quant);
    EnhancerConfig cfg;
    cfg.retrainEpochs = 1;
    cfg.sramFraction = 0.1;
    auto run = [&](Technique technique) {
        cfg.technique = technique;
        EnhancedModel out = enhancer.enhance(deployed, scenario, cfg);
        EXPECT_DOUBLE_EQ(out.remap.fraction,
                         technique == Technique::RsaKd ? 0.1 : 0.0);
        return std::move(out.model);
    };
    nn::SequenceModel first = run(Technique::RsaKd);
    nn::SequenceModel second = run(Technique::RsaKd);
    nn::SequenceModel kd = run(Technique::Kd);
    EXPECT_TRUE(sameWeightBits(first, second));
    EXPECT_FALSE(sameWeightBits(first, deployed));
    EXPECT_FALSE(sameWeightBits(first, kd));
}

TEST(Enhancer, AllCombinesSchemeRemapAndRetraining)
{
    Fixture f;
    AccuracyEnhancer enhancer(f.teacher, f.chunks);
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    EnhancerConfig cfg;
    cfg.technique = Technique::All;
    cfg.retrainEpochs = 1;
    cfg.sramFraction = 0.05;
    auto out = enhancer.enhance(quantizeModel(f.teacher, scenario.quant),
                                scenario, cfg);
    EXPECT_EQ(out.evalConfig.crossbar.scheme,
              crossbar::WriteScheme::WriteReadVerify);
    EXPECT_DOUBLE_EQ(out.remap.fraction, 0.05);
}

TEST(Enhancer, OutputWeightsAreQuantized)
{
    Fixture f;
    AccuracyEnhancer enhancer(f.teacher, f.chunks);
    NonIdealityConfig scenario;
    scenario.quant = QuantConfig{4, 4};
    EnhancerConfig cfg;
    cfg.technique = Technique::Vat;
    cfg.retrainEpochs = 1;
    auto out = enhancer.enhance(quantizeModel(f.teacher, scenario.quant),
                                scenario, cfg);
    for (nn::Parameter* p : out.model.parameters()) {
        if (!isVmmWeight(p->name))
            continue;
        std::set<float> levels(p->value.raw().begin(),
                               p->value.raw().end());
        EXPECT_LE(levels.size(), 16u) << p->name;
    }
}

TEST(Enhancer, CacheNameCoversEveryRetrainingKnob)
{
    // Fig. 11's RSA+KD point at 10% write variation turns the wires off;
    // Fig. 12's Synaptic+Wires point at 64x64 keeps them. RSA+KD picks its
    // SRAM cells from cell errors that include IR drop, so the two share
    // the readable head but must not share a cached model.
    NonIdealityConfig wire_free;
    wire_free.kind = NonIdealityKind::SynapticWires;
    wire_free.crossbar.size = 64;
    wire_free.crossbar.writeVariationRate = 0.10;
    wire_free.crossbar.wire.segmentResistanceRatio = 0.0;
    wire_free.crossbar.wire.sneakCoefficient = 0.0;
    NonIdealityConfig wired;
    wired.kind = NonIdealityKind::SynapticWires;
    wired.crossbar.size = 64;
    EnhancerConfig ec;
    ec.technique = Technique::RsaKd;
    ec.retrainEpochs = 1;

    const std::string name =
        ExperimentContext::enhancedCacheName(wire_free, ec);
    EXPECT_EQ(name.rfind("enh_RSApKD_SynapticpWires_64_16-16_wv10_sr50_e1_",
                         0),
              0u)
        << name;
    EXPECT_EQ(name, ExperimentContext::enhancedCacheName(wire_free, ec));
    EXPECT_NE(name, ExperimentContext::enhancedCacheName(wired, ec));

    // The knobs the head leaves out move the digest; read-time converter
    // settings do not change the retrained weights, so they leave it.
    const auto renamed = [&](const NonIdealityConfig& scenario,
                             const EnhancerConfig& config) {
        return ExperimentContext::enhancedCacheName(scenario, config)
            != name;
    };
    NonIdealityConfig s = wire_free;
    s.noise = "rtn.amp=0.01";
    EXPECT_TRUE(renamed(s, ec));
    s = wire_free;
    s.crossbar.device.gMin = 2e-6;
    EXPECT_TRUE(renamed(s, ec));
    s = wire_free;
    s.crossbar.writeVariationAddFactor = 0.5;
    EXPECT_TRUE(renamed(s, ec));
    s = wire_free;
    s.crossbar.adc.bits = 6;
    EXPECT_FALSE(renamed(s, ec));
    EnhancerConfig c = ec;
    c.retrainLr = 1e-3f;
    EXPECT_TRUE(renamed(wire_free, c));
    c = ec;
    c.seed = 7;
    EXPECT_TRUE(renamed(wire_free, c));
}

TEST(Evaluator, QuantAccuracyAtFullPrecisionMatchesPlainEval)
{
    Fixture f;
    const double plain = evaluateAccuracy(f.teacher, f.dataset, 2)
        .meanIdentity;
    const double quant = evaluateQuantizedAccuracy(
        f.teacher, QuantConfig{32, 32},
        EvalOptions(f.dataset).maxReads(2)).meanIdentity;
    EXPECT_NEAR(plain, quant, 1e-9);
}

TEST(Evaluator, NonIdealSummaryShape)
{
    Fixture f;
    auto deployed = quantizeModel(f.teacher, QuantConfig::deployment());
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 16;
    const auto s = evaluateNonIdealAccuracy(
        deployed, scenario, EvalOptions(f.dataset).runs(3).maxReads(2));
    EXPECT_EQ(s.runs, 3u);
    EXPECT_GE(s.min, 0.0);
    EXPECT_LE(s.max, 1.0);
    EXPECT_GE(s.mean, s.min - 1e-12);
    EXPECT_LE(s.mean, s.max + 1e-12);
}

TEST(Evaluator, IdealScenarioMatchesDigitalQuantEval)
{
    Fixture f;
    auto deployed = quantizeModel(f.teacher, QuantConfig::deployment());
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::None;
    scenario.quant = QuantConfig::deployment();
    const auto s = evaluateNonIdealAccuracy(
        deployed, scenario, EvalOptions(f.dataset).runs(1).maxReads(2));
    const double digital = evaluateQuantizedAccuracy(
        f.teacher, QuantConfig::deployment(),
        EvalOptions(f.dataset).maxReads(2)).meanIdentity;
    EXPECT_NEAR(s.mean, digital, 0.02);
}
