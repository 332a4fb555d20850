/** @file Tests for the Swordfish core: non-ideality config, deployment
 *  quantization, the crossbar VMM backend and RSA remap plumbing. */

#include <gtest/gtest.h>

#include "basecall/bonito_lite.h"
#include "core/deploy.h"
#include "core/noise_model.h"
#include "core/nonideality.h"
#include "core/vmm_backend.h"
#include "nn/linear.h"
#include "test_util.h"

using namespace swordfish;
using namespace swordfish::core;
using swordfish::testing::randomMatrix;

TEST(NonIdeality, TogglesMatchKinds)
{
    auto t = NoiseModel::preset(NonIdealityKind::SynapticWires).toggles;
    EXPECT_TRUE(t.writeVariation);
    EXPECT_TRUE(t.wireResistance);
    EXPECT_FALSE(t.adcNonideal);
    EXPECT_FALSE(t.dacNonideal);

    t = NoiseModel::preset(NonIdealityKind::SenseAdc).toggles;
    EXPECT_TRUE(t.adcNonideal);
    EXPECT_FALSE(t.writeVariation);

    t = NoiseModel::preset(NonIdealityKind::DacDriver).toggles;
    EXPECT_TRUE(t.dacNonideal);
    EXPECT_FALSE(t.adcNonideal);

    t = NoiseModel::preset(NonIdealityKind::Combined).toggles;
    EXPECT_TRUE(t.writeVariation && t.wireResistance && t.sneakPaths
                && t.dacNonideal && t.adcNonideal);

    t = NoiseModel::preset(NonIdealityKind::None).toggles;
    EXPECT_FALSE(t.writeVariation || t.wireResistance || t.sneakPaths
                 || t.dacNonideal || t.adcNonideal
                 || t.conductanceQuant);
}

TEST(NonIdeality, NamesAndSweep)
{
    EXPECT_STREQ(nonIdealityName(NonIdealityKind::Measured), "Measured");
    const auto sweep = figureEightSweep();
    ASSERT_EQ(sweep.size(), 5u);
    EXPECT_EQ(sweep.front(), NonIdealityKind::SynapticWires);
    EXPECT_EQ(sweep.back(), NonIdealityKind::Measured);
}

TEST(Deploy, IsVmmWeightDiscriminates)
{
    EXPECT_TRUE(isVmmWeight("conv0.w"));
    EXPECT_TRUE(isVmmWeight("lstm2.wih"));
    EXPECT_TRUE(isVmmWeight("lstm2.whh"));
    EXPECT_FALSE(isVmmWeight("conv0.b"));
    EXPECT_FALSE(isVmmWeight("noname"));
}

TEST(Deploy, QuantizeModelTouchesOnlyVmmWeights)
{
    auto model = basecall::buildBonitoLite();
    auto deployed = quantizeModel(model, QuantConfig{4, 4});
    auto orig_params = model.parameters();
    auto depl_params = deployed.parameters();
    ASSERT_EQ(orig_params.size(), depl_params.size());
    for (std::size_t i = 0; i < orig_params.size(); ++i) {
        const bool is_weight = isVmmWeight(orig_params[i]->name);
        bool changed = false;
        for (std::size_t j = 0; j < orig_params[i]->size(); ++j)
            changed |= orig_params[i]->value.raw()[j]
                != depl_params[i]->value.raw()[j];
        if (is_weight)
            EXPECT_TRUE(changed) << orig_params[i]->name;
        else
            EXPECT_FALSE(changed) << orig_params[i]->name;
    }
}

TEST(Deploy, SixteenBitQuantIsNearLossless)
{
    auto model = basecall::buildBonitoLite();
    auto deployed = quantizeModel(model, QuantConfig::deployment());
    const Matrix x = randomMatrix(64, 1, 1);
    const Matrix y1 = model.forward(x);
    const Matrix y2 = deployed.forward(x);
    for (std::size_t i = 0; i < y1.size(); ++i)
        EXPECT_NEAR(y1.raw()[i], y2.raw()[i], 2e-3f);
}

TEST(Deploy, QuantOnlyBackendQuantizesActivations)
{
    QuantOnlyBackend backend(QuantConfig{32, 2});
    Matrix acts = randomMatrix(4, 4, 2);
    backend.onActivations(acts);
    std::set<float> levels(acts.raw().begin(), acts.raw().end());
    EXPECT_LE(levels.size(), 4u);
}

namespace {

/** A 2-layer toy net whose weights exceed one 8x8 crossbar. */
nn::SequenceModel
toyModel()
{
    Rng rng(3);
    nn::SequenceModel m;
    m.emplace<nn::Linear>("fc0", 20, 12, rng);
    m.emplace<nn::Linear>("fc1", 12, 4, rng);
    return m;
}

NonIdealityConfig
idealScenario(std::size_t size)
{
    NonIdealityConfig cfg;
    cfg.kind = NonIdealityKind::None;
    cfg.crossbar.size = size;
    cfg.quant = QuantConfig{32, 32};
    return cfg;
}

} // namespace

TEST(VmmBackend, IdealKindMatchesPlainForwardAcrossTiling)
{
    auto m = toyModel();
    const Matrix x = randomMatrix(6, 20, 4);
    const Matrix expect = m.forward(x);

    // 8x8 crossbars force 3x2 + 2x1 tilings; with all noise off the tiled
    // path must reassemble the exact product.
    CrossbarVmmBackend backend(idealScenario(8), 1);
    m.setBackend(&backend);
    m.compileBackend();
    const Matrix y = m.forward(x);
    m.setBackend(nullptr);

    ASSERT_EQ(y.rows(), expect.rows());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y.raw()[i], expect.raw()[i],
                    5e-3f * std::max(1.0f, expect.absMax()));
    EXPECT_EQ(backend.programmedTiles(), 3u * 2 + 2);
}

TEST(VmmBackend, TilesProgrammedOncePerWeight)
{
    auto m = toyModel();
    CrossbarVmmBackend backend(idealScenario(8), 2);
    m.setBackend(&backend);
    m.compileBackend();
    const auto tiles = backend.programmedTiles();
    EXPECT_EQ(tiles, 3u * 2 + 2);
    // Forwards and a second compile program nothing more.
    const Matrix x = randomMatrix(3, 20, 5);
    m.forward(x);
    m.compileBackend();
    m.forward(x);
    EXPECT_EQ(backend.programmedTiles(), tiles);
    m.setBackend(nullptr);
}

TEST(VmmBackend, CombinedNoiseChangesOutputs)
{
    auto m = toyModel();
    const Matrix x = randomMatrix(4, 20, 6);
    const Matrix clean = m.forward(x);

    NonIdealityConfig cfg;
    cfg.kind = NonIdealityKind::Combined;
    cfg.crossbar.size = 8;
    CrossbarVmmBackend backend(cfg, 3);
    m.setBackend(&backend);
    m.compileBackend();
    const Matrix noisy = m.forward(x);
    m.setBackend(nullptr);

    float diff = 0.0f;
    for (std::size_t i = 0; i < clean.size(); ++i)
        diff += std::fabs(clean.raw()[i] - noisy.raw()[i]);
    EXPECT_GT(diff, 1e-3f);
}

TEST(VmmBackend, DifferentRunSeedsDifferentNoise)
{
    auto m = toyModel();
    const Matrix x = randomMatrix(4, 20, 7);
    NonIdealityConfig cfg;
    cfg.kind = NonIdealityKind::Combined;
    cfg.crossbar.size = 8;

    CrossbarVmmBackend b1(cfg, 10), b2(cfg, 11);
    m.setBackend(&b1);
    m.compileBackend();
    const Matrix y1 = m.forward(x);
    m.setBackend(&b2);
    m.compileBackend();
    const Matrix y2 = m.forward(x);
    m.setBackend(nullptr);
    float diff = 0.0f;
    for (std::size_t i = 0; i < y1.size(); ++i)
        diff += std::fabs(y1.raw()[i] - y2.raw()[i]);
    EXPECT_GT(diff, 1e-4f);
}

TEST(VmmBackend, MeasuredModeRunsAndDiffers)
{
    auto m = toyModel();
    const Matrix x = randomMatrix(4, 20, 8);
    const Matrix clean = m.forward(x);

    NonIdealityConfig cfg;
    cfg.kind = NonIdealityKind::Measured;
    cfg.crossbar.size = 64;
    CrossbarVmmBackend backend(cfg, 4);
    m.setBackend(&backend);
    m.compileBackend();
    const Matrix noisy = m.forward(x);
    m.setBackend(nullptr);
    float diff = 0.0f;
    for (std::size_t i = 0; i < clean.size(); ++i)
        diff += std::fabs(clean.raw()[i] - noisy.raw()[i]);
    EXPECT_GT(diff, 1e-3f);
}

TEST(VmmBackend, SramMasksRecordRemapFraction)
{
    auto m = toyModel();
    NonIdealityConfig cfg;
    cfg.kind = NonIdealityKind::Combined;
    cfg.crossbar.size = 8;
    CrossbarVmmBackend backend(cfg, 5);
    SramRemapConfig remap;
    remap.fraction = 0.10;
    backend.setSramRemap(remap);

    m.setBackend(&backend);
    m.compileBackend();
    m.forward(randomMatrix(2, 20, 9));
    m.setBackend(nullptr);

    std::size_t marked = 0, total = 0;
    for (const auto& [name, mask] : backend.sramMasks()) {
        for (auto v : mask) {
            marked += v;
            ++total;
        }
    }
    ASSERT_GT(total, 0u);
    EXPECT_NEAR(static_cast<double>(marked) / static_cast<double>(total),
                0.10, 0.04);
}

TEST(VmmBackend, RemapImprovesFidelity)
{
    auto m = toyModel();
    const Matrix x = randomMatrix(6, 20, 10);
    const Matrix clean = m.forward(x);

    NonIdealityConfig cfg;
    cfg.kind = NonIdealityKind::Combined;
    cfg.crossbar.size = 8;
    cfg.crossbar.writeVariationRate = 0.3;

    auto total_error = [&](double fraction) {
        CrossbarVmmBackend backend(cfg, 6);
        SramRemapConfig remap;
        remap.fraction = fraction;
        backend.setSramRemap(remap);
        m.setBackend(&backend);
        m.compileBackend();
        const Matrix y = m.forward(x);
        m.setBackend(nullptr);
        float err = 0.0f;
        for (std::size_t i = 0; i < y.size(); ++i)
            err += std::fabs(y.raw()[i] - clean.raw()[i]);
        return err;
    };
    EXPECT_LT(total_error(0.25), total_error(0.0));
}

TEST(VmmBackend, ActivationQuantizationHonoured)
{
    NonIdealityConfig cfg;
    cfg.kind = NonIdealityKind::None;
    cfg.quant = QuantConfig{16, 2};
    CrossbarVmmBackend backend(cfg, 7);
    Matrix acts = randomMatrix(3, 5, 11);
    backend.onActivations(acts);
    std::set<float> levels(acts.raw().begin(), acts.raw().end());
    EXPECT_LE(levels.size(), 4u);
}

TEST(VmmBackend, ShapeChangePanics)
{
    NonIdealityConfig cfg;
    cfg.crossbar.size = 8;
    CrossbarVmmBackend backend(cfg, 8);
    Matrix y;
    const Matrix w1 = randomMatrix(4, 6, 12);
    ASSERT_TRUE(backend.compileWeight("w", w1).ok());
    backend.matmul("w", w1, randomMatrix(2, 6, 13), y);
    const Matrix w2 = randomMatrix(5, 6, 14);
    EXPECT_DEATH(backend.matmul("w", w2, randomMatrix(2, 6, 15), y),
                 "changed");
}

TEST(VmmBackend, MatmulBeforeCompilePanics)
{
    // compileWeight() is the only place a weight is programmed: a matmul
    // on a weight that was never compiled is a caller bug, not a cue to
    // program it.
    NonIdealityConfig cfg;
    cfg.crossbar.size = 8;
    CrossbarVmmBackend backend(cfg, 8);
    Matrix y;
    const Matrix w = randomMatrix(4, 6, 12);
    EXPECT_DEATH(backend.matmul("w", w, randomMatrix(2, 6, 13), y),
                 "not compiled");
    // Compiling one weight does not cover another.
    ASSERT_TRUE(backend.compileWeight("w", w).ok());
    EXPECT_DEATH(backend.matmul("v", w, randomMatrix(2, 6, 13), y),
                 "not compiled");
}
