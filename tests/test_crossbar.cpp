/** @file Tests for conductance mapping, DAC/ADC models and crossbar tiles. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "crossbar/crossbar.h"
#include "crossbar/mapping.h"
#include "test_util.h"

using namespace swordfish;
using namespace swordfish::crossbar;
using swordfish::testing::randomMatrix;

namespace {

/** One value through the ADC's row API, as a one-element lane. */
float
adcConvertOne(const AdcModel& adc, float y, Rng& rng)
{
    adc.convertRows(&y, 1, 1.0f, rng);
    return y;
}

} // namespace

TEST(ConductanceMapper, ConductancesWithinDeviceRange)
{
    DeviceConfig dev;
    const ConductanceMapper mapper(dev);
    const auto pair = mapper.map(randomMatrix(8, 8, 1));
    const auto g_min = static_cast<float>(dev.gMin);
    const auto g_max = static_cast<float>(dev.gMax);
    for (float g : pair.gPos.raw()) {
        EXPECT_GE(g, g_min);
        EXPECT_LE(g, g_max);
    }
    for (float g : pair.gNeg.raw()) {
        EXPECT_GE(g, g_min);
        EXPECT_LE(g, g_max);
    }
}

TEST(ConductanceMapper, DifferentialEncodingSignSplit)
{
    DeviceConfig dev;
    const ConductanceMapper mapper(dev);
    Matrix w(1, 2, {0.5f, -0.5f});
    const auto pair = mapper.map(w, 1.0f);
    // Positive weight: gPos carries it, gNeg at gMin; negative: opposite.
    EXPECT_GT(pair.gPos(0, 0), pair.gNeg(0, 0));
    EXPECT_LT(pair.gPos(0, 1), pair.gNeg(0, 1));
    EXPECT_FLOAT_EQ(pair.gNeg(0, 0), static_cast<float>(dev.gMin));
    EXPECT_FLOAT_EQ(pair.gPos(0, 1), static_cast<float>(dev.gMin));
}

TEST(ConductanceMapper, EffectiveWeightsRecoverOriginals)
{
    DeviceConfig dev;
    dev.conductanceLevels = 1 << 16; // fine grid: tiny quantization error
    const ConductanceMapper mapper(dev);
    const Matrix w = randomMatrix(6, 6, 2);
    const auto pair = mapper.map(w);
    const Matrix rec = pair.effectiveWeights();
    const float tol = w.absMax() / 1000.0f;
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(rec.raw()[i], w.raw()[i], tol);
}

TEST(ConductanceMapper, QuantizationSnapsToLevels)
{
    DeviceConfig dev;
    dev.conductanceLevels = 4;
    dev.stateNonlinearity = 0.0;
    const ConductanceMapper mapper(dev);
    std::set<double> seen;
    for (double g = dev.gMin; g <= dev.gMax; g += (dev.gMax - dev.gMin) / 57)
        seen.insert(mapper.quantizeConductance(g));
    EXPECT_LE(seen.size(), 4u);
}

TEST(ConductanceMapper, QuantizeIsMonotoneWithNonlinearity)
{
    DeviceConfig dev;
    dev.stateNonlinearity = 2.0;
    const ConductanceMapper mapper(dev);
    double prev = 0.0;
    for (double g = dev.gMin; g <= dev.gMax;
         g += (dev.gMax - dev.gMin) / 97) {
        const double q = mapper.quantizeConductance(g);
        EXPECT_GE(q, prev - 1e-12);
        EXPECT_GE(q, dev.gMin);
        EXPECT_LE(q, dev.gMax);
        prev = q;
    }
}

TEST(DacModel, IdealIsPassThrough)
{
    const DacModel dac(DacConfig{}, 1, 0.5, /*ideal=*/true);
    EXPECT_FLOAT_EQ(dac.convert(0.37f), 0.37f);
}

TEST(DacModel, QuantizesAndClips)
{
    DacConfig cfg;
    cfg.bits = 3;
    cfg.inlSigmaLsb = 0.0;
    cfg.rLoadDroop = 0.0;
    const DacModel dac(cfg, 2, 0.0);
    // 3 bits: 8 codes over [-1, 1].
    std::set<float> outputs;
    for (float x = -1.5f; x <= 1.5f; x += 0.01f)
        outputs.insert(dac.convert(x));
    EXPECT_LE(outputs.size(), 8u);
}

TEST(DacModel, DroopCompressesVoltage)
{
    DacConfig cfg;
    cfg.bits = 8;
    cfg.inlSigmaLsb = 0.0;
    cfg.rLoadDroop = 0.2;
    const DacModel loaded(cfg, 3, 1.0);
    EXPECT_LT(loaded.convert(1.0f), 1.0f);
    EXPECT_GT(loaded.convert(-1.0f), -1.0f);
}

TEST(AdcModel, IdealIsPassThrough)
{
    const AdcModel adc(AdcConfig{}, 4, 10.0, /*ideal=*/true);
    Rng rng(1);
    EXPECT_FLOAT_EQ(adcConvertOne(adc, 3.21f, rng), 3.21f);
}

TEST(AdcModel, ClipsAtRange)
{
    AdcConfig cfg;
    cfg.noiseSigmaLsb = 0.0;
    cfg.gainSigma = 0.0;
    cfg.offsetSigmaLsb = 0.0;
    const AdcModel adc(cfg, 5, 2.0);
    Rng rng(2);
    EXPECT_LE(adcConvertOne(adc, 100.0f, rng), 2.0f + 1e-5f);
    EXPECT_GE(adcConvertOne(adc, -100.0f, rng), -2.0f - 1e-5f);
}

TEST(AdcModel, QuantizationErrorBounded)
{
    AdcConfig cfg;
    cfg.bits = 6;
    cfg.noiseSigmaLsb = 0.0;
    cfg.gainSigma = 0.0;
    cfg.offsetSigmaLsb = 0.0;
    const AdcModel adc(cfg, 6, 1.0);
    Rng rng(3);
    const float step = 2.0f / 63.0f;
    for (float y = -0.99f; y < 0.99f; y += 0.013f)
        EXPECT_NEAR(adcConvertOne(adc, y, rng), y, step * 0.51f);
}

TEST(CrossbarTile, AllOffReproducesExactWeights)
{
    CrossbarConfig config;
    const Matrix w = randomMatrix(16, 16, 4);
    const CrossbarTile tile(config, w, 0.0f, NoiseToggles::allOff(), 5);
    const Matrix& eff = tile.effectiveWeights();
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(eff.raw()[i], w.raw()[i], w.absMax() / 500.0f);
}

TEST(CrossbarTile, AllOffVmmMatchesGemm)
{
    CrossbarConfig config;
    const Matrix w = randomMatrix(12, 10, 6);
    const CrossbarTile tile(config, w, 0.0f, NoiseToggles::allOff(), 7);
    const Matrix x = randomMatrix(5, 10, 8);
    Rng rng(9);
    const Matrix y = tile.vmmFast(x, rng);
    Matrix expect;
    gemmBT(x, w, expect);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y.raw()[i], expect.raw()[i],
                    0.01f * std::max(1.0f, expect.absMax()));
}

TEST(CrossbarTile, FastAndCircuitPathsAgree)
{
    CrossbarConfig config;
    const Matrix w = randomMatrix(20, 20, 10);
    const CrossbarTile tile(config, w, 0.0f, NoiseToggles::combined(), 11);
    std::vector<float> x(20);
    Rng xr(12);
    for (float& v : x)
        v = static_cast<float>(xr.gauss(0.0, 0.5));

    Matrix xm(1, 20, std::vector<float>(x));
    // Same seed for the two conversion streams so ADC noise matches.
    Rng r1(77), r2(77);
    const Matrix y_fast = tile.vmmFast(xm, r1);
    const auto y_circ = tile.vmmCircuit(x, r2);
    for (std::size_t o = 0; o < y_circ.size(); ++o)
        EXPECT_NEAR(y_fast(0, o), y_circ[o],
                    2e-3f * std::max(1.0f, std::fabs(y_circ[o])));
}

TEST(CrossbarTile, StackedRaggedLanesMatchOneLaneCallsBitwise)
{
    // The lanes contract of the tile kernel: each lane of a stacked call
    // is normalized by its own absmax and draws ADC noise from its own
    // stream, so its rows equal a one-lane call on that lane alone — with
    // and without ensemble replicas (K=3).
    CrossbarConfig config;
    config.size = 32;
    const Matrix w = randomMatrix(20, 24, 31);
    const CrossbarTile tile(config, w, 0.0f, NoiseToggles::combined(), 41);
    std::vector<CrossbarTile> extras;
    for (std::uint64_t j = 1; j < 3; ++j)
        extras.emplace_back(config, w, 0.0f, NoiseToggles::combined(),
                            41 + j);

    const std::size_t lane_rows[] = {3, 1, 4};
    const BatchLayout layout = {{0, 3}, {1, 1}, {2, 4}};
    Matrix x = randomMatrix(8, 24, 51);
    for (std::size_t c = 0; c < x.cols(); ++c)
        x(3, c) *= 5.0f; // lane 1 alone sets a much larger input scale

    auto bits = [](float v) {
        std::uint32_t u = 0;
        std::memcpy(&u, &v, sizeof(u));
        return u;
    };
    const std::vector<CrossbarTile>* const replica_cases[] = {nullptr,
                                                              &extras};
    for (const std::vector<CrossbarTile>* reps : replica_cases) {
        SCOPED_TRACE(reps == nullptr ? "plain" : "K=3");
        std::vector<Rng> stacked_rngs = {Rng(100), Rng(101), Rng(102)};
        Rng* const stacked_ptrs[] = {&stacked_rngs[0], &stacked_rngs[1],
                                     &stacked_rngs[2]};
        VmmScratch stacked;
        tile.vmm(x, layout, stacked_ptrs, stacked, reps);
        ASSERT_EQ(stacked.y.rows(), x.rows());

        std::size_t row = 0;
        for (std::size_t l = 0; l < layout.size(); ++l) {
            Matrix xl(lane_rows[l], x.cols());
            for (std::size_t t = 0; t < lane_rows[l]; ++t)
                for (std::size_t c = 0; c < x.cols(); ++c)
                    xl(t, c) = x(row + t, c);
            Rng rng(100 + l);
            Rng* const ptr[] = {&rng};
            VmmScratch single;
            tile.vmm(xl, {{0, lane_rows[l]}}, ptr, single, reps);
            for (std::size_t t = 0; t < lane_rows[l]; ++t)
                for (std::size_t o = 0; o < single.y.cols(); ++o)
                    EXPECT_EQ(bits(stacked.y(row + t, o)),
                              bits(single.y(t, o)))
                        << "lane " << l << " row " << t << " col " << o;
            // Each lane stream advanced by exactly its own rows' draws.
            EXPECT_EQ(rng.gauss(), stacked_rngs[l].gauss());
            row += lane_rows[l];
        }
    }
}

TEST(CrossbarTile, WriteVariationGrowsWithRate)
{
    const Matrix w = randomMatrix(32, 32, 13);
    auto mean_error = [&](double rate) {
        CrossbarConfig config;
        config.writeVariationRate = rate;
        NoiseToggles toggles = NoiseToggles::allOff();
        toggles.writeVariation = true;
        toggles.conductanceQuant = true;
        double err = 0.0;
        for (std::uint64_t seed = 0; seed < 5; ++seed) {
            const CrossbarTile tile(config, w, 0.0f, toggles, seed);
            err += tile.cellErrorMagnitude().frobeniusNorm();
        }
        return err;
    };
    const double low = mean_error(0.02);
    const double mid = mean_error(0.10);
    const double high = mean_error(0.30);
    EXPECT_LT(low, mid);
    EXPECT_LT(mid, high);
}

TEST(CrossbarTile, WriteReadVerifyShrinksError)
{
    const Matrix w = randomMatrix(32, 32, 14);
    NoiseToggles toggles = NoiseToggles::allOff();
    toggles.writeVariation = true;
    CrossbarConfig pulse;
    pulse.scheme = WriteScheme::PulseSetReset;
    CrossbarConfig wrv;
    wrv.scheme = WriteScheme::WriteReadVerify;
    const CrossbarTile tp(pulse, w, 0.0f, toggles, 15);
    const CrossbarTile tv(wrv, w, 0.0f, toggles, 15);
    EXPECT_LT(tv.cellErrorMagnitude().frobeniusNorm(),
              tp.cellErrorMagnitude().frobeniusNorm());
}

TEST(CrossbarTile, WireAttenuationShrinksMagnitudes)
{
    Matrix w(32, 32);
    w.fill(0.8f); // uniformly large weights: heavy line loading
    NoiseToggles wire_only = NoiseToggles::allOff();
    wire_only.wireResistance = true;
    CrossbarConfig config;
    const CrossbarTile tile(config, w, 1.0f, wire_only, 16);
    const Matrix& eff = tile.effectiveWeights();
    double sum_eff = 0.0;
    for (float v : eff.raw())
        sum_eff += v;
    EXPECT_LT(sum_eff, 0.8 * 32 * 32); // strictly attenuated
    // Far corner (last input, first output... the most distant cell from
    // both driver and sense amp) must be weaker than the nearest cell.
    EXPECT_LT(eff(31, 0), eff(0, 31));
}

TEST(CrossbarTile, RemapRestoresSelectedCells)
{
    CrossbarConfig config;
    config.writeVariationRate = 0.4;
    const Matrix w = randomMatrix(8, 8, 17);
    CrossbarTile tile(config, w, 0.0f, NoiseToggles::combined(), 18);
    std::vector<std::uint8_t> mask(w.size(), 0);
    mask[3] = 1;
    mask[20] = 1;
    tile.remapCellsToSram(mask);
    EXPECT_FLOAT_EQ(tile.effectiveWeights().raw()[3], w.raw()[3]);
    EXPECT_FLOAT_EQ(tile.effectiveWeights().raw()[20], w.raw()[20]);
}

TEST(CrossbarTile, OversizedSubMatrixPanics)
{
    CrossbarConfig config;
    config.size = 8;
    const Matrix w = randomMatrix(9, 4, 19);
    EXPECT_DEATH(CrossbarTile(config, w, 0.0f, NoiseToggles::allOff(), 20),
                 "exceeds");
}

TEST(CrossbarTile, DeterministicForSameSeed)
{
    CrossbarConfig config;
    const Matrix w = randomMatrix(16, 16, 21);
    const CrossbarTile a(config, w, 0.0f, NoiseToggles::combined(), 42);
    const CrossbarTile b(config, w, 0.0f, NoiseToggles::combined(), 42);
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_FLOAT_EQ(a.effectiveWeights().raw()[i],
                        b.effectiveWeights().raw()[i]);
}

TEST(WriteScheme, EffectiveSigmaHalvesPerIteration)
{
    EXPECT_DOUBLE_EQ(effectiveWriteSigma(WriteScheme::PulseSetReset, 0.1),
                     0.1);
    EXPECT_DOUBLE_EQ(
        effectiveWriteSigma(WriteScheme::WriteReadVerify, 0.1, 2), 0.025);
    EXPECT_DOUBLE_EQ(
        effectiveWriteSigma(WriteScheme::WriteReadVerify, 0.1, 4),
        0.00625);
}
