/** @file Statistical + property tests for the composable NoiseSource
 *  layer and the layer-ensemble-averaging mitigation.
 *
 *  Per-source characterization (RTN occupancy/dwell/autocorrelation,
 *  read-disturb power law, Arrhenius drift, correlated-field marginals
 *  and correlation length), the composition laws the layer documents
 *  (spec order independence, duplicate-key last-wins, keyed streams
 *  so enabling one source never shifts another; the golden snapshot
 *  pins all-off bitwise-neutrality), the SWORDFISH_NOISE parser
 *  contract (typed errors, no partial state, fuzz robustness,
 *  describe() round-trip, override precedence), and the ensemble
 *  behavior (empty-extras delegation, K=1 bitwise, error shrinking with
 *  K, area/energy scaling, health refresh with replicas).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "arch/area.h"
#include "arch/energy.h"
#include "arch/partition.h"
#include "basecall/basecaller.h"
#include "basecall/bonito_lite.h"
#include "basecall/chunker.h"
#include "basecall/trainer.h"
#include "core/evaluator.h"
#include "core/health.h"
#include "core/noise_model.h"
#include "core/vmm_backend.h"
#include "crossbar/crossbar.h"
#include "crossbar/noise_sources.h"
#include "genomics/dataset.h"
#include "test_util.h"
#include "util/thread_pool.h"

using namespace swordfish;
using namespace swordfish::core;
using namespace swordfish::crossbar;
using swordfish::testing::randomMatrix;

namespace {

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

std::uint32_t
fbits(float v)
{
    std::uint32_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** NoiseToggles has no operator==; compare field by field. */
bool
sameToggles(const NoiseToggles& a, const NoiseToggles& b)
{
    return a.conductanceQuant == b.conductanceQuant
        && a.writeVariation == b.writeVariation
        && a.wireResistance == b.wireResistance
        && a.sneakPaths == b.sneakPaths && a.dacNonideal == b.dacNonideal
        && a.adcNonideal == b.adcNonideal;
}

/** Pearson correlation of two equal-length samples. */
double
corr(const std::vector<double>& x, const std::vector<double>& y)
{
    const std::size_t n = x.size();
    double mx = 0.0, my = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        mx += x[i];
        my += y[i];
    }
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
        syy += (y[i] - my) * (y[i] - my);
    }
    return sxy / std::sqrt(sxx * syy);
}

/** Tile under combined-preset toggles minus nothing: the shared config. */
CrossbarConfig
tileConfig()
{
    CrossbarConfig config;
    config.size = 32;
    return config;
}

double
frobeniusError(const Matrix& a, const Matrix& b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = static_cast<double>(a.raw()[i])
            - static_cast<double>(b.raw()[i]);
        s += d * d;
    }
    return std::sqrt(s);
}

/** Small untrained model + dataset shared by the e2e ensemble tests. */
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
        basecall::BonitoLiteConfig cfg;
        cfg.convChannels = 8;
        cfg.lstmHidden = 8;
        cfg.lstmLayers = 1;
        model = basecall::buildBonitoLite(cfg);
        const genomics::PoreModel pore;
        dataset = genomics::makeDataset(genomics::specById("D1"), pore, 6);
    }
};

NonIdealityConfig
scenario64()
{
    NonIdealityConfig s;
    s.kind = NonIdealityKind::Combined;
    s.crossbar.size = 64;
    return s;
}

} // namespace

// ---------------------------------------------------------------------------
// Random telegraph noise: scalar model statistics
// ---------------------------------------------------------------------------

TEST(RtnStats, OccupancyAndTrapFactorMatchTheory)
{
    RtnConfig cfg;
    cfg.amplitude = 0.3;
    cfg.dwellUp = 6.0;
    cfg.dwellDown = 2.0;
    // Stationary occupancy of a two-state chain = dwellDown / total.
    EXPECT_DOUBLE_EQ(rtnOccupancy(cfg), 0.25);
    EXPECT_DOUBLE_EQ(rtnTrapFactor(cfg, true), 0.7);
    EXPECT_DOUBLE_EQ(rtnTrapFactor(cfg, false), 1.0);
    EXPECT_TRUE(cfg.enabled());
    cfg.amplitude = 0.0;
    EXPECT_FALSE(cfg.enabled());
}

TEST(RtnStats, TelegraphMatchesOccupancyAndDwellMeans)
{
    RtnConfig cfg;
    cfg.amplitude = 0.2;
    cfg.dwellUp = 8.0;
    cfg.dwellDown = 4.0;
    Rng rng(42);
    const std::size_t steps = 200000;
    const std::vector<std::uint8_t> seq =
        rtnTelegraphSequence(cfg, steps, rng);
    ASSERT_EQ(seq.size(), steps);

    double occupied = 0.0;
    for (std::uint8_t s : seq)
        occupied += s;
    // Stationary occupancy 4/12 = 1/3; the sample mean of an
    // autocorrelated binary chain this long has sd ~ 0.003.
    EXPECT_NEAR(occupied / static_cast<double>(steps), 1.0 / 3.0, 0.015);

    // Mean run lengths approximate the geometric dwell means. The last
    // (possibly truncated) run is dropped.
    double sum[2] = {0.0, 0.0};
    std::size_t count[2] = {0, 0};
    std::size_t run = 1;
    for (std::size_t i = 1; i < steps; ++i) {
        if (seq[i] == seq[i - 1]) {
            ++run;
            continue;
        }
        sum[seq[i - 1]] += static_cast<double>(run);
        ++count[seq[i - 1]];
        run = 1;
    }
    ASSERT_GT(count[0], 1000u);
    ASSERT_GT(count[1], 1000u);
    EXPECT_NEAR(sum[0] / static_cast<double>(count[0]), 8.0, 0.4);
    EXPECT_NEAR(sum[1] / static_cast<double>(count[1]), 4.0, 0.2);
}

TEST(RtnStats, TelegraphAutocorrelationDecaysGeometrically)
{
    // For a two-state chain the lag-k autocorrelation is rho^k with
    // rho = 1 - 1/dwellUp - 1/dwellDown.
    RtnConfig cfg;
    cfg.amplitude = 0.2;
    cfg.dwellUp = 8.0;
    cfg.dwellDown = 4.0;
    const double rho = 1.0 - 1.0 / 8.0 - 1.0 / 4.0; // 0.625
    Rng rng(7);
    const std::size_t steps = 200000;
    const std::vector<std::uint8_t> seq =
        rtnTelegraphSequence(cfg, steps, rng);

    double mean = 0.0;
    for (std::uint8_t s : seq)
        mean += s;
    mean /= static_cast<double>(steps);
    double var = 0.0;
    for (std::uint8_t s : seq)
        var += (s - mean) * (s - mean);
    var /= static_cast<double>(steps);

    for (std::size_t lag : {std::size_t{1}, std::size_t{2},
                            std::size_t{3}}) {
        double cov = 0.0;
        for (std::size_t i = lag; i < steps; ++i)
            cov += (seq[i] - mean) * (seq[i - lag] - mean);
        cov /= static_cast<double>(steps - lag);
        EXPECT_NEAR(cov / var, std::pow(rho, static_cast<double>(lag)),
                    0.03)
            << "lag " << lag;
    }
}

// ---------------------------------------------------------------------------
// Read disturb
// ---------------------------------------------------------------------------

TEST(ReadDisturb, FactorFollowsPowerLawAndMonotonicity)
{
    ReadDisturbConfig cfg;
    cfg.rate = 0.1;
    cfg.reads = 999.0;
    EXPECT_DOUBLE_EQ(readDisturbFactor(cfg), std::pow(1000.0, -0.1));

    cfg.reads = 0.0;
    EXPECT_DOUBLE_EQ(readDisturbFactor(cfg), 1.0);
    EXPECT_FALSE(cfg.enabled());

    // Monotone decreasing in reads and in rate.
    double prev = 1.0;
    for (double reads : {10.0, 100.0, 1000.0, 10000.0}) {
        cfg.reads = reads;
        const double f = readDisturbFactor(cfg);
        EXPECT_LT(f, prev);
        prev = f;
    }
    cfg.reads = 1000.0;
    prev = 1.0;
    for (double rate : {0.05, 0.1, 0.2}) {
        cfg.rate = rate;
        const double f = readDisturbFactor(cfg);
        EXPECT_LT(f, prev);
        prev = f;
    }
}

TEST(ReadDisturb, TileScalesDifferentialWeightsExactly)
{
    // With every legacy toggle off, both devices of a differential pair
    // shrink toward gMin by the same factor, so the effective weight is
    // exactly factor * the all-off effective weight.
    const Matrix w = randomMatrix(16, 16, 33);
    const CrossbarConfig config = tileConfig();
    const CrossbarTile base(config, w, 0.0f, NoiseToggles::allOff(), 5);

    ExtendedNoise ext;
    ext.disturb.rate = 0.1;
    ext.disturb.reads = 999.0;
    const CrossbarTile disturbed(config, w, 0.0f, NoiseToggles::allOff(),
                                 5, ext);
    const double f = readDisturbFactor(ext.disturb);
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(disturbed.effectiveWeights().raw()[i],
                    f * base.effectiveWeights().raw()[i], 1e-5)
            << "cell " << i;
}

// ---------------------------------------------------------------------------
// Temperature-dependent drift
// ---------------------------------------------------------------------------

TEST(ThermalDrift, ArrheniusAccelerationMatchesTheory)
{
    // 1 at the reference temperature and for zero activation energy.
    EXPECT_DOUBLE_EQ(thermalAcceleration(kThermalRefKelvin, 0.3), 1.0);
    EXPECT_DOUBLE_EQ(thermalAcceleration(380.0, 0.0), 1.0);

    const double kB = 8.617333262e-5; // eV / K
    const double expected =
        std::exp((0.3 / kB) * (1.0 / 300.0 - 1.0 / 350.0));
    EXPECT_NEAR(thermalAcceleration(350.0, 0.3), expected,
                1e-9 * expected);

    // Monotone increasing in temperature.
    double prev = 0.0;
    for (double t : {300.0, 325.0, 350.0, 375.0}) {
        const double a = thermalAcceleration(t, 0.3);
        EXPECT_GT(a, prev);
        prev = a;
    }
}

TEST(ThermalDrift, DriftFactorMonotoneInTimeAndExponent)
{
    ThermalDriftConfig cfg;
    cfg.temperatureK = 350.0;
    cfg.activationEv = 0.2;
    cfg.hours = 100.0;
    cfg.nu = 0.05;
    const double accel = thermalAcceleration(350.0, 0.2);
    EXPECT_NEAR(thermalDriftFactor(cfg, 0.05),
                std::pow(1.0 + accel * 100.0, -0.05), 1e-12);

    double prev = 1.0;
    for (double hours : {1.0, 10.0, 100.0, 1000.0}) {
        cfg.hours = hours;
        const double f = thermalDriftFactor(cfg, cfg.nu);
        EXPECT_LT(f, prev);
        prev = f;
    }
    cfg.hours = 100.0;
    EXPECT_LT(thermalDriftFactor(cfg, 0.1), thermalDriftFactor(cfg, 0.05));
    EXPECT_DOUBLE_EQ(thermalDriftFactor(cfg, 0.0), 1.0);
}

TEST(ThermalDrift, TileDecaysHarderWhenHot)
{
    // With nuSigma = 0 every cell shares the exponent, so the tile-level
    // effect is an exact factor; a hotter tile decays strictly more.
    const Matrix w = randomMatrix(16, 16, 91);
    const CrossbarConfig config = tileConfig();
    const CrossbarTile base(config, w, 0.0f, NoiseToggles::allOff(), 3);

    auto baked = [&](double temperature_k) {
        ExtendedNoise ext;
        ext.tdrift.temperatureK = temperature_k;
        ext.tdrift.activationEv = 0.3;
        ext.tdrift.hours = 100.0;
        ext.tdrift.nu = 0.05;
        ext.tdrift.nuSigma = 0.0;
        return CrossbarTile(config, w, 0.0f, NoiseToggles::allOff(), 3,
                            ext);
    };
    const CrossbarTile cool = baked(300.0);
    const CrossbarTile hot = baked(375.0);

    ExtendedNoise ref;
    ref.tdrift.activationEv = 0.3;
    ref.tdrift.hours = 100.0;
    ref.tdrift.nu = 0.05;
    const double f300 = thermalDriftFactor(ref.tdrift, 0.05);
    double abs_cool = 0.0, abs_hot = 0.0, abs_base = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_NEAR(cool.effectiveWeights().raw()[i],
                    f300 * base.effectiveWeights().raw()[i], 1e-5);
        abs_cool += std::fabs(cool.effectiveWeights().raw()[i]);
        abs_hot += std::fabs(hot.effectiveWeights().raw()[i]);
        abs_base += std::fabs(base.effectiveWeights().raw()[i]);
    }
    EXPECT_LT(abs_hot, abs_cool);
    EXPECT_LT(abs_cool, abs_base);
}

// ---------------------------------------------------------------------------
// Spatially correlated write variation
// ---------------------------------------------------------------------------

TEST(CorrelatedFieldStats, MarginalsAreStandardNormal)
{
    // The bilinear interpolation is renormalized so every cell keeps an
    // exactly N(0, 1) marginal, including cells between grid nodes.
    double sum = 0.0, sumsq = 0.0;
    const std::size_t seeds = 400;
    for (std::uint64_t s = 0; s < seeds; ++s) {
        const CorrelatedField field(32, 32, 8.0, s * 977 + 13);
        for (const auto& cell : {std::pair<std::size_t, std::size_t>{5, 9},
                                 {20, 27}, {0, 0}, {13, 13}}) {
            const double v = field.value(cell.first, cell.second);
            sum += v;
            sumsq += v * v;
        }
    }
    const double n = static_cast<double>(seeds * 4);
    const double mean = sum / n;
    const double var = sumsq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.1);
    EXPECT_NEAR(var, 1.0, 0.25);
}

TEST(CorrelatedFieldStats, NeighborsCorrelateFarCellsDoNot)
{
    std::vector<double> a, b, far;
    for (std::uint64_t s = 0; s < 400; ++s) {
        const CorrelatedField field(48, 48, 8.0, s * 31 + 7);
        a.push_back(field.value(16, 16));
        b.push_back(field.value(16, 17)); // one cell apart, length 8
        far.push_back(field.value(16, 40)); // three grid nodes away
    }
    EXPECT_GT(corr(a, b), 0.6);
    EXPECT_LT(std::fabs(corr(a, far)), 0.25);
}

TEST(CorrelatedWrite, CoherentAcrossDifferentialPairAndSmooth)
{
    // The correlated factor multiplies both devices of the pair, so the
    // effective weight never flips sign, and its log-ratio field varies
    // smoothly: adjacent cells differ far less than distant cells.
    const Matrix w = randomMatrix(32, 32, 55);
    const CrossbarConfig config = tileConfig();
    const CrossbarTile base(config, w, 0.0f, NoiseToggles::allOff(), 17);

    ExtendedNoise ext;
    ext.cwrite.sigma = 0.15;
    ext.cwrite.lengthCells = 8.0;
    const CrossbarTile tile(config, w, 0.0f, NoiseToggles::allOff(), 17,
                            ext);

    Matrix logRatio(32, 32);
    std::size_t perturbed = 0;
    for (std::size_t r = 0; r < 32; ++r)
        for (std::size_t c = 0; c < 32; ++c) {
            const float eb = base.effectiveWeights().at(r, c);
            const float et = tile.effectiveWeights().at(r, c);
            if (std::fabs(eb) < 0.05f) {
                logRatio.at(r, c) = 0.0f; // excluded below
                continue;
            }
            ASSERT_GT(et / eb, 0.0f) << "sign flip at " << r << "," << c;
            logRatio.at(r, c) =
                std::log(static_cast<float>(et) / eb);
            if (std::fabs(et / eb - 1.0f) > 0.01f)
                ++perturbed;
        }
    EXPECT_GT(perturbed, 100u); // the source is actually applied

    double near_diff = 0.0, far_diff = 0.0;
    std::size_t near_n = 0, far_n = 0;
    for (std::size_t r = 0; r < 32; ++r)
        for (std::size_t c = 0; c + 1 < 32; ++c) {
            const float x = logRatio.at(r, c);
            const float y = logRatio.at(r, c + 1);
            const float z = logRatio.at((r + 13) % 32, (c + 17) % 32);
            if (x == 0.0f)
                continue;
            if (y != 0.0f) {
                near_diff += std::fabs(x - y);
                ++near_n;
            }
            if (z != 0.0f) {
                far_diff += std::fabs(x - z);
                ++far_n;
            }
        }
    ASSERT_GT(near_n, 100u);
    ASSERT_GT(far_n, 100u);
    EXPECT_LT(near_diff / static_cast<double>(near_n),
              0.5 * far_diff / static_cast<double>(far_n));
}

// ---------------------------------------------------------------------------
// Composition laws
// ---------------------------------------------------------------------------

TEST(NoiseCompose, PresetsMatchLegacyToggles)
{
    const std::pair<NonIdealityKind, NoiseToggles> legacy[] = {
        {NonIdealityKind::None, NoiseToggles::allOff()},
        {NonIdealityKind::SynapticWires, NoiseToggles::synapticWires()},
        {NonIdealityKind::SenseAdc, NoiseToggles::senseAdc()},
        {NonIdealityKind::DacDriver, NoiseToggles::dacDriver()},
        {NonIdealityKind::Combined, NoiseToggles::combined()},
        {NonIdealityKind::Measured, NoiseToggles::combined()},
    };
    for (const auto& [kind, toggles] : legacy) {
        SCOPED_TRACE(nonIdealityName(kind));
        const NoiseModel model = NoiseModel::preset(kind);
        EXPECT_TRUE(sameToggles(model.toggles, toggles));
        EXPECT_FALSE(model.extended.any());
    }
}

TEST(NoiseCompose, SpecTokenOrderAndSeparatorsNeverMatter)
{
    NoiseModel m1, m2, m3;
    std::string err;
    ASSERT_TRUE(NoiseModel::parse(
        "rtn.amp=0.1,cwrite.sigma=0.2,cwrite.len=4,adc=off", m1, err))
        << err;
    ASSERT_TRUE(NoiseModel::parse(
        "adc=off,cwrite.len=4,cwrite.sigma=0.2,rtn.amp=0.1", m2, err))
        << err;
    ASSERT_TRUE(NoiseModel::parse(
        "rtn.amp=0.1; cwrite.sigma=0.2\tcwrite.len=4  adc=off", m3, err))
        << err;
    EXPECT_TRUE(m1 == m2);
    EXPECT_TRUE(m1 == m3);
    EXPECT_FALSE(m1.toggles.adcNonideal);
    EXPECT_DOUBLE_EQ(m1.extended.rtn.amplitude, 0.1);
    EXPECT_DOUBLE_EQ(m1.extended.cwrite.sigma, 0.2);
}

TEST(NoiseCompose, DuplicateKeysLastWins)
{
    NoiseModel dup, single;
    std::string err;
    ASSERT_TRUE(NoiseModel::parse("rtn.amp=0.3,rtn.amp=0.1", dup, err))
        << err;
    ASSERT_TRUE(NoiseModel::parse("rtn.amp=0.1", single, err)) << err;
    EXPECT_TRUE(dup == single);
}

TEST(NoiseCompose, SpecIsADeltaOntoItsBasePreset)
{
    // The same delta applied to two different presets keeps each preset's
    // toggles and adds the same extended source.
    NoiseModel onIdeal, onCombined;
    std::string err;
    ASSERT_TRUE(NoiseModel::parse("rtn.amp=0.2",
                                  NoiseModel::preset(NonIdealityKind::None),
                                  onIdeal, err))
        << err;
    ASSERT_TRUE(NoiseModel::parse(
        "rtn.amp=0.2", NoiseModel::preset(NonIdealityKind::Combined),
        onCombined, err))
        << err;
    EXPECT_TRUE(sameToggles(onIdeal.toggles, NoiseToggles::allOff()));
    EXPECT_TRUE(sameToggles(onCombined.toggles, NoiseToggles::combined()));
    EXPECT_TRUE(onIdeal.extended == onCombined.extended);
    EXPECT_DOUBLE_EQ(onIdeal.extended.rtn.amplitude, 0.2);

    // preset= replaces the base toggles entirely.
    NoiseModel swapped;
    ASSERT_TRUE(NoiseModel::parse(
        "preset=ideal", NoiseModel::preset(NonIdealityKind::Combined),
        swapped, err))
        << err;
    EXPECT_TRUE(sameToggles(swapped.toggles, NoiseToggles::allOff()));
}

TEST(NoiseCompose, DescribeRoundTrips)
{
    NoiseModel model = NoiseModel::preset(NonIdealityKind::SenseAdc);
    model.extended.rtn = {0.12, 4.0, 2.0};
    model.extended.disturb = {0.05, 1500.0};
    model.extended.tdrift = {340.0, 0.25, 12.0, 0.04, 0.01};
    model.extended.cwrite = {0.15, 6.0};
    NoiseModel parsed;
    std::string err;
    ASSERT_TRUE(NoiseModel::parse(model.describe(), parsed, err))
        << err << " spec: " << model.describe();
    EXPECT_TRUE(parsed == model) << model.describe();
}

TEST(NoiseCompose, SourceIsOnOnlyOnceItsEnablingKeysAreSet)
{
    // mc_ensemble_refresh's spec: thermal drift also needs tdrift.nu and
    // correlated write cwrite.len, so only RTN and read disturb compose.
    const std::string spec = "rtn.amp=0.05,disturb.rate=0.01,"
                             "disturb.reads=1000,tdrift.hours=168,"
                             "cwrite.sigma=0.05";
    NoiseModel half;
    std::string err;
    ASSERT_TRUE(NoiseModel::parse(spec, half, err)) << err;
    EXPECT_TRUE(half.extended.rtn.enabled());
    EXPECT_TRUE(half.extended.disturb.enabled());
    EXPECT_FALSE(half.extended.tdrift.enabled());
    EXPECT_FALSE(half.extended.cwrite.enabled());
    const std::string described = half.describe();
    EXPECT_NE(described.find("rtn.amp=0.05"), std::string::npos) << described;
    EXPECT_NE(described.find("disturb.reads=1000"), std::string::npos)
        << described;
    EXPECT_EQ(described.find("tdrift."), std::string::npos) << described;
    EXPECT_EQ(described.find("cwrite."), std::string::npos) << described;

    NoiseModel full;
    ASSERT_TRUE(NoiseModel::parse(spec + ",tdrift.nu=0.05,cwrite.len=4",
                                  full, err))
        << err;
    EXPECT_TRUE(full.extended.rtn.enabled());
    EXPECT_TRUE(full.extended.disturb.enabled());
    EXPECT_TRUE(full.extended.tdrift.enabled());
    EXPECT_TRUE(full.extended.cwrite.enabled());
}

// ---------------------------------------------------------------------------
// Keyed streams: sources never perturb each other, all-off is bitwise
// ---------------------------------------------------------------------------

TEST(NoiseCompose, EnablingOneSourceNeverShiftsAnother)
{
    // Disturb and (nuSigma=0) thermal drift are deterministic factors, so
    // if their insertion left the RTN stream untouched the composed tile
    // must equal factor * the rtn-only tile exactly.
    const Matrix w = randomMatrix(16, 16, 77);
    const CrossbarConfig config = tileConfig();

    ExtendedNoise rtn_only;
    rtn_only.rtn.amplitude = 0.2;
    rtn_only.rtn.dwellUp = 2.0;
    rtn_only.rtn.dwellDown = 2.0;
    const CrossbarTile t_rtn(config, w, 0.0f, NoiseToggles::allOff(), 9,
                             rtn_only);

    ExtendedNoise with_disturb = rtn_only;
    with_disturb.disturb.rate = 0.1;
    with_disturb.disturb.reads = 999.0;
    const CrossbarTile t_rd(config, w, 0.0f, NoiseToggles::allOff(), 9,
                            with_disturb);
    const double f_d = readDisturbFactor(with_disturb.disturb);

    ExtendedNoise with_tdrift = rtn_only;
    with_tdrift.tdrift.temperatureK = 350.0;
    with_tdrift.tdrift.activationEv = 0.2;
    with_tdrift.tdrift.hours = 50.0;
    with_tdrift.tdrift.nu = 0.05;
    with_tdrift.tdrift.nuSigma = 0.0;
    const CrossbarTile t_rt(config, w, 0.0f, NoiseToggles::allOff(), 9,
                            with_tdrift);
    const double f_t = thermalDriftFactor(with_tdrift.tdrift, 0.05);

    for (std::size_t i = 0; i < w.size(); ++i) {
        const float rtn_eff = t_rtn.effectiveWeights().raw()[i];
        EXPECT_NEAR(t_rd.effectiveWeights().raw()[i], f_d * rtn_eff, 1e-5)
            << "disturb shifted the rtn stream at cell " << i;
        EXPECT_NEAR(t_rt.effectiveWeights().raw()[i], f_t * rtn_eff, 1e-5)
            << "tdrift shifted the rtn stream at cell " << i;
    }
}

// ---------------------------------------------------------------------------
// Parser rejection, fuzz, and typed errors
// ---------------------------------------------------------------------------

TEST(NoiseSpecParse, MalformedSpecsRejectedAndOutUntouched)
{
    NoiseModel sentinel = NoiseModel::preset(NonIdealityKind::SenseAdc);
    sentinel.extended.rtn = {0.123, 2.0, 3.0};
    for (const char* bad :
         {"bogus=1", "rtn.amp=1", "rtn.amp=1.5", "rtn.amp=-0.1",
          "rtn.dwell_up=0", "rtn.dwell_down=-2", "disturb.rate=-1",
          "disturb.reads=-5", "tdrift.t=0", "tdrift.t=-300",
          "tdrift.ea=-0.1", "tdrift.hours=-1", "tdrift.nu=-0.5",
          "tdrift.nu_sigma=-0.01", "cwrite.sigma=-0.5", "cwrite.len=-1",
          "preset=weird", "adc=maybe", "rtn.amp", "=5", "rtn.amp=",
          "rtn.amp=abc", "rtn.amp=0.1,bogus=2"}) {
        SCOPED_TRACE(bad);
        NoiseModel out = sentinel;
        std::string err;
        EXPECT_FALSE(NoiseModel::parse(bad, out, err));
        EXPECT_FALSE(err.empty());
        EXPECT_TRUE(out == sentinel) << "partial state leaked";
    }
}

TEST(NoiseSpecParse, FuzzedSpecsNeverCrashNorLeakPartialState)
{
    const char* valid[] = {
        "rtn.amp=0.1,rtn.dwell_up=4,rtn.dwell_down=2",
        "preset=combined,adc=off,cwrite.sigma=0.2,cwrite.len=8",
        "disturb.rate=0.05,disturb.reads=1000",
        "tdrift.t=350,tdrift.ea=0.2,tdrift.hours=10,tdrift.nu=0.05",
        "cquant=on,write_var=off,wire=1,sneak=0,dac=true,adc=false",
    };
    const char charset[] = "abcdefgh.=,;0123456789- _\txyz";
    NoiseModel sentinel = NoiseModel::preset(NonIdealityKind::DacDriver);
    sentinel.extended.disturb = {0.07, 123.0};
    Rng rng(0xf00d);
    for (int iter = 0; iter < 300; ++iter) {
        std::string spec = valid[rng.next(std::size(valid))];
        const std::size_t mutations = 1 + rng.next(3);
        for (std::size_t m = 0; m < mutations && !spec.empty(); ++m) {
            const std::size_t pos = rng.next(spec.size());
            switch (rng.next(3)) {
              case 0:
                spec[pos] = charset[rng.next(std::size(charset) - 1)];
                break;
              case 1: spec.erase(pos, 1); break;
              default:
                spec.insert(pos, 1,
                            charset[rng.next(std::size(charset) - 1)]);
                break;
            }
        }
        SCOPED_TRACE("iter " + std::to_string(iter) + ": " + spec);
        NoiseModel out = sentinel;
        std::string err;
        if (!NoiseModel::parse(spec, out, err)) {
            EXPECT_FALSE(err.empty());
            EXPECT_TRUE(out == sentinel) << "partial state leaked";
        } else {
            // Accepted specs must reach describe()'s fixed point in one
            // hop. Raw field equality would be too strong: a fuzzed spec
            // like "cwrite.sigma=0.,cwrite.len=8" leaves residue in a
            // disabled source, which the canonical form legitimately
            // drops.
            NoiseModel again;
            ASSERT_TRUE(NoiseModel::parse(out.describe(), again, err))
                << err;
            EXPECT_EQ(again.describe(), out.describe());
        }
    }
}

TEST(NoiseSpecParse, TypedAdmissionErrors)
{
    NonIdealityConfig config = scenario64();
    config.noise = "rtn.amp=2";
    const CompileError bad = validateNoiseSpec(config);
    EXPECT_EQ(bad.failure, CompileFailure::InvalidNoiseSpec);
    EXPECT_FALSE(bad.message.empty());
    EXPECT_STREQ(compileFailureName(CompileFailure::InvalidNoiseSpec),
                 "invalid_noise_spec");

    config.noise = "rtn.amp=0.1";
    EXPECT_TRUE(validateNoiseSpec(config).ok());
    config.noise.clear();
    EXPECT_TRUE(validateNoiseSpec(config).ok());
}

// ---------------------------------------------------------------------------
// Resolution precedence: explicit spec > SWORDFISH_NOISE > kind preset
// ---------------------------------------------------------------------------

TEST(NoiseOverride, PrecedenceAndControlArmExemption)
{
    // The expectation follows whatever SWORDFISH_NOISE this process saw
    // (a CI matrix leg and test_env_defaults set one): the override
    // composes onto the scenario's preset, or the preset stands alone.
    NonIdealityConfig combined = scenario64();
    NoiseModel expected = NoiseModel::preset(NonIdealityKind::Combined);
    const std::string& env = noiseOverrideSpec();
    std::string error;
    if (!env.empty()) {
        ASSERT_TRUE(NoiseModel::parse(
            env, NoiseModel::preset(NonIdealityKind::Combined), expected,
            error))
            << error;
    }
    EXPECT_TRUE(resolveNoiseModel(combined) == expected);

    // An explicit scenario spec wins over the override...
    NonIdealityConfig pinned = combined;
    pinned.noise = "rtn.amp=0.1";
    EXPECT_DOUBLE_EQ(resolveNoiseModel(pinned).extended.rtn.amplitude,
                     0.1);

    // ...and the None / Measured arms ignore the env override so the
    // ideal control and the chip library stay honest.
    NonIdealityConfig ideal = combined;
    ideal.kind = NonIdealityKind::None;
    EXPECT_TRUE(resolveNoiseModel(ideal)
                == NoiseModel::preset(NonIdealityKind::None));
    NonIdealityConfig measured = combined;
    measured.kind = NonIdealityKind::Measured;
    EXPECT_TRUE(resolveNoiseModel(measured)
                == NoiseModel::preset(NonIdealityKind::Measured));
}

// ---------------------------------------------------------------------------
// Layer ensemble averaging
// ---------------------------------------------------------------------------

TEST(Ensemble, ConfigValidationAndTypedErrors)
{
    EXPECT_EQ(kMaxEnsembleReplicas, 16u);

    EnsembleConfig zero;
    zero.k = 0;
    EXPECT_EQ(validateEnsembleConfig(zero).failure,
              CompileFailure::InvalidEnsemble);
    EnsembleConfig over;
    over.k = 17;
    EXPECT_EQ(validateEnsembleConfig(over).failure,
              CompileFailure::InvalidEnsemble);
    EnsembleConfig max;
    max.k = 16;
    EXPECT_TRUE(validateEnsembleConfig(max).ok());
    EXPECT_STREQ(compileFailureName(CompileFailure::InvalidEnsemble),
                 "invalid_ensemble");

    // The request-layer validator enforces the same [1, 16] bound (it
    // cannot include core/, so a mismatch would only show up here).
    auto hasBadEnsemble = [](const basecall::EvalRequest& req) {
        for (const basecall::JobError& e : req.validate())
            if (e.kind == basecall::JobErrorKind::BadEnsemble)
                return true;
        return false;
    };
    basecall::EvalRequest req;
    req.dataset = &Fixture::get().dataset;
    req.ensembleK = 0;
    EXPECT_TRUE(hasBadEnsemble(req));
    req.ensembleK = 17;
    EXPECT_TRUE(hasBadEnsemble(req));
    req.ensembleK = kMaxEnsembleReplicas;
    EXPECT_FALSE(hasBadEnsemble(req));
    EXPECT_STREQ(jobErrorName(basecall::JobErrorKind::BadEnsemble),
                 "bad_ensemble");
    EXPECT_STREQ(jobErrorName(basecall::JobErrorKind::BadNoiseSpec),
                 "bad_noise_spec");
}

TEST(Ensemble, AppliesRespectsLayerFilterAndK)
{
    EnsembleConfig cfg;
    cfg.k = 2;
    cfg.layers = "lstm";
    EXPECT_TRUE(cfg.applies("lstm0.wih"));
    EXPECT_FALSE(cfg.applies("conv1.w"));
    cfg.layers.clear();
    EXPECT_TRUE(cfg.applies("conv1.w"));
    cfg.k = 1; // disabled: replicates nothing regardless of the filter
    EXPECT_FALSE(cfg.applies("conv1.w"));
}

TEST(Ensemble, EmptyExtrasDelegatesBitwiseToVmmFast)
{
    const Matrix w = randomMatrix(24, 24, 61);
    const CrossbarConfig config = tileConfig();
    const CrossbarTile tile(config, w, 0.0f, NoiseToggles::combined(), 29);
    const Matrix x = randomMatrix(4, 24, 11, 0.3);

    Rng ra(77), rb(77);
    const Matrix plain = tile.vmmFast(x, ra);
    const std::vector<CrossbarTile> no_extras;
    const BatchLayout one_lane{{0, x.rows()}};
    Rng* const rngs[] = {&rb};
    VmmScratch scratch;
    tile.vmm(x, one_lane, rngs, scratch, &no_extras);
    ASSERT_EQ(scratch.y.rows(), plain.rows());
    ASSERT_EQ(scratch.y.cols(), plain.cols());
    for (std::size_t i = 0; i < plain.size(); ++i)
        EXPECT_EQ(fbits(plain.raw()[i]), fbits(scratch.y.raw()[i]));

    // The shared-ADC contract: the conversion stream advanced the same
    // number of draws either way, so the next draw agrees bitwise.
    EXPECT_EQ(bits(ra.uniform()), bits(rb.uniform()));
}

TEST(Ensemble, AveragedEffectiveWeightsConvergeWithK)
{
    // Replica-averaged effective weights approach the ideal matrix as K
    // grows: the uncorrelated write-variation error shrinks ~ 1/sqrt(K)
    // (the quantization bias floor stays, so strict decrease is the law).
    const Matrix w = randomMatrix(32, 32, 201);
    const CrossbarConfig config = tileConfig();
    const NoiseToggles noisy = {true, true, false, false, false, false};
    const std::uint64_t base_seed = 41;

    auto averaged = [&](std::size_t k) {
        Matrix avg(32, 32);
        for (std::size_t j = 0; j < k; ++j) {
            // Replica 0 keeps the tile seed; replicas j >= 1 derive
            // theirs exactly like CrossbarVmmBackend::programAnalytical.
            const std::uint64_t seed = j == 0
                ? base_seed
                : hashSeed({base_seed, kEnsembleTag, j});
            const CrossbarTile rep(config, w, 0.0f, noisy, seed);
            for (std::size_t i = 0; i < avg.size(); ++i)
                avg.raw()[i] += rep.effectiveWeights().raw()[i]
                    / static_cast<float>(k);
        }
        return avg;
    };
    const double e1 = frobeniusError(averaged(1), w);
    const double e4 = frobeniusError(averaged(4), w);
    const double e16 = frobeniusError(averaged(16), w);
    EXPECT_LT(e4, e1);
    EXPECT_LT(e16, e4);
}

TEST(Ensemble, K1IsBitwiseThePlainPath)
{
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    const AccuracySummary plain = evaluateNonIdealAccuracy(
        f.model, scenario64(),
        EvalOptions(f.dataset).runs(2).maxReads(4).seedBase(7));
    const AccuracySummary k1 = evaluateNonIdealAccuracy(
        f.model, scenario64(),
        EvalOptions(f.dataset).runs(2).maxReads(4).seedBase(7)
            .ensembleK(1));
    EXPECT_EQ(bits(plain.mean), bits(k1.mean));
    EXPECT_EQ(bits(plain.stddev), bits(k1.stddev));

    // K=2 is a different (deterministic) result: same bits on a re-run.
    const auto k2 = [&] {
        return evaluateNonIdealAccuracy(
            f.model, scenario64(),
            EvalOptions(f.dataset).runs(2).maxReads(4).seedBase(7)
                .ensembleK(2));
    };
    const AccuracySummary a = k2();
    const AccuracySummary b = k2();
    EXPECT_EQ(bits(a.mean), bits(b.mean));
    EXPECT_EQ(bits(a.stddev), bits(b.stddev));
}

TEST(Ensemble, AccuracyNonDecreasingInK)
{
    // A trained model under combined non-idealities plus strong
    // *uncorrelated* RTN: averaging K replicas before the ADC must not
    // hurt (correlated noise would not average away, so the composition
    // deliberately adds none).
    setGlobalPoolThreads(0);
    basecall::BonitoLiteConfig mcfg;
    mcfg.convChannels = 16;
    mcfg.lstmHidden = 16;
    mcfg.lstmLayers = 2;
    nn::SequenceModel model = basecall::buildBonitoLite(mcfg);
    const genomics::PoreModel pore;
    const genomics::Dataset train =
        genomics::makeTrainingDataset(24, 300, pore);
    basecall::TrainConfig tc;
    tc.epochs = 10;
    basecall::trainCtc(model, basecall::chunkDataset(train, 256), tc);
    const genomics::Dataset ds =
        genomics::makeDataset(genomics::specById("D1"), pore, 6);

    NonIdealityConfig scenario = scenario64();
    scenario.noise = "rtn.amp=0.25,rtn.dwell_up=2,rtn.dwell_down=2";
    auto acc = [&](std::size_t k) {
        return evaluateNonIdealAccuracy(
                   model, scenario,
                   EvalOptions(ds).runs(2).maxReads(4).seedBase(7)
                       .ensembleK(k))
            .mean;
    };
    const double k1 = acc(1);
    const double k8 = acc(8);
    EXPECT_GE(k8, k1);
}

TEST(Ensemble, AreaAndEnergyScaleArraysNotAdcs)
{
    Fixture& f = Fixture::get();
    const auto map = arch::buildPartitionMap(f.model, 64);
    const arch::AreaParams area_params;
    const arch::AreaReport a1 =
        arch::computeArea(map, area_params, 0.0, 16, 1);
    const arch::AreaReport a4 =
        arch::computeArea(map, area_params, 0.0, 16, 4);
    EXPECT_DOUBLE_EQ(a4.crossbarMm2, 4.0 * a1.crossbarMm2);
    EXPECT_DOUBLE_EQ(a4.dacMm2, 4.0 * a1.dacMm2);
    EXPECT_DOUBLE_EQ(a4.adcMm2, a1.adcMm2); // shared post-average ADC bank
    EXPECT_GT(a4.totalMm2, a1.totalMm2);
    EXPECT_LT(a4.totalMm2, 4.0 * a1.totalMm2);

    arch::WorkloadProfile wl;
    wl.samplesPerBase = 8.0;
    wl.convStride = 2;
    wl.meanReadLenBases = 420.0;
    wl.batch = 4;
    const arch::TimingParams timing;
    const arch::EnergyParams energy;
    const arch::EnergyResult e1 = arch::estimateEnergy(
        arch::Variant::Ideal, map, timing, energy, wl, -1.0, 1);
    const arch::EnergyResult e4 = arch::estimateEnergy(
        arch::Variant::Ideal, map, timing, energy, wl, -1.0, 4);
    // Cell reads and DACs scale with K; the ADC, digital, and IO terms
    // do not — so the total grows, but sublinearly.
    EXPECT_GT(e4.pjPerBase, e1.pjPerBase);
    EXPECT_LT(e4.pjPerBase, 4.0 * e1.pjPerBase);
}

TEST(Ensemble, HealthRefreshHealsReplicatedTilesDeterministically)
{
    // Replicated tiles age and refresh like the primaries: the healing
    // loop must still converge (no dead tiles) and stay bitwise across
    // identical runs.
    Fixture& f = Fixture::get();
    setGlobalPoolThreads(0);
    RefreshConfig cfg;
    cfg.thresholdError = 0.25;
    cfg.ageHoursPerRead = 50.0;
    cfg.probeReads = 2;
    cfg.spares = 2;
    cfg.drift.nu = 0.3;
    cfg.drift.nuSigma = 0.0;
    NonIdealityConfig scenario = scenario64();
    scenario.refresh = cfg;

    auto run = [&] {
        CrossbarVmmBackend backend(scenario, 5);
        EnsembleConfig ens;
        ens.k = 2;
        backend.setEnsemble(ens);
        f.model.setBackend(&backend);
        const basecall::AccuracyResult res = basecall::evaluateAccuracy(
            f.model, EvalOptions(f.dataset).maxReads(6));
        f.model.setBackend(nullptr);
        const HealthStats& st = backend.health()->stats();
        EXPECT_GT(st.probes, 0u);
        EXPECT_GT(st.refreshSuccesses, 0u);
        EXPECT_EQ(st.deadTiles, 0u);
        return res.meanIdentity;
    };
    const double first = run();
    const double second = run();
    EXPECT_EQ(bits(first), bits(second));
}
