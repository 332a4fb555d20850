/** @file Backend registry and plan-compiler tests: the typed
 *  compile-error surface (unknown backend, shape mismatch against a cached
 *  plan, degenerate device configs, out-of-range remap fractions, scenario
 *  mismatches), registry dispatch across the three families and the
 *  families each evaluation entry point implies, the WeightPlan lowering
 *  and its lazy-vs-compiled agreement, and the crossbar-mapping edge-case
 *  regressions that motivated the typed validation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "basecall/bonito_lite.h"
#include "core/evaluator.h"
#include "core/plan.h"
#include "core/registry.h"
#include "core/vmm_backend.h"
#include "crossbar/device.h"
#include "crossbar/mapping.h"
#include "genomics/dataset.h"
#include "test_util.h"

using namespace swordfish;
using namespace swordfish::core;
using swordfish::testing::randomMatrix;

namespace {

/** Small model + dataset shared by the dispatch tests. */
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
        dataset = genomics::makeDataset(genomics::specById("D1"),
                                        pore, 3);
    }
};

NonIdealityConfig
analyticalScenario()
{
    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 64;
    return scenario;
}

} // namespace

// ---------------------------------------------------------------------------
// Typed validation
// ---------------------------------------------------------------------------

TEST(TypedValidation, DegenerateDeviceConfigsAreRejected)
{
    crossbar::DeviceConfig device;
    EXPECT_TRUE(crossbar::validateDeviceConfig(device).ok());

    device.gMax = device.gMin; // empty conductance span -> NaN mapping
    EXPECT_FALSE(crossbar::validateDeviceConfig(device).ok());

    device = crossbar::DeviceConfig{};
    device.conductanceLevels = 1; // quantization span of zero levels
    EXPECT_FALSE(crossbar::validateDeviceConfig(device).ok());

    device = crossbar::DeviceConfig{};
    device.gMin = -1e-6;
    EXPECT_FALSE(crossbar::validateDeviceConfig(device).ok());
}

TEST(TypedValidation, CrossbarBackendRejectsDegenerateDevice)
{
    BackendSpec spec;
    spec.scenario = analyticalScenario();
    spec.scenario.crossbar.device.gMax = spec.scenario.crossbar.device.gMin;
    auto api = BackendRegistry::instance().create("analytical", spec);
    ASSERT_NE(api, nullptr);
    const CompileError err = api->initialize();
    EXPECT_EQ(err.failure, CompileFailure::InvalidDeviceConfig);
}

TEST(TypedValidation, RemapFractionOutsideUnitIntervalIsTypedError)
{
    SramRemapConfig remap;
    remap.fraction = 1.05;
    EXPECT_EQ(validateRemapConfig(remap).failure,
              CompileFailure::InvalidRemapFraction);
    remap.fraction = -0.01;
    EXPECT_EQ(validateRemapConfig(remap).failure,
              CompileFailure::InvalidRemapFraction);
    remap.fraction = 1.0;
    EXPECT_TRUE(validateRemapConfig(remap).ok());

    BackendSpec spec;
    spec.scenario = analyticalScenario();
    spec.remap.fraction = 2.0;
    auto api = BackendRegistry::instance().create("analytical", spec);
    ASSERT_NE(api, nullptr);
    EXPECT_EQ(api->initialize().failure,
              CompileFailure::InvalidRemapFraction);
}

TEST(TypedValidation, FamilyScenarioMismatchIsTypedError)
{
    BackendSpec spec;
    spec.scenario = analyticalScenario(); // no measurement library
    auto api = BackendRegistry::instance().create("measured", spec);
    ASSERT_NE(api, nullptr);
    EXPECT_EQ(api->initialize().failure,
              CompileFailure::ScenarioMismatch);

    spec.scenario.kind = NonIdealityKind::Measured;
    api = BackendRegistry::instance().create("analytical", spec);
    ASSERT_NE(api, nullptr);
    EXPECT_EQ(api->initialize().failure,
              CompileFailure::ScenarioMismatch);
}

TEST(TypedValidation, CompileWeightShapeMismatchIsTypedError)
{
    CrossbarVmmBackend backend(analyticalScenario(), 5);
    Matrix w(16, 24);
    EXPECT_TRUE(backend.compileWeight("layer.w", w).ok());
    Matrix other(16, 32);
    const CompileError err = backend.compileWeight("layer.w", other);
    EXPECT_EQ(err.failure, CompileFailure::ShapeMismatch);
    EXPECT_NE(err.message.find("layer.w"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Crossbar-mapping edge-case regressions
// ---------------------------------------------------------------------------

TEST(RemapEdgeCases, FullFractionRemapsEveryCellWithoutUb)
{
    // fraction = 1.0 selects k = every cell; the unclamped k used to hand
    // nth_element a pivot past order.end() (UB). Under ASan/UBSan this
    // test is the regression guard; functionally every weight must land
    // in SRAM, which makes the tiles exact.
    CrossbarVmmBackend backend(analyticalScenario(), 3);
    SramRemapConfig remap;
    remap.fraction = 1.0;
    backend.setSramRemap(remap);

    Matrix w(48, 80);
    for (std::size_t r = 0; r < w.rows(); ++r)
        for (std::size_t c = 0; c < w.cols(); ++c)
            w(r, c) = 0.01f * static_cast<float>(r + 1)
                - 0.02f * static_cast<float>(c);
    Matrix x(2, 80);
    for (std::size_t c = 0; c < x.cols(); ++c) {
        x(0, c) = 0.5f;
        x(1, c) = -0.25f;
    }
    Matrix y;
    backend.matmul("probe.w", w, x, y);
    ASSERT_EQ(y.rows(), 2u);
    ASSERT_EQ(y.cols(), 48u);

    const auto& masks = backend.sramMasks().at("probe.w");
    EXPECT_EQ(std::count(masks.begin(), masks.end(), 1),
              static_cast<std::ptrdiff_t>(w.size()));
}

TEST(RemapEdgeCases, SetterPanicsOnOutOfRangeFraction)
{
    CrossbarVmmBackend backend(analyticalScenario(), 3);
    SramRemapConfig remap;
    remap.fraction = 1.5;
    EXPECT_DEATH(backend.setSramRemap(remap), "within \\[0, 1\\]");
}

TEST(RemapEdgeCases, MapperPanicsOnDegenerateDeviceConfig)
{
    crossbar::DeviceConfig device;
    device.conductanceLevels = 1;
    EXPECT_DEATH(crossbar::ConductanceMapper mapper(device),
                 "conductanceLevels");
}

// ---------------------------------------------------------------------------
// Registry dispatch
// ---------------------------------------------------------------------------

TEST(BackendRegistry, ListsTheThreeFamilies)
{
    const std::vector<std::string> expect = {"analytical", "digital",
                                             "measured"};
    EXPECT_EQ(BackendRegistry::instance().names(), expect);
}

TEST(BackendRegistry, UnknownFamilyIsTypedError)
{
    CompileError err;
    auto api = BackendRegistry::instance().create("hal9000",
                                                  BackendSpec{}, &err);
    EXPECT_EQ(api, nullptr);
    EXPECT_EQ(err.failure, CompileFailure::UnknownBackend);
    EXPECT_NE(err.message.find("hal9000"), std::string::npos);
    EXPECT_NE(err.message.find("analytical"), std::string::npos);
}

TEST(BackendRegistry, DispatchesEveryFamilyEndToEnd)
{
    Fixture& f = Fixture::get();
    for (const std::string& family :
         {std::string("digital"), std::string("analytical"),
          std::string("measured")}) {
        SCOPED_TRACE(family);
        BackendSpec spec;
        spec.seed = 9;
        if (family == "digital") {
            spec.quant = QuantConfig{8, 8};
        } else {
            spec.scenario = analyticalScenario();
            if (family == "measured")
                spec.scenario.kind = NonIdealityKind::Measured;
        }
        CompileError err;
        auto api = BackendRegistry::instance().create(family, spec, &err);
        ASSERT_NE(api, nullptr) << err.message;
        ASSERT_TRUE(api->initialize().ok());

        nn::SequenceModel deployed = api->deployModel(f.model);
        const CompileResult compiled = api->compile(deployed);
        ASSERT_TRUE(compiled.success()) << compiled.error.message;
        EXPECT_GT(compiled.weightsCompiled, 0u);
        EXPECT_GE(compiled.seconds, 0.0);

        const auto acc = api->runProgram(
            deployed, basecall::EvalOptions(f.dataset).maxReads(2));
        EXPECT_EQ(acc.readsEvaluated, 2u);
        EXPECT_GT(acc.basesCalled, 0u);
    }
}

TEST(BackendRegistry, CompiledPlanCoversEveryMappedWeight)
{
    Fixture& f = Fixture::get();
    BackendSpec spec;
    spec.scenario = analyticalScenario();
    spec.seed = 4;
    auto api = BackendRegistry::instance().create("analytical", spec);
    ASSERT_NE(api, nullptr);
    ASSERT_TRUE(api->initialize().ok());
    const CompileResult compiled = api->compile(f.model);
    ASSERT_TRUE(compiled.success());
    EXPECT_GT(compiled.tilesCompiled, 0u);

    auto& backend = static_cast<CrossbarVmmBackend&>(api->execution());
    EXPECT_EQ(backend.plan().weightCount(), compiled.weightsCompiled);
    EXPECT_GT(backend.plan().totalTiles, 0u);
    for (nn::Parameter* p : f.model.parameters()) {
        const WeightPlan* wp = backend.plan().find(p->name);
        if (wp != nullptr) {
            EXPECT_EQ(wp->rows, p->value.rows());
            EXPECT_EQ(wp->cols, p->value.cols());
        }
    }
}

TEST(BackendRegistry, CompiledSelectorSelectsNothing)
{
    // "compiled" is the one accepted selector token: it must not move a
    // bit against an empty selector.
    Fixture& f = Fixture::get();
    auto eval_with = [&](const char* selector) {
        EvalRequest req =
            EvalOptions(f.dataset).runs(2).maxReads(2).seedBase(11);
        req.backend = selector;
        return evaluateNonIdealAccuracy(f.model, analyticalScenario(), req);
    };
    const AccuracySummary defaults = eval_with("");
    const AccuracySummary pinned = eval_with("compiled");
    std::uint64_t db = 0, pb = 0;
    std::memcpy(&db, &defaults.mean, sizeof(db));
    std::memcpy(&pb, &pinned.mean, sizeof(pb));
    EXPECT_EQ(db, pb);
    EXPECT_EQ(defaults.runs, pinned.runs);
}

TEST(ImpliedFamilyDeathTest, FamilyTokenDiesBadBackend)
{
    // Each entry point implies its family. A request naming another one
    // used to run it silently: a crossbar number from the quantized
    // entry point, a digital one from the non-ideal entry point.
    Fixture& f = Fixture::get();
    EvalRequest req = EvalOptions(f.dataset).maxReads(2);
    req.backend = "analytical";
    EXPECT_DEATH(evaluateQuantizedAccuracy(f.model, QuantConfig{8, 8}, req),
                 "bad_backend");
    req.backend = "digital";
    EXPECT_DEATH(
        evaluateNonIdealAccuracy(f.model, analyticalScenario(), req),
        "bad_backend");
}

// ---------------------------------------------------------------------------
// WeightPlan lowering
// ---------------------------------------------------------------------------

TEST(WeightPlanLowering, RaggedGridOpOrderBoundsAndCounters)
{
    // 130x70 at tile 64: row tiles of 64/64/2 outputs, column slices of
    // 64/6 inputs.
    constexpr std::size_t kRows = 130, kCols = 70, kTile = 64;
    crossbar::CrossbarConfig config;
    config.size = kTile;
    const Matrix w = randomMatrix(kRows, kCols, 3);
    const std::size_t row_tiles = 3, col_tiles = 2;
    std::vector<std::vector<crossbar::CrossbarTile>> tiles(row_tiles);
    std::vector<std::vector<std::vector<crossbar::CrossbarTile>>> extras(
        row_tiles);
    for (std::size_t rt = 0; rt < row_tiles; ++rt) {
        extras[rt].resize(col_tiles);
        for (std::size_t ct = 0; ct < col_tiles; ++ct) {
            const std::size_t r0 = rt * kTile, c0 = ct * kTile;
            const std::size_t r1 = std::min(kRows, r0 + kTile);
            const std::size_t c1 = std::min(kCols, c0 + kTile);
            Matrix sub(r1 - r0, c1 - c0);
            for (std::size_t r = r0; r < r1; ++r)
                for (std::size_t c = c0; c < c1; ++c)
                    sub(r - r0, c - c0) = w(r, c);
            tiles[rt].emplace_back(config, sub, w.absMax(),
                                   crossbar::NoiseToggles::allOff(),
                                   rt * col_tiles + ct);
            extras[rt][ct].emplace_back(config, sub, w.absMax(),
                                        crossbar::NoiseToggles::allOff(),
                                        100 + rt * col_tiles + ct);
        }
    }

    for (const bool with_extras : {false, true}) {
        SCOPED_TRACE(with_extras ? "with extras" : "without extras");
        const WeightPlan plan = buildAnalyticalWeightPlan(
            kRows, kCols, kTile, tiles, with_extras ? &extras : nullptr);
        EXPECT_EQ(plan.rows, kRows);
        EXPECT_EQ(plan.cols, kCols);
        EXPECT_FALSE(plan.measured);

        // Column tile outer, row tile inner.
        ASSERT_EQ(plan.slices.size(), col_tiles);
        ASSERT_EQ(plan.ops.size(), row_tiles * col_tiles);
        const std::size_t widths[] = {64, 6};
        std::size_t tile_vmms = 0, dac = 0, adc = 0;
        for (std::size_t ct = 0; ct < col_tiles; ++ct) {
            const PlanColSlice& slice = plan.slices[ct];
            EXPECT_EQ(slice.colBegin, ct * kTile);
            EXPECT_EQ(slice.width, widths[ct]);
            EXPECT_EQ(slice.opBegin, ct * row_tiles);
            EXPECT_EQ(slice.opCount, row_tiles);
            for (std::size_t rt = 0; rt < row_tiles; ++rt) {
                const PlanTileOp& op = plan.ops[slice.opBegin + rt];
                EXPECT_EQ(op.tile, &tiles[rt][ct]);
                EXPECT_EQ(op.rowBegin, rt * kTile);
                EXPECT_EQ(op.extras,
                          with_extras ? &extras[rt][ct] : nullptr);
                ++tile_vmms;
                dac += slice.width;
                adc += op.tile->rows();
            }
        }
        EXPECT_EQ(plan.tileVmms, tile_vmms);
        EXPECT_EQ(plan.dacPerRow, dac);
        EXPECT_EQ(plan.adcPerRow, adc);
    }

    // An empty replica grid is the no-ensemble case.
    const std::vector<std::vector<std::vector<crossbar::CrossbarTile>>>
        none;
    const WeightPlan plain =
        buildAnalyticalWeightPlan(kRows, kCols, kTile, tiles, &none);
    for (const PlanTileOp& op : plain.ops)
        EXPECT_EQ(op.extras, nullptr);
}

TEST(WeightPlanLowering, LazyProgrammingMatchesAotCompileBitwise)
{
    // A weight programmed by its first matmul (no compile()) runs the
    // same WeightPlan as an AOT-compiled one: serial and batched outputs
    // agree bit for bit.
    const Matrix w = randomMatrix(130, 70, 5);
    Matrix x = randomMatrix(6, 70, 6);
    for (std::size_t c = 0; c < x.cols(); ++c)
        x(2, c) *= 4.0f; // lanes with different input scales
    const BatchLayout layout = {{0, 2}, {1, 3}, {2, 1}};

    struct Case
    {
        const char* name;
        NonIdealityKind kind;
        std::size_t k;
    };
    for (const Case& c : {Case{"combined", NonIdealityKind::Combined, 1},
                          Case{"ensemble K=2", NonIdealityKind::Combined, 2},
                          Case{"measured", NonIdealityKind::Measured, 1}}) {
        SCOPED_TRACE(c.name);
        NonIdealityConfig scenario;
        scenario.kind = c.kind;
        scenario.crossbar.size = 64;
        auto run = [&](bool aot, Matrix& serial, Matrix& batched) {
            CrossbarVmmBackend backend(scenario, 9);
            EnsembleConfig ensemble;
            ensemble.k = c.k;
            backend.setEnsemble(ensemble);
            if (aot) {
                EXPECT_TRUE(backend.compileWeight("w", w).ok());
                backend.finishCompile();
            }
            EXPECT_EQ(backend.plan().find("w") != nullptr, aot);
            backend.beginRead(3);
            backend.matmul("w", w, x, serial);
            backend.beginBatch({3, 4, 5});
            backend.matmulBatched("w", w, x, batched, layout);
            backend.endBatch();
            EXPECT_EQ(backend.plan().find("w") != nullptr, aot);
        };
        Matrix lazy_serial, lazy_batched, aot_serial, aot_batched;
        run(false, lazy_serial, lazy_batched);
        run(true, aot_serial, aot_batched);
        ASSERT_EQ(lazy_serial.size(), aot_serial.size());
        ASSERT_EQ(lazy_batched.size(), aot_batched.size());
        EXPECT_EQ(std::memcmp(lazy_serial.raw().data(),
                              aot_serial.raw().data(),
                              lazy_serial.size() * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(lazy_batched.raw().data(),
                              aot_batched.raw().data(),
                              lazy_batched.size() * sizeof(float)),
                  0);
    }
}
