/** @file Backend registry tests: the typed compile-error surface (unknown
 *  backend, shape mismatch against a compiled weight, degenerate device
 *  configs, out-of-range remap fractions, scenario mismatches), registry
 *  dispatch across the three families and the families each evaluation
 *  entry point implies, and the crossbar-mapping edge-case regressions
 *  that motivated the typed validation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "basecall/bonito_lite.h"
#include "core/deploy.h"
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
    ASSERT_TRUE(backend.compileWeight("probe.w", w).ok());
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

        // runProgram's read loop compiles the model before its first
        // read: a crossbar family then holds programmed tiles.
        nn::SequenceModel deployed = api->deployModel(f.model);
        const auto acc = api->runProgram(
            deployed, basecall::EvalOptions(f.dataset).maxReads(2));
        EXPECT_EQ(acc.readsEvaluated, 2u);
        EXPECT_GT(acc.basesCalled, 0u);
        if (family != "digital") {
            const auto& backend =
                static_cast<CrossbarVmmBackend&>(api->execution());
            EXPECT_GT(backend.programmedTiles(), 0u);
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

