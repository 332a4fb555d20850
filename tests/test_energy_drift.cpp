/** @file Tests for the energy model and conductance retention drift. */

#include <gtest/gtest.h>

#include "arch/energy.h"
#include "basecall/bonito_lite.h"
#include "crossbar/crossbar.h"
#include "test_util.h"

using namespace swordfish;
using namespace swordfish::arch;
using swordfish::testing::randomMatrix;

namespace {

PartitionMap
mappedModel(std::size_t size = 64)
{
    auto model = basecall::buildBonitoLite();
    return buildPartitionMap(model, size);
}

} // namespace

TEST(Energy, AllVariantsPositive)
{
    const auto map = mappedModel();
    const TimingParams timing;
    const EnergyParams energy;
    const WorkloadProfile wl;
    for (Variant v : {Variant::BonitoGpu, Variant::Ideal,
                      Variant::RealisticRvw, Variant::RealisticRsa,
                      Variant::RealisticRsaKd}) {
        const auto e = estimateEnergy(v, map, timing, energy, wl);
        EXPECT_GT(e.pjPerBase, 0.0) << variantName(v);
        EXPECT_NEAR(e.ujPerKb, e.pjPerBase * 1e-3, 1e-12);
    }
}

TEST(Energy, AcceleratorBeatsGpu)
{
    // The central CIM claim: in-memory VMMs avoid data movement, so even
    // the mitigated accelerator is far more energy-efficient per base.
    const auto map = mappedModel();
    const TimingParams timing;
    const EnergyParams energy;
    const WorkloadProfile wl;
    const auto gpu = estimateEnergy(Variant::BonitoGpu, map, timing,
                                    energy, wl);
    const auto ideal = estimateEnergy(Variant::Ideal, map, timing, energy,
                                      wl);
    const auto rsakd = estimateEnergy(Variant::RealisticRsaKd, map,
                                      timing, energy, wl);
    EXPECT_LT(ideal.pjPerBase, gpu.pjPerBase / 10.0);
    EXPECT_LT(rsakd.pjPerBase, gpu.pjPerBase);
}

TEST(Energy, MitigationAddsMaintenanceEnergy)
{
    const auto map = mappedModel();
    const TimingParams timing;
    const EnergyParams energy;
    const WorkloadProfile wl;
    const auto ideal = estimateEnergy(Variant::Ideal, map, timing, energy,
                                      wl);
    const auto rvw = estimateEnergy(Variant::RealisticRvw, map, timing,
                                    energy, wl);
    const auto rsa = estimateEnergy(Variant::RealisticRsa, map, timing,
                                    energy, wl);
    EXPECT_GT(rvw.pjPerBase, ideal.pjPerBase);
    EXPECT_GT(rsa.pjPerBase, ideal.pjPerBase);
    EXPECT_EQ(ideal.staticFraction, 0.0);
    EXPECT_GT(rvw.staticFraction, 0.0);
}

TEST(Energy, RsaEnergyScalesWithSramFraction)
{
    const auto map = mappedModel();
    const TimingParams timing;
    const EnergyParams energy;
    const WorkloadProfile wl;
    const auto at1 = estimateEnergy(Variant::RealisticRsa, map, timing,
                                    energy, wl, 0.01);
    const auto at10 = estimateEnergy(Variant::RealisticRsa, map, timing,
                                     energy, wl, 0.10);
    EXPECT_LT(at1.pjPerBase, at10.pjPerBase);
}

TEST(Drift, WeightsDecayTowardZero)
{
    crossbar::CrossbarConfig config;
    const Matrix w = randomMatrix(16, 16, 1);
    crossbar::CrossbarTile tile(config, w, 0.0f,
                                crossbar::NoiseToggles::allOff(), 2);
    const float norm_before = tile.effectiveWeights().frobeniusNorm();
    Rng rng(3);
    tile.applyDrift(100.0, crossbar::DriftConfig{}, rng);
    const float norm_after = tile.effectiveWeights().frobeniusNorm();
    EXPECT_LT(norm_after, norm_before);
    EXPECT_GT(norm_after, 0.0f);
}

TEST(Drift, LongerAgingDecaysMore)
{
    crossbar::CrossbarConfig config;
    const Matrix w = randomMatrix(16, 16, 4);
    auto decayed_norm = [&](double hours) {
        crossbar::CrossbarTile tile(config, w, 0.0f,
                                    crossbar::NoiseToggles::allOff(), 5);
        Rng rng(6);
        tile.applyDrift(hours, crossbar::DriftConfig{}, rng);
        return tile.effectiveWeights().frobeniusNorm();
    };
    EXPECT_GT(decayed_norm(1.0), decayed_norm(10.0));
    EXPECT_GT(decayed_norm(10.0), decayed_norm(1000.0));
}

TEST(Drift, CumulativeAcrossCalls)
{
    crossbar::CrossbarConfig config;
    const Matrix w = randomMatrix(8, 8, 7);
    crossbar::CrossbarTile once(config, w, 0.0f,
                                crossbar::NoiseToggles::allOff(), 8);
    crossbar::CrossbarTile twice(config, w, 0.0f,
                                 crossbar::NoiseToggles::allOff(), 8);
    Rng r1(9), r2(9);
    once.applyDrift(20.0, crossbar::DriftConfig{}, r1);
    twice.applyDrift(10.0, crossbar::DriftConfig{}, r2);
    twice.applyDrift(10.0, crossbar::DriftConfig{}, r2);
    // Not bit-identical (different per-cell draws) but similar magnitude.
    EXPECT_NEAR(once.effectiveWeights().frobeniusNorm(),
                twice.effectiveWeights().frobeniusNorm(),
                0.05f * once.effectiveWeights().frobeniusNorm());
}

TEST(Drift, SramCellsDoNotDrift)
{
    // Cells remapped to SRAM are digital state: aging leaves them at their
    // exact weight, while the analog cells drift exactly as they would on
    // the same tile without the remap (every cell still draws its drift
    // exponent, so the stream is shared).
    crossbar::CrossbarConfig config;
    const Matrix w = randomMatrix(16, 16, 17);
    crossbar::CrossbarTile remapped(config, w, 0.0f,
                                    crossbar::NoiseToggles::combined(), 18);
    crossbar::CrossbarTile analog(config, w, 0.0f,
                                  crossbar::NoiseToggles::combined(), 18);
    std::vector<std::uint8_t> mask(w.size(), 0);
    for (std::size_t i = 0; i < mask.size(); i += 3)
        mask[i] = 1;
    remapped.remapCellsToSram(mask);

    Rng r1(19), r2(19);
    remapped.applyDrift(500.0, crossbar::DriftConfig{}, r1);
    analog.applyDrift(500.0, crossbar::DriftConfig{}, r2);
    for (std::size_t i = 0; i < mask.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(remapped.effectiveWeights().raw()[i],
                  mask[i] != 0 ? w.raw()[i]
                               : analog.effectiveWeights().raw()[i]);
    }
    EXPECT_EQ(remapped.sramMask(), mask);
}

TEST(Drift, ZeroHoursIsNoOp)
{
    crossbar::CrossbarConfig config;
    const Matrix w = randomMatrix(8, 8, 14);
    crossbar::CrossbarTile tile(config, w, 0.0f,
                                crossbar::NoiseToggles::allOff(), 15);
    const Matrix before = tile.effectiveWeights();
    Rng rng(16);
    tile.applyDrift(0.0, crossbar::DriftConfig{}, rng);
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(tile.effectiveWeights().raw()[i], before.raw()[i]);
}
