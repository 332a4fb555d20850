/** @file Tests for the architecture model: the tile grid, partition &
 *  map, area, throughput, and the one tiling the simulator and the
 *  hardware-cost models share. */

#include <gtest/gtest.h>

#include "arch/area.h"
#include "arch/energy.h"
#include "arch/partition.h"
#include "arch/throughput.h"
#include "basecall/bonito_lite.h"
#include "core/vmm_backend.h"
#include "test_util.h"
#include "util/metrics.h"

using namespace swordfish;
using namespace swordfish::arch;

namespace {

nn::SequenceModel
model()
{
    return basecall::buildBonitoLite();
}

/** A vmm.* counter's current total (0 before its first add). */
std::uint64_t
vmmCount(const char* name)
{
    const auto snap = metrics().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

} // namespace

TEST(TileGrid, RaggedBoundsAndConversions)
{
    // 130x70 at tile 64: row tiles of 64/64/2 outputs, column tiles of
    // 64/6 inputs.
    const TileGrid g(130, 70, 64);
    ASSERT_EQ(g.rowTiles, 3u);
    ASSERT_EQ(g.colTiles, 2u);
    EXPECT_EQ(g.tileCount(), 6u);
    EXPECT_EQ(g.weightCount(), 130u * 70u);
    const std::size_t row_ends[] = {64, 128, 130};
    for (std::size_t rt = 0; rt < g.rowTiles; ++rt) {
        EXPECT_EQ(g.rowBegin(rt), rt * 64);
        EXPECT_EQ(g.rowEnd(rt), row_ends[rt]);
    }
    const std::size_t col_ends[] = {64, 70};
    for (std::size_t ct = 0; ct < g.colTiles; ++ct) {
        EXPECT_EQ(g.colBegin(ct), ct * 64);
        EXPECT_EQ(g.colEnd(ct), col_ends[ct]);
    }
    // Every tile converts each of its inputs (DAC) and each of its
    // outputs (ADC) once per input row.
    std::size_t dac = 0, adc = 0;
    for (std::size_t rt = 0; rt < g.rowTiles; ++rt) {
        for (std::size_t ct = 0; ct < g.colTiles; ++ct) {
            dac += g.colEnd(ct) - g.colBegin(ct);
            adc += g.rowEnd(rt) - g.rowBegin(rt);
        }
    }
    EXPECT_EQ(g.dacPerRow(), dac);
    EXPECT_EQ(g.adcPerRow(), adc);
}

TEST(TileGrid, OneTilingForProgrammingCountersAndEnergy)
{
    // The partition map, the programmed tiles and the vmm.* counters of
    // both modeling families read the same grid.
    constexpr std::size_t kSteps = 3;
    for (const std::size_t size : {std::size_t{64}, std::size_t{256}}) {
        for (const core::NonIdealityKind kind :
             {core::NonIdealityKind::Combined,
              core::NonIdealityKind::Measured}) {
            SCOPED_TRACE(std::to_string(size) + " "
                         + core::nonIdealityName(kind));
            auto m = model();
            const PartitionMap map = buildPartitionMap(m, size);
            core::NonIdealityConfig scenario;
            scenario.kind = kind;
            scenario.crossbar.size = size;
            core::CrossbarVmmBackend backend(scenario, 1);
            ASSERT_TRUE(backend.compile(m).ok());
            EXPECT_EQ(backend.programmedTiles(), map.totalTiles());

            for (const VmmSite& site : map.sites) {
                SCOPED_TRACE(site.name);
                const nn::Parameter* weight = nullptr;
                for (nn::Parameter* p : m.parameters())
                    if (p->name == site.name)
                        weight = p;
                ASSERT_NE(weight, nullptr);
                const Matrix x =
                    swordfish::testing::randomMatrix(kSteps, site.cols, 5);
                const std::uint64_t tiles0 = vmmCount("vmm.tile_vmms");
                const std::uint64_t dac0 = vmmCount("vmm.dac_conversions");
                const std::uint64_t adc0 = vmmCount("vmm.adc_conversions");
                Matrix y;
                backend.matmul(site.name, weight->value, x, y);
                EXPECT_EQ(vmmCount("vmm.tile_vmms") - tiles0,
                          site.tileCount());
                EXPECT_EQ(vmmCount("vmm.dac_conversions") - dac0,
                          kSteps * site.dacPerRow());
                EXPECT_EQ(vmmCount("vmm.adc_conversions") - adc0,
                          kSteps * site.adcPerRow());
            }
        }
    }

    // The energy model charges the same conversions: with only the DAC
    // energy left and one timestep per base, the charge per base is the
    // per-step DAC count. Each 128x32 LSTM weight spans two row tiles at
    // 64x64, each driving its own copy of the input.
    auto m = model();
    EnergyParams dac_only;
    dac_only.crossbarReadPjPerCell = 0.0;
    dac_only.adcPjPerConversion = 0.0;
    dac_only.dacPjPerConversion = 1.0;
    dac_only.digitalPjPerStep = 0.0;
    dac_only.sramPjPerAccess = 0.0;
    dac_only.ioPjPerSample = 0.0;
    dac_only.writePulsePj = 0.0;
    dac_only.verifyReadPj = 0.0;
    dac_only.gpuPjPerFlop = 0.0;
    WorkloadProfile one_step;
    one_step.samplesPerBase = static_cast<double>(one_step.convStride);
    const EnergyResult e = estimateEnergy(
        Variant::Ideal, buildPartitionMap(m, 64), TimingParams{}, dac_only,
        one_step);
    EXPECT_EQ(e.pjPerBase, 421.0);
}

TEST(Partition, EnumeratesAllVmmSites)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    // conv + 3 x (wih + whh) + head = 8 sites.
    ASSERT_EQ(map.sites.size(), 8u);
    EXPECT_EQ(map.sites.front().name, "conv0.w");
    EXPECT_EQ(map.sites.front().kind, VmmKind::Convolution);
    EXPECT_EQ(map.sites.back().name, "head.w");
    EXPECT_EQ(map.sites.back().kind, VmmKind::Linear);
}

TEST(Partition, TileCountsMatchCeilDiv)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    for (const auto& site : map.sites) {
        EXPECT_EQ(site.rowTiles, (site.rows + 63) / 64);
        EXPECT_EQ(site.colTiles, (site.cols + 63) / 64);
    }
    // lstm wih is 128x32 -> 2x1 tiles on 64x64 arrays.
    const auto& wih = map.sites[1];
    EXPECT_EQ(wih.kind, VmmKind::LstmInput);
    EXPECT_EQ(wih.rows, 128u);
    EXPECT_EQ(wih.rowTiles, 2u);
    EXPECT_EQ(wih.colTiles, 1u);
}

TEST(Partition, BiggerCrossbarsFewerTiles)
{
    auto m = model();
    const auto small = buildPartitionMap(m, 64);
    const auto big = buildPartitionMap(m, 256);
    EXPECT_GT(small.totalTiles(), big.totalTiles());
    EXPECT_EQ(small.totalMappedWeights(), big.totalMappedWeights());
}

TEST(Partition, MappedWeightsMatchParameterSizes)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    std::size_t expected = 0;
    for (nn::Parameter* p : m.parameters()) {
        const auto& name = p->name;
        if (name.ends_with(".w") || name.ends_with(".wih")
            || name.ends_with(".whh")) {
            expected += p->size();
        }
    }
    EXPECT_EQ(map.totalMappedWeights(), expected);
}

TEST(Partition, DescribeListsEverySite)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    const std::string desc = map.describe();
    for (const auto& site : map.sites)
        EXPECT_NE(desc.find(site.name), std::string::npos);
}

TEST(Partition, ZeroSizeIsFatal)
{
    // The tiling test above compiles on the thread pool; a forked child
    // cannot join those workers at exit, so re-execute instead of fork.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    auto m = model();
    EXPECT_EXIT(buildPartitionMap(m, 0), ::testing::ExitedWithCode(1),
                "positive");
}

TEST(Area, ComponentsArePositive)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    const auto area = computeArea(map, AreaParams{}, 0.05);
    EXPECT_GT(area.crossbarMm2, 0.0);
    EXPECT_GT(area.adcMm2, 0.0);
    EXPECT_GT(area.dacMm2, 0.0);
    EXPECT_GT(area.sramMm2, 0.0);
    EXPECT_GT(area.digitalMm2, 0.0);
    EXPECT_NEAR(area.totalMm2,
                area.crossbarMm2 + area.adcMm2 + area.dacMm2
                    + area.sramMm2 + area.digitalMm2,
                1e-9);
}

TEST(Area, SramGrowsWithFraction)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    const auto a0 = computeArea(map, AreaParams{}, 0.0);
    const auto a5 = computeArea(map, AreaParams{}, 0.05);
    const auto a10 = computeArea(map, AreaParams{}, 0.10);
    EXPECT_EQ(a0.sramMm2, 0.0);
    EXPECT_LT(a5.sramMm2, a10.sramMm2);
    EXPECT_LT(a5.totalMm2, a10.totalMm2);
    EXPECT_NEAR(a10.sramMm2, 2.0 * a5.sramMm2, 1e-9);
}

TEST(Area, AdcDominatesAnalogArea)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    const auto area = computeArea(map, AreaParams{}, 0.0);
    EXPECT_GT(area.adcMm2, area.crossbarMm2);
}

TEST(Throughput, PipelineStepIncludesAdcSerialization)
{
    auto m = model();
    const auto map64 = buildPartitionMap(m, 64);
    const auto map256 = buildPartitionMap(m, 256);
    const TimingParams timing;
    EXPECT_GT(pipelineStepNs(map256, timing),
              pipelineStepNs(map64, timing));
}

TEST(Throughput, FlopsPerStepMatchesWeights)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    EXPECT_DOUBLE_EQ(flopsPerStep(map),
                     2.0 * static_cast<double>(map.totalMappedWeights()));
}

TEST(Throughput, VariantOrderingMatchesPaper)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    const TimingParams timing;
    const WorkloadProfile wl;
    const double gpu = estimateThroughput(Variant::BonitoGpu, map, timing,
                                          wl).kbps;
    const double ideal = estimateThroughput(Variant::Ideal, map, timing,
                                            wl).kbps;
    const double rvw = estimateThroughput(Variant::RealisticRvw, map,
                                          timing, wl).kbps;
    const double rsa = estimateThroughput(Variant::RealisticRsa, map,
                                          timing, wl).kbps;
    const double rsakd = estimateThroughput(Variant::RealisticRsaKd, map,
                                            timing, wl).kbps;
    // Paper Fig. 14: Ideal >> RSA+KD > RSA > GPU > RVW.
    EXPECT_GT(ideal, rsakd);
    EXPECT_GT(rsakd, rsa);
    EXPECT_GT(rsa, gpu);
    EXPECT_GT(gpu, rvw);
}

TEST(Throughput, PaperRatiosApproximatelyReproduced)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    const TimingParams timing;
    const WorkloadProfile wl;
    const double gpu = estimateThroughput(Variant::BonitoGpu, map, timing,
                                          wl).kbps;
    EXPECT_NEAR(estimateThroughput(Variant::Ideal, map, timing, wl).kbps
                    / gpu,
                413.6, 60.0);
    EXPECT_NEAR(estimateThroughput(Variant::RealisticRsaKd, map, timing,
                                   wl).kbps
                    / gpu,
                25.7, 5.0);
    EXPECT_NEAR(estimateThroughput(Variant::RealisticRsa, map, timing,
                                   wl).kbps
                    / gpu,
                5.24, 1.2);
    EXPECT_NEAR(estimateThroughput(Variant::RealisticRvw, map, timing,
                                   wl).kbps
                    / gpu,
                0.70, 0.15);
}

TEST(Throughput, RsaOverheadScalesWithSramFraction)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    const TimingParams timing;
    const WorkloadProfile wl;
    const double at1 = estimateThroughput(Variant::RealisticRsa, map,
                                          timing, wl, 0.01).kbps;
    const double at5 = estimateThroughput(Variant::RealisticRsa, map,
                                          timing, wl, 0.05).kbps;
    EXPECT_GT(at1, at5);
}

TEST(Throughput, PerReadOverheadLowersShortReadThroughput)
{
    auto m = model();
    const auto map = buildPartitionMap(m, 64);
    const TimingParams timing;
    WorkloadProfile short_reads;
    short_reads.meanReadLenBases = 100;
    WorkloadProfile long_reads;
    long_reads.meanReadLenBases = 2000;
    EXPECT_LT(estimateThroughput(Variant::Ideal, map, timing,
                                 short_reads).kbps,
              estimateThroughput(Variant::Ideal, map, timing,
                                 long_reads).kbps);
}

TEST(Throughput, VariantNamesMatchPaperLabels)
{
    EXPECT_STREQ(variantName(Variant::BonitoGpu), "Bonito-GPU");
    EXPECT_STREQ(variantName(Variant::RealisticRsaKd),
                 "Realistic-SwordfishAccel-RSA+KD");
}
