#include "throughput.h"

#include "util/logging.h"

namespace swordfish::arch {

double
pipelineStepNs(const PartitionMap& map, const TimingParams& timing,
               std::size_t batch)
{
    // ADC serialization: the tile's columns share kAdcsPerTile converters,
    // and every batched lane needs its own conversion pass.
    const double adc_serial = static_cast<double>(map.crossbarSize)
        / static_cast<double>(kAdcsPerTile) * timing.adcConvNs;
    const double lanes = batch > 0 ? static_cast<double>(batch) : 1.0;
    // Settle, DAC drive, and digital post-processing happen once per
    // batched VMM and amortize across the lanes.
    return (timing.vmmSettleNs + timing.dacNs + timing.digitalNs) / lanes
        + adc_serial;
}

double
flopsPerStep(const PartitionMap& map)
{
    double macs = 0.0;
    for (const VmmSite& site : map.sites)
        macs += static_cast<double>(site.weightCount());
    return 2.0 * macs;
}

ThroughputResult
estimateThroughput(Variant variant, const PartitionMap& map,
                   const TimingParams& timing,
                   const WorkloadProfile& workload, double sram_fraction)
{
    ThroughputResult res;
    const double steps_per_base = workload.samplesPerBase
        / static_cast<double>(workload.convStride);
    const double io_ns = workload.samplesPerBase * timing.ioNsPerSample;
    const double per_read_ns = workload.meanReadLenBases > 0.0
        ? timing.perReadOverheadNs / workload.meanReadLenBases : 0.0;

    if (variant == Variant::BonitoGpu) {
        // GPU roofline: flops per base over effective sustained GFLOP/s
        // (1 GFLOP/s == 1 flop/ns).
        const double flops_per_base = flopsPerStep(map) * steps_per_base;
        res.perBaseNs = flops_per_base / timing.gpuEffectiveGflops;
        res.kbps = 1e6 / res.perBaseNs;
        return res;
    }

    double per_base = steps_per_base
        * pipelineStepNs(map, timing, workload.batch)
        + io_ns + per_read_ns;

    switch (variant) {
      case Variant::Ideal:
        break;
      case Variant::RealisticRvw: {
        // Periodic full re-verify of the cell population through the
        // (shared, hence serial) programming controller.
        const double cells = static_cast<double>(
            map.totalMappedWeights()) * 2.0; // differential pairs
        const double refresh_ns = cells
            * static_cast<double>(timing.rvwIterations)
            * (timing.verifyReadNs + timing.writePulseNs);
        per_base += refresh_ns / timing.rvwRefreshIntervalBases;
        break;
      }
      case Variant::RealisticRsa: {
        const double frac = sram_fraction >= 0.0 ? sram_fraction : 0.05;
        per_base += timing.rsaRetrainNsPerBasePerPercent * frac * 100.0;
        break;
      }
      case Variant::RealisticRsaKd: {
        // KD needs fewer SRAM-resident weights for the same accuracy
        // (paper Section 5.5 observation 4), hence cheaper upkeep.
        const double frac = sram_fraction >= 0.0 ? sram_fraction : 0.01;
        per_base += timing.rsaRetrainNsPerBasePerPercent * frac * 100.0;
        break;
      }
      default:
        panic("estimateThroughput: unhandled variant");
    }

    res.perBaseNs = per_base;
    res.kbps = 1e6 / per_base;
    return res;
}

} // namespace swordfish::arch
