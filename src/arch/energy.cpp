#include "energy.h"

#include "util/logging.h"

namespace swordfish::arch {

EnergyResult
estimateEnergy(Variant variant, const PartitionMap& map,
               const TimingParams& timing, const EnergyParams& energy,
               const WorkloadProfile& workload, double sram_fraction,
               std::size_t ensemble_k)
{
    EnergyResult res;
    const double steps_per_base = workload.samplesPerBase
        / static_cast<double>(workload.convStride);

    if (variant == Variant::BonitoGpu) {
        const double flops_per_base = flopsPerStep(map) * steps_per_base;
        res.pjPerBase = flops_per_base * energy.gpuPjPerFlop;
        res.ujPerKb = res.pjPerBase * 1e3 * 1e-6;
        return res;
    }

    // Per-timestep dynamic energy of the mapped fabric. Ensemble
    // replicas each integrate charge and drive their rows; the averaged
    // current is quantized by one shared ADC pass.
    const double k = static_cast<double>(ensemble_k > 0 ? ensemble_k : 1);
    double pj_per_step = 0.0;
    for (const VmmSite& site : map.sites) {
        // Every mapped cell integrates charge once per VMM (differential
        // pair: two devices per weight).
        pj_per_step += k * 2.0 * static_cast<double>(site.weightCount())
            * energy.crossbarReadPjPerCell;
        // Each row tile drives its inputs (DAC) and each column tile
        // converts its partial sums (ADC).
        pj_per_step += k * static_cast<double>(site.dacPerRow())
            * energy.dacPjPerConversion;
        pj_per_step += static_cast<double>(site.adcPerRow())
            * energy.adcPjPerConversion;
    }
    pj_per_step += energy.digitalPjPerStep;

    double per_base = pj_per_step * steps_per_base
        + workload.samplesPerBase * energy.ioPjPerSample;
    double maintenance = 0.0;

    switch (variant) {
      case Variant::Ideal:
        break;
      case Variant::RealisticRvw: {
        const double cells = static_cast<double>(
            map.totalMappedWeights()) * 2.0;
        maintenance = cells
            * static_cast<double>(timing.rvwIterations)
            * (energy.verifyReadPj + energy.writePulsePj)
            / timing.rvwRefreshIntervalBases;
        break;
      }
      case Variant::RealisticRsa:
      case Variant::RealisticRsaKd: {
        const double frac = sram_fraction >= 0.0 ? sram_fraction
            : (variant == Variant::RealisticRsa ? 0.05 : 0.01);
        const double sram_weights = static_cast<double>(
            map.totalMappedWeights()) * frac;
        // SRAM-resident weights are read on every timestep; retraining
        // updates rewrite them periodically (folded into the same
        // per-base constant as the throughput model).
        maintenance = sram_weights * energy.sramPjPerAccess
            * steps_per_base
            + timing.rsaRetrainNsPerBasePerPercent * frac * 100.0
                * 0.02; // ~20 mW retraining engine
        break;
      }
      default:
        panic("estimateEnergy: unhandled variant");
    }

    res.pjPerBase = per_base + maintenance;
    res.staticFraction = maintenance / res.pjPerBase;
    res.ujPerKb = res.pjPerBase * 1e3 * 1e-6;
    return res;
}

} // namespace swordfish::arch
