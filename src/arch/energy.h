/**
 * @file
 * Energy model: per-operation energies at 40 nm for the mapped
 * accelerator, and energy-per-base estimates for the Fig. 14 variants.
 *
 * The paper's System Evaluator reports accuracy/throughput/area; energy
 * is the natural fourth metric (PUMA and ISAAC both report it) and the
 * paper motivates the work with the energy cost of basecalling, so the
 * model is included as an extension. Constants are PUMA/ISAAC-class
 * values scaled to 40 nm.
 */

#ifndef SWORDFISH_ARCH_ENERGY_H
#define SWORDFISH_ARCH_ENERGY_H

#include "arch/partition.h"
#include "arch/puma.h"
#include "arch/throughput.h"

namespace swordfish::arch {

/** Per-operation energy constants (picojoules). */
struct EnergyParams
{
    double crossbarReadPjPerCell = 0.0008; ///< one cell read (analog MAC)
    double adcPjPerConversion = 2.0;       ///< 8-bit SAR conversion
    double dacPjPerConversion = 0.15;      ///< row driver + DAC
    double digitalPjPerStep = 40.0;        ///< ALU/activation per timestep
    double sramPjPerAccess = 0.5;          ///< RSA SRAM read (16-bit word)
    double ioPjPerSample = 8.0;            ///< host streaming per sample
    double writePulsePj = 10.0;            ///< one programming pulse
    double verifyReadPj = 2.0;             ///< one verify read

    /**
     * Bonito-GPU baseline: effective energy per FLOP of unbatched
     * small-RNN inference on a V100 (calibrated like the GPU throughput
     * constant; see EXPERIMENTS.md).
     */
    double gpuPjPerFlop = 0.5;
};

/** Energy estimation result. */
struct EnergyResult
{
    double pjPerBase = 0.0;   ///< total energy per called base
    double ujPerKb = 0.0;     ///< microjoules per kilobase (derived)
    double staticFraction = 0.0; ///< maintenance share (R-V-W / RSA)
};

/**
 * Estimate energy per called base for a variant.
 *
 * Accounts for: crossbar reads over all mapped cells per timestep, ADC
 * and DAC conversions (TileGrid::adcPerRow() and dacPerRow(), the counts
 * the simulator's vmm.* counters report per input row), digital
 * post-processing, host I/O, and the maintenance
 * energy of the mitigation (R-V-W refresh writes, RSA SRAM traffic and
 * retraining updates). With layer-ensemble averaging (`ensemble_k` > 1)
 * every replica integrates and drives its rows, so cell-read and DAC
 * energy scale with K while the shared post-average ADC pass does not.
 */
EnergyResult estimateEnergy(Variant variant, const PartitionMap& map,
                            const TimingParams& timing,
                            const EnergyParams& energy,
                            const WorkloadProfile& workload,
                            double sram_fraction = -1.0,
                            std::size_t ensemble_k = 1);

} // namespace swordfish::arch

#endif // SWORDFISH_ARCH_ENERGY_H
