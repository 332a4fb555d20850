/**
 * @file
 * PUMA-like accelerator constants: per-operation timing and per-component
 * area at the TSMC 40 nm node the paper targets (Section 4.1).
 *
 * Values are PUMA/ISAAC-class numbers scaled to 40 nm with DeepScaleTool-
 * style rules, as the paper describes. Two constants are *calibrated* to
 * the paper's measured ratios rather than derived (documented in
 * EXPERIMENTS.md): the effective GPU throughput of the Bonito-GPU baseline
 * and the R-V-W / RSA maintenance-cost parameters.
 */

#ifndef SWORDFISH_ARCH_PUMA_H
#define SWORDFISH_ARCH_PUMA_H

#include <cstddef>

namespace swordfish::arch {

/** Shared column ADCs per tile (MVMU): the area model sizes them and the
 *  pipeline step serializes a tile's columns through them. */
inline constexpr std::size_t kAdcsPerTile = 4;

/** Timing constants (nanoseconds unless noted). */
struct TimingParams
{
    double vmmSettleNs = 100.0;   ///< crossbar read (settle + sense)
    double dacNs = 4.0;           ///< input conversion (row-parallel)
    double adcConvNs = 1.0;       ///< one ADC conversion
    double digitalNs = 20.0;      ///< activation / ALU / routing per step
    double ioNsPerSample = 0.5;   ///< host input streaming per raw sample
    double perReadOverheadNs = 2.0e4; ///< pipeline fill/flush per read

    // Device programming.
    double writePulseNs = 100.0;  ///< one Set/Reset pulse
    double verifyReadNs = 100.0;  ///< one verify read

    /**
     * R-V-W in-the-loop maintenance: every refresh interval (in called
     * bases) the full cell population is re-verified (paper Section 3.4.3
     * "many read-and-write operations and feedback control"). Calibrated
     * to reproduce Fig. 14's ~30% slowdown vs. Bonito-GPU.
     */
    double rvwRefreshIntervalBases = 142.0;
    int rvwIterations = 4;

    /**
     * RSA online retraining cost, expressed as extra nanoseconds per base
     * per 1%-of-weights held in SRAM. A single constant reproduces both
     * Fig. 14 ratios (RSA at 5% and RSA+KD at 1% SRAM weights).
     */
    double rsaRetrainNsPerBasePerPercent = 7300.0;

    /**
     * Bonito-GPU baseline: effective sustained GFLOP/s of unbatched
     * small-RNN inference on the V100 (calibrated; see EXPERIMENTS.md).
     */
    double gpuEffectiveGflops = 0.768;
};

/** Area constants (square micrometres) at 40 nm. */
struct AreaParams
{
    double cellUm2 = 0.29;        ///< one 1T1R cell (460nm/40nm NMOS)
    double adcUm2 = 2500.0;       ///< 8-bit SAR ADC
    double dacPerRowUm2 = 50.0;   ///< row driver + DAC
    double sramBitUm2 = 0.60;     ///< 6T SRAM bit cell
    double digitalOverhead = 0.30;///< control/routing fraction of analog
    double sramCtrlPerWeightUm2 = 0.40; ///< RSA mapping metadata + mux
};

} // namespace swordfish::arch

#endif // SWORDFISH_ARCH_PUMA_H
