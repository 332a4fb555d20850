/**
 * @file
 * The memristor crossbar tile simulator.
 *
 * A CrossbarTile owns the programmed differential conductances for one
 * weight sub-matrix plus its converter instances, and can execute the VMM
 * two ways:
 *
 *  - vmm(): the effective-weight kernel used by end-to-end evaluation —
 *    all cell-level non-idealities (conductance quantization, write
 *    variation, wire IR-drop) are folded into an effective weight matrix at
 *    program time (paper Fig. 5), and DAC/ADC transfer functions are applied
 *    around a plain GEMM. One call covers any number of stacked lanes and
 *    any number of ensemble replicas.
 *
 *  - vmmCircuit(): an explicit per-cell current summation used by tests to
 *    validate that the fast path computes the same thing.
 */

#ifndef SWORDFISH_CROSSBAR_CROSSBAR_H
#define SWORDFISH_CROSSBAR_CROSSBAR_H

#include <memory>
#include <optional>

#include "crossbar/converters.h"
#include "crossbar/device.h"
#include "crossbar/mapping.h"
#include "crossbar/noise_sources.h"
#include "tensor/lanes.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace swordfish::crossbar {

/** Which non-ideality groups are active (paper Figs. 8/9 bar groups). */
struct NoiseToggles
{
    bool conductanceQuant = true; ///< device constraint, always physical
    bool writeVariation = true;   ///< synaptic (programming) variation
    bool wireResistance = true;   ///< IR drop along rows/columns
    bool sneakPaths = true;       ///< half-select leakage
    bool dacNonideal = true;      ///< DAC quantization + droop + INL
    bool adcNonideal = true;      ///< ADC quantization + gain/offset/noise

    /** Everything off: the ideal digital tile. */
    static NoiseToggles
    allOff()
    {
        return {false, false, false, false, false, false};
    }

    /** Paper's "Synaptic+Wires" bar. */
    static NoiseToggles
    synapticWires()
    {
        return {true, true, true, true, false, false};
    }

    /** Paper's "Sense+ADC" bar. */
    static NoiseToggles
    senseAdc()
    {
        return {true, false, false, false, false, true};
    }

    /** Paper's "DAC+Driver" bar. */
    static NoiseToggles
    dacDriver()
    {
        return {true, false, false, false, true, false};
    }

    /** Paper's "Combined" bar: all analytical non-idealities. */
    static NoiseToggles
    combined()
    {
        return {true, true, true, true, true, true};
    }
};

/**
 * Conductance retention-drift parameters: programmed states decay toward
 * HRS as G(t) = G0 * (t/t0)^(-nu) with per-cell drift exponents — the
 * device behaviour that forces periodic R-V-W refresh in deployed parts.
 */
struct DriftConfig
{
    double nu = 0.015;      ///< mean drift exponent
    double nuSigma = 0.008; ///< cell-to-cell exponent spread
    double t0Hours = 1.0;  ///< reference time of the programmed state
};

/**
 * Reusable buffers for CrossbarTile::vmm(). Hot evaluation loops keep one
 * per thread so the per-call input copy and output allocation are
 * amortized across every tile VMM of a read.
 */
struct VmmScratch
{
    Matrix xn; ///< normalized (and, without replicas, DAC-converted) input
    Matrix xd; ///< per-replica DAC-converted input (ensemble only)
    Matrix y;  ///< tile output
    std::vector<float> laneScales; ///< per-lane input scales
};

/** One programmed crossbar tile holding a weight sub-matrix. */
class CrossbarTile
{
  public:
    /**
     * Program a tile.
     *
     * @param config   crossbar configuration (geometry + circuits)
     * @param weights  the digital weight sub-matrix (rows = outputs <=
     *                 config.size, cols = inputs <= config.size)
     * @param abs_max  weight scaling absmax shared across the layer
     * @param toggles  which non-idealities to model
     * @param seed     tile instance seed (programming + die variation)
     * @param extended extended noise sources of a composed NoiseModel,
     *                 applied on top of the toggles (default: all off)
     */
    CrossbarTile(const CrossbarConfig& config, const Matrix& weights,
                 float abs_max, const NoiseToggles& toggles,
                 std::uint64_t seed, const ExtendedNoise& extended = {});

    /**
     * Program a tile from `mapped`, the ideal conductance pair of
     * `weights` (mapConductances() with the same config, weights, abs_max
     * and toggles): the replicas of one sub-matrix share one mapping and
     * differ only in the variation drawn from `seed`. Bitwise the tile the
     * constructor above builds. Panics if the pair's shape or scale does
     * not match `weights` and `abs_max`.
     */
    CrossbarTile(const CrossbarConfig& config, const Matrix& weights,
                 float abs_max, const ConductancePair& mapped,
                 const NoiseToggles& toggles, std::uint64_t seed,
                 const ExtendedNoise& extended = {});

    /**
     * Paper Fig. 5 steps 2-4: `weights` mapped to their ideal, pre-
     * variation conductance pair through the device's (possibly
     * quantized, nonlinear) state map; `abs_max` <= 0 uses the weights'
     * own absmax.
     */
    static ConductancePair mapConductances(const CrossbarConfig& config,
                                           const Matrix& weights,
                                           float abs_max,
                                           const NoiseToggles& toggles);

    /**
     * The tile VMM: y[T x out] from x[T x in] through DAC -> effective
     * weights -> sneak -> ADC, result in scratch.y.
     *
     * x stacks the rows of independent lanes in `layout` order. Each lane
     * is normalized to [-1, 1] by its own absmax and draws ADC noise from
     * its own stream (lane_rngs[i] serves layout[i]; ⌈rows·cols/2⌉ words
     * per call, see AdcModel::convertRows), so a lane's output rows are
     * bitwise what a one-lane call on that lane alone returns.
     *
     * `extras` (layer ensemble averaging) are replicas of this tile: the
     * same sub-matrix programmed with independent noise draws. Their
     * analog (pre-ADC) outputs are averaged with this tile's and the mean
     * goes through THIS tile's single shared ADC, so the conversion
     * streams advance exactly as without replicas. nullptr or empty = the
     * plain single-tile path, which pays no ensemble cost.
     */
    void vmm(const Matrix& x, const BatchLayout& layout,
             Rng* const* lane_rngs, VmmScratch& scratch,
             const std::vector<CrossbarTile>* extras = nullptr) const;

    /** One-lane convenience over vmm(): x normalized as a whole. */
    Matrix vmmFast(const Matrix& x, Rng& rng) const;

    /** Reference path: explicit per-cell current summation (one vector). */
    std::vector<float> vmmCircuit(const std::vector<float>& x,
                                  Rng& rng) const;

    /** The non-ideal weight matrix the tile effectively implements. */
    const Matrix& effectiveWeights() const { return effective_; }

    /**
     * Per-cell programming-error magnitude |effective - ideal|; RSA uses
     * this as the "error-prone device" knowledge when chip measurements
     * are available (paper Section 3.4.4).
     */
    Matrix cellErrorMagnitude() const;

    /**
     * Overwrite selected cells with exact digital weights (models RSA's
     * SRAM remap: inputs for those devices route through SRAM instead).
     * mask has one entry per cell; true = remapped to SRAM. The mask is
     * retained (sramMask()) so drift can skip those cells and a refresh
     * can re-apply it.
     */
    void remapCellsToSram(const std::vector<std::uint8_t>& mask);

    /** The retained SRAM remap mask (empty when no cells are remapped). */
    const std::vector<std::uint8_t>& sramMask() const { return sramMask_; }

    /**
     * Age the tile: apply retention drift for `hours` of operation since
     * programming. Cumulative across calls. Cells remapped to SRAM are
     * digital state and do not drift; every cell still draws its drift
     * exponent, so the analog cells see the same stream with or without
     * a remap.
     */
    void applyDrift(double hours, const DriftConfig& drift, Rng& rng);

    std::size_t rows() const { return ideal_.rows(); }
    std::size_t cols() const { return ideal_.cols(); }
    const CrossbarConfig& config() const { return config_; }

  private:
    void buildEffectiveWeights(ConductancePair pair,
                               const NoiseToggles& toggles,
                               std::uint64_t seed);
    void applyExtendedNoise(ConductancePair& pair,
                            const DeviceConfig& device, std::uint64_t seed);

    CrossbarConfig config_;
    ExtendedNoise extended_;
    Matrix ideal_;             ///< digital weights as given
    Matrix effective_;         ///< what the analog tile actually computes
    float absMax_;
    double agedHours_ = 0.0;   ///< cumulative drift time since programming
    std::vector<std::uint8_t> sramMask_; ///< retained remap (may be empty)
    std::vector<float> colSneak_; ///< per-output sneak leakage coefficient
    std::optional<DacModel> dac_;
    std::optional<AdcModel> adc_;
};

} // namespace swordfish::crossbar

#endif // SWORDFISH_CROSSBAR_CROSSBAR_H
