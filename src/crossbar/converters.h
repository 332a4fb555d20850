/**
 * @file
 * DAC (input driver) and ADC (sense) models — the circuit non-idealities
 * the paper groups as "DAC+Driver" and "Sense+ADC" (Figs. 8/9).
 *
 * Each converter *instance* draws its static error profile (INL curve,
 * gain, offset) from a seeded RNG at construction, modeling die-to-die
 * variation; per-conversion noise is drawn at use time.
 */

#ifndef SWORDFISH_CROSSBAR_CONVERTERS_H
#define SWORDFISH_CROSSBAR_CONVERTERS_H

#include <vector>

#include "crossbar/device.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace swordfish::crossbar {

/**
 * Input DAC with R_load droop and integral nonlinearity.
 *
 * Operates on normalized inputs in [-1, 1]; the droop term models the
 * effective resistive load of the driver: large total line conductance
 * (many low-resistance cells on the row) pulls the delivered voltage down
 * (paper Section 2.3 non-ideality 1).
 */
class DacModel
{
  public:
    /**
     * @param config           DAC parameters
     * @param seed             instance seed (die-to-die variation)
     * @param line_load_factor total line conductance / (size * gMax),
     *                         in [0, 1]; scales the droop
     * @param ideal            when true the DAC is a pure quantizer-free
     *                         pass-through (used by ideal configurations)
     */
    DacModel(const DacConfig& config, std::uint64_t seed,
             double line_load_factor, bool ideal = false);

    /**
     * Convert one normalized input to the delivered line voltage: the
     * per-element reference (std::lround) that convertRows matches
     * bitwise.
     */
    float convert(float x) const;

    /**
     * Convert x[0..n) into out[0..n) (out may alias x) through
     * kernels::dacConvertRows; an ideal DAC copies.
     */
    void convertRows(const float* x, float* out, std::size_t n) const;

    bool isIdeal() const { return ideal_; }

  private:
    /** Delivered voltage of one code (INL and droop applied). */
    float level(long code) const;

    DacConfig config_;
    bool ideal_;
    double droopGain_;          ///< effective droop multiplier
    std::vector<float> inl_;    ///< per-code INL offsets (in value units)
    std::vector<float> levels_; ///< level(code) per code, for convertRows
    float step_;                ///< LSB size in normalized value units
};

/**
 * Column ADC with gain error, offset, and thermal noise.
 *
 * Operates on normalized accumulated values; `range` sets full scale. Per
 * conversion it consumes randomness from the caller's conversion stream.
 */
class AdcModel
{
  public:
    /**
     * @param config ADC parameters
     * @param seed   instance seed for the static gain/offset profile
     * @param range  full-scale input magnitude (clipping threshold)
     * @param ideal  pure pass-through when true
     */
    AdcModel(const AdcConfig& config, std::uint64_t seed, double range,
             bool ideal = false);

    /**
     * Convert one lane span y[0..n) in place and multiply it by `scale`
     * (the lane's input scale) through kernels::adcConvertRows. The noise
     * comes from kernels::adcNoiseWords(n) = ⌈n/2⌉ consecutive rng()
     * words, word k feeding elements 2k and 2k+1. An ideal ADC only
     * scales and draws nothing.
     */
    void convertRows(float* y, std::size_t n, float scale, Rng& rng) const;

    bool isIdeal() const { return ideal_; }

  private:
    bool ideal_;
    kernels::AdcTransfer transfer_;
};

} // namespace swordfish::crossbar

#endif // SWORDFISH_CROSSBAR_CONVERTERS_H
