/**
 * @file
 * Simulated fixed-point quantization (the paper's FPP X-Y configurations).
 *
 * Weights and activations are kept in float32 but snapped to a symmetric
 * uniform grid with 2^bits levels, exactly the "simulated quantization"
 * approach used when evaluating reduced-precision inference. Table 3 of the
 * paper sweeps {DFP 32-32, FPP 16-16, 8-8, 8-4, 4-8, 4-4, 4-2}; the
 * QuantConfig registry below reproduces that list.
 */

#ifndef SWORDFISH_TENSOR_QUANTIZE_H
#define SWORDFISH_TENSOR_QUANTIZE_H

#include <cmath>
#include <string>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace swordfish {

/**
 * Symmetric uniform quantizer with a fixed per-tensor scale.
 *
 * bits == 32 means "leave as float" (the DFP 32-32 baseline).
 */
class Quantizer
{
  public:
    /** Construct for a bit width; 32 disables quantization. */
    explicit Quantizer(int bits) : bits_(bits)
    {
        if (bits < 2 || bits > 32)
            panic("Quantizer: unsupported bit width ", bits);
        maxLevel_ = (bits >= 32) ? 0.0f
            : static_cast<float>((1u << (bits - 1)) - 1);
    }

    int bits() const { return bits_; }
    bool isIdentity() const { return bits_ >= 32; }

    /** Quantize one value given the tensor's absmax-derived scale. */
    float
    apply(float v, float scale) const
    {
        if (isIdentity() || scale <= 0.0f)
            return v;
        const float q = std::nearbyint(v / scale);
        const float clamped = std::fmin(std::fmax(q, -maxLevel_ - 1.0f),
                                        maxLevel_);
        return clamped * scale;
    }

    /** Per-tensor scale so that absMax maps to the top level. */
    float
    scaleFor(float abs_max) const
    {
        if (isIdentity() || abs_max <= 0.0f)
            return 0.0f;
        return abs_max / maxLevel_;
    }

    /** Quantize a whole matrix in place with a per-tensor scale. */
    void
    apply(Matrix& m) const
    {
        applyRange(m.raw().data(), m.size());
    }

    /**
     * Quantize rows [row_begin, row_end) in place with a scale derived
     * from those rows only. On a stacked multi-lane operand this
     * reproduces, bitwise, what apply(Matrix&) would do to the lane's
     * standalone matrix.
     */
    void
    applyRows(Matrix& m, std::size_t row_begin, std::size_t row_end) const
    {
        if (row_begin < row_end)
            applyRange(m.rowPtr(row_begin), (row_end - row_begin) * m.cols());
    }

    /** Quantize a vector in place with a per-tensor scale. */
    void
    apply(std::vector<float>& v) const
    {
        applyRange(v.data(), v.size());
    }

    /** Number of representable levels (2^bits), capped for bits==32. */
    long
    levels() const
    {
        return bits_ >= 31 ? (1L << 31) : (1L << bits_);
    }

  private:
    /**
     * Quantize v[0..n) in place with the scale of its own absmax: the
     * kernel form of apply(float, float) on every element, bitwise.
     */
    void
    applyRange(float* v, std::size_t n) const
    {
        if (isIdentity() || n == 0)
            return;
        const float scale = scaleFor(kernels::absMaxRange(v, n));
        if (scale > 0.0f)
            kernels::quantizeRows(v, n, scale, maxLevel_);
    }

    int bits_;
    float maxLevel_;
};

/** One weight/activation precision configuration from Table 3. */
struct QuantConfig
{
    int weightBits = 32;
    int activationBits = 32;

    /** Paper-style label, e.g. "DFP 32-32" or "FPP 8-4". */
    std::string
    name() const
    {
        const bool fp = weightBits >= 32 && activationBits >= 32;
        return (fp ? std::string("DFP ") : std::string("FPP "))
            + std::to_string(weightBits) + "-"
            + std::to_string(activationBits);
    }

    bool isFloatBaseline() const
    {
        return weightBits >= 32 && activationBits >= 32;
    }

    /** The seven configurations evaluated in Table 3, paper order. */
    static std::vector<QuantConfig>
    table3Sweep()
    {
        return {
            {32, 32}, {16, 16}, {8, 8}, {8, 4}, {4, 8}, {4, 4}, {4, 2},
        };
    }

    /** The deployment precision the paper settles on (16-bit fixed). */
    static QuantConfig deployment() { return {16, 16}; }
};

} // namespace swordfish

#endif // SWORDFISH_TENSOR_QUANTIZE_H
