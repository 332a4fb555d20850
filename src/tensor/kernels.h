/**
 * @file
 * Vectorized hot-path kernels with runtime SIMD dispatch (tensor/simd.h).
 *
 * Every kernel here has a portable scalar body and an AVX2+FMA body, and
 * gemmBT, adcConvertRows and dacConvertRows also an AVX-512 body; a kernel
 * without one runs its AVX2 body at the AVX-512 level. All bodies of a
 * kernel are bitwise-identical by construction: they execute the same
 * fixed blocked-reduction order (8 independent fma lanes over the
 * reduction axis, tail elements folded into lanes 0..r-1, then the fixed
 * tree (l0+l4)+(l2+l6) + (l1+l5)+(l3+l7)), and every elementwise transcen-
 * dental is a shared polynomial approximation whose scalar form mirrors the
 * vector instruction semantics op for op (including NaN propagation). See
 * DESIGN.md §4.11 for the contract and dispatch rules.
 *
 * Float kernels: gemmBT (the VMM/projection workhorse), the fused LSTM
 * gate block, CTC row max/argmax, abs-max scans, the activation quantizer,
 * and the crossbar's DAC and noisy ADC conversions (with their libm-free
 * Gaussian source).
 */

#ifndef SWORDFISH_TENSOR_KERNELS_H
#define SWORDFISH_TENSOR_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "tensor/matrix.h"
#include "tensor/simd.h"

namespace swordfish::kernels {

/** Multiply-adds a GEMM call must exceed before its rows fork a team. */
inline constexpr std::size_t kGemmForkWork = std::size_t{1} << 16;

/**
 * The fork predicate of the GEMM family's row loops (gemmBT,
 * swordfish::gemm and swordfish::gemmAT): true when a call of `work`
 * multiply-adds splits its output rows over an OpenMP team, that is when
 * work > kGemmForkWork and the caller is not a ThreadPool worker. The
 * pool owns evaluation parallelism, so its workers run every GEMM as a
 * plain loop, and no GEMM below the threshold enters libgomp (entering
 * even a serialized region costs about 0.35 µs, three times a one-row
 * 64x32 gemmBT). Rows are independent, so forking never changes a bit.
 */
bool gemmForks(std::size_t work);

/**
 * C = A * B^T with the blocked-reduction contract; the dispatch target
 * behind swordfish::gemmBT. A is m x k, B is n x k, C is m x n. Rows of C
 * are independent (they split over OpenMP threads when gemmForks()), so
 * thread count never changes the reduction order. The AVX-512 body runs
 * two rows of A per register, one per 256-bit half, each half the AVX2
 * row's reduction.
 */
void gemmBT(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate);

/** Blocked-order dot product of two length-k ranges (exposed for tests). */
float dotBlocked(const float* a, const float* b, std::size_t k);

/**
 * Shared exp/sigmoid/tanh approximations (scalar reference). The AVX2 gate
 * kernel executes the same op sequence lanewise, so these define the exact
 * numerics of the LSTM gate block on every path. Domain notes: expApproxf
 * clamps to [-87, 88] (callers only pass non-positive arguments);
 * sigmoidApproxf is in (0, 1); tanhApproxf is in [-1, 1] and exact at 0.
 */
float expApproxf(float x);
float sigmoidApproxf(float x);
float tanhApproxf(float x);

/**
 * Fused LSTM gate block for one timestep of `hidden` units. Inputs are the
 * input projection zi, recurrent projection zr, and bias b, each 4*hidden
 * long in gate order [i, f, g, o]; c_prev holds the previous cell state.
 * Writes the new cell state to c_out (aliasing c_prev is allowed), tanh(c)
 * to tanh_c_out (optional, may be null), the hidden state to h_out, and
 * the activated gates to gates_out (optional, 4*hidden, for backward).
 *
 * Per unit j: pre-activation p = (zi + zr) + b per gate, i/f/o = sigmoid,
 * g = tanh, c = fma(f, c_prev, i*g), h = o * tanh(c).
 */
void lstmGateBlock(const float* zi, const float* zr, const float* b,
                   std::size_t hidden, const float* c_prev, float* c_out,
                   float* tanh_c_out, float* h_out, float* gates_out);

/**
 * Index of the first maximum of row[0..n) (strict-greater scan order, NaN
 * entries never win) — the CTC greedy-decode inner loop. n must be >= 1.
 */
std::size_t argmaxRow(const float* row, std::size_t n);

/** Maximum of row[0..n) (blocked max; NaN entries are skipped). n >= 1. */
float rowMax(const float* row, std::size_t n);

/** max |v[i]| over [0, n) (blocked; NaN entries are skipped; 0 for n=0). */
float absMaxRange(const float* v, std::size_t n);

/**
 * Symmetric uniform quantization of v[0..n) in place (the Quantizer of
 * tensor/quantize.h), with scale > 0:
 *   v = min(max(round(v / scale), -max_level - 1), max_level) * scale,
 * where round follows the ambient rounding mode, as std::nearbyint does
 * (nearest-even by default), and a NaN quotient clamps to -max_level - 1.
 */
void quantizeRows(float* v, std::size_t n, float scale, float max_level);

/**
 * Standard normals from raw 64-bit words: word k yields out[2k] = r cos θ
 * and out[2k+1] = r sin θ (float Box-Muller), where u1 = (top 24 bits +
 * 1) * 2^-24 in (0, 1], u2 = (next 24 bits) * 2^-24 in [0, 1),
 * r = sqrt(-2 ln u1), θ = 2π u2; the low 16 bits are unused. Built from
 * fma, mul, add, div, sqrt, round and bit operations only (no libm), so
 * both levels agree bitwise. |out| <= sqrt(-2 ln 2^-24) ~ 5.77: the
 * normals are truncated there. `out` holds 2 * count floats.
 */
void gaussFromWords(const std::uint64_t* words, std::size_t count,
                    float* out);

/** Noise words an n-element adcConvertRows call consumes: ⌈n/2⌉. */
constexpr std::size_t
adcNoiseWords(std::size_t n)
{
    return (n + 1) / 2;
}

/**
 * Transfer function of one noisy column ADC (crossbar::AdcModel). Per
 * element, with z the element's normal from gaussFromWords:
 *   v = fma(z, noiseScale, fma(y, gain, offset)), clamped to
 *       [-range, range] (NaN clamps to -range),
 *   code = min(lround((v + range) / step), maxCode),
 *   y' = fma(code, step, -range) * scale.
 */
struct AdcTransfer
{
    float gain = 1.0f;
    float offset = 0.0f;     ///< value units
    float noiseScale = 0.0f; ///< noise sigma, value units
    float range = 1.0f;      ///< full-scale magnitude
    float step = 1.0f;       ///< LSB size
    float maxCode = 1.0f;    ///< 2^bits - 1
};

/**
 * Convert n contiguous accumulated values in place through `adc`, then
 * multiply by `scale` (the lane's input scale), drawing element i's noise
 * from words[i / 2] as gaussFromWords maps it. `words` holds
 * adcNoiseWords(n) entries.
 */
void adcConvertRows(float* y, std::size_t n, const AdcTransfer& adc,
                    const std::uint64_t* words, float scale);

/**
 * Transfer function of one input DAC (crossbar::DacModel): the code is
 * lround((clamp(x, -1, 1) + 1) / step), NaN giving code 0, and the
 * output is levels[min(code, maxCode)].
 */
struct DacTransfer
{
    const float* levels = nullptr; ///< output per code, maxCode + 1 entries
    float step = 1.0f;             ///< LSB size over [-1, 1]
    float maxCode = 0.0f;          ///< 2^bits - 1
};

/**
 * Convert x[0..n) through `dac` into out[0..n) (out may alias x). The
 * AVX-512 body looks a table of up to 32 levels up from two registers, 16
 * codes per two-table permute.
 */
void dacConvertRows(const float* x, float* out, std::size_t n,
                    const DacTransfer& dac);

/**
 * Roofline probes (bench/micro_kernels --roofline): run `iters` iterations
 * of a pure FMA dependency-free loop at `level` and return the flop count
 * executed (8 accumulators; x8 lanes on AVX2, x16 on AVX-512). The
 * measured rate is the practical peak the per-kernel achieved GFLOPs are
 * normalized against. Panics on a level the CPU lacks.
 */
double peakFmaFlops(std::size_t iters, SimdLevel level);

} // namespace swordfish::kernels

#endif // SWORDFISH_TENSOR_KERNELS_H
