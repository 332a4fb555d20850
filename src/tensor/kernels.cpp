/**
 * @file
 * The vectorized kernel layer: scalar and AVX2+FMA implementations of the
 * hot paths, plus the runtime dispatch machinery of tensor/simd.h.
 *
 * Bitwise-identity strategy (DESIGN.md §4.11):
 *  - Reductions fix one blocked order: 8 independent accumulator lanes
 *    over the reduction axis (lane j takes elements with index ≡ j mod 8,
 *    combined with fused multiply-add), tail elements fold into lanes
 *    0..r-1, then the fixed tree (l0+l4)+(l2+l6) plus (l1+l5)+(l3+l7).
 *    The scalar path executes the lanes one at a time with std::fmaf (the
 *    correctly-rounded scalar twin of vfmadd231ps); the AVX2 path executes
 *    them as one vector register. Same ops, same order, same bits.
 *  - Transcendentals are shared polynomial approximations built only from
 *    ops whose scalar and vector forms are both correctly rounded (fma,
 *    mul, add, div) plus explicitly emulated instruction semantics for the
 *    rest (vmaxps/vminps operand-order NaN rules, vcvtps2dq's 0x80000000
 *    indefinite, vblendvps sign-bit selection, roundps's fixed
 *    round-to-nearest-even independent of the ambient rounding mode).
 *  - The activation quantizer's round is the one deliberate exception: it
 *    follows the ambient rounding mode at both levels (roundps with
 *    _MM_FROUND_CUR_DIRECTION, std::nearbyint in the twin), as the
 *    per-element Quantizer::apply always has; div and mul follow it too.
 *  - The scalar fallback disables auto-vectorization so that "scalar"
 *    measured by the roofline is genuinely scalar even under -march=native.
 */

#include "tensor/kernels.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>

#include "tensor/gemm_rows.h"
#include "tensor/simd.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#define SWORDFISH_X86 1
#include <immintrin.h>
#endif

#if defined(__GNUC__) && !defined(__clang__)
#define SWORDFISH_NO_AUTOVEC \
    __attribute__((optimize("no-tree-vectorize,no-tree-slp-vectorize")))
#else
#define SWORDFISH_NO_AUTOVEC
#endif

#if SWORDFISH_X86
#define SWORDFISH_AVX2_TARGET __attribute__((target("avx2,fma")))
#endif

namespace swordfish {

// ---------------------------------------------------------------------------
// Dispatch machinery (tensor/simd.h)
// ---------------------------------------------------------------------------

const char*
simdLevelName(SimdLevel level)
{
    return level == SimdLevel::Avx2 ? "avx2" : "scalar";
}

bool
SimdConfig::parse(const std::string& spec, SimdConfig& out,
                  std::string& error)
{
    std::string s;
    for (const char c : spec)
        if (!std::isspace(static_cast<unsigned char>(c)))
            s.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
    if (s.empty() || s == "auto") {
        out.mode = Mode::Auto;
        return true;
    }
    if (s == "scalar") {
        out.mode = Mode::Scalar;
        return true;
    }
    if (s == "avx2") {
        out.mode = Mode::Avx2;
        return true;
    }
    error = "unrecognized SIMD level '" + spec
        + "' (expected auto, avx2, or scalar)";
    return false;
}

const char*
SimdConfig::name() const
{
    switch (mode) {
      case Mode::Scalar: return "scalar";
      case Mode::Avx2: return "avx2";
      default: return "auto";
    }
}

bool
cpuSupportsAvx2()
{
#if SWORDFISH_X86 && defined(__GNUC__)
    static const bool ok = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0
            && __builtin_cpu_supports("fma") != 0;
    }();
    return ok;
#else
    return false;
#endif
}

namespace {

/** Scoped test override slot: -1 = none, else a SimdLevel value. */
std::atomic<int> g_simd_override{-1};

SimdLevel
resolveMode(SimdConfig::Mode mode)
{
    switch (mode) {
      case SimdConfig::Mode::Scalar:
        return SimdLevel::Scalar;
      case SimdConfig::Mode::Avx2:
        if (!cpuSupportsAvx2())
            panic("SWORDFISH_SIMD=avx2: this CPU lacks AVX2/FMA");
        return SimdLevel::Avx2;
      default:
        return cpuSupportsAvx2() ? SimdLevel::Avx2 : SimdLevel::Scalar;
    }
}

} // namespace

SimdLevel
activeSimdLevel()
{
    const int o = g_simd_override.load(std::memory_order_relaxed);
    if (o >= 0)
        return static_cast<SimdLevel>(o);
    static const SimdLevel env_level = [] {
        SimdConfig cfg;
        std::string error;
        if (!SimdConfig::parse(runtimeConfig().simd, cfg, error))
            panic("SWORDFISH_SIMD: ", error);
        return resolveMode(cfg.mode);
    }();
    return env_level;
}

ScopedSimdLevel::ScopedSimdLevel(SimdLevel level)
    : prev_(g_simd_override.load(std::memory_order_relaxed))
{
    if (level == SimdLevel::Avx2 && !cpuSupportsAvx2())
        panic("ScopedSimdLevel: this CPU lacks AVX2/FMA");
    g_simd_override.store(static_cast<int>(level),
                          std::memory_order_relaxed);
}

ScopedSimdLevel::~ScopedSimdLevel()
{
    g_simd_override.store(prev_, std::memory_order_relaxed);
}

} // namespace swordfish

namespace swordfish::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar emulation of vector instruction semantics
// ---------------------------------------------------------------------------

/** vmaxps(a, b): returns b when either operand is NaN, else the max. */
inline float
maxPs(float a, float b)
{
    return (a > b) ? a : b;
}

/** vminps(a, b): returns b when either operand is NaN, else the min. */
inline float
minPs(float a, float b)
{
    return (a < b) ? a : b;
}

inline std::uint32_t
floatBits(float v)
{
    std::uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

inline float
bitsToFloat(std::uint32_t b)
{
    float v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

/** -|x| (set the sign bit), mirroring _mm256_or_ps(x, -0.0f). */
inline float
negAbs(float x)
{
    return bitsToFloat(floatBits(x) | 0x80000000u);
}

/**
 * vcvtps2dq: round-to-nearest-even conversion with the 0x80000000
 * "integer indefinite" result for NaN / out-of-range inputs. The input is
 * already integral here (rounded by the caller), so only the NaN escape
 * matters in practice.
 */
inline std::int32_t
cvtI32(float x)
{
    if (!(x >= -2147483648.0f && x <= 2147483520.0f))
        return std::numeric_limits<std::int32_t>::min();
    return static_cast<std::int32_t>(x);
}

/**
 * Round to nearest, ties to even, for |x| < 2^23 — the semantics of
 * roundps(_MM_FROUND_TO_NEAREST_INT) regardless of the ambient FP
 * environment. std::nearbyintf honors the current rounding mode, so a
 * caller running under fesetround() would silently break the bitwise
 * scalar==AVX2 contract; this helper uses only operations whose results
 * are exact (truncation, an exact difference, an exact ±1 step) and is
 * therefore immune to the mode. NaN passes through.
 */
inline float
roundNearestEven(float x)
{
    float t = std::truncf(x);
    const float f = x - t; // exact: |x| < 2^24, so the fraction fits
    const float af = (f < 0.0f) ? -f : f;
    if (af > 0.5f || (af == 0.5f && std::fmod(t, 2.0f) != 0.0f))
        t += (f < 0.0f) ? -1.0f : 1.0f;
    return t;
}

/** The fixed 8-lane reduction tree shared by every float reduction. */
inline float
reduceLanes(const float* lane)
{
    const float s0 = lane[0] + lane[4];
    const float s1 = lane[1] + lane[5];
    const float s2 = lane[2] + lane[6];
    const float s3 = lane[3] + lane[7];
    return (s0 + s2) + (s1 + s3);
}

/** Max-reduction tree with the same shape (maxPs pairs, fixed order). */
inline float
reduceLanesMax(const float* lane)
{
    const float s0 = maxPs(lane[0], lane[4]);
    const float s1 = maxPs(lane[1], lane[5]);
    const float s2 = maxPs(lane[2], lane[6]);
    const float s3 = maxPs(lane[3], lane[7]);
    return maxPs(maxPs(s0, s2), maxPs(s1, s3));
}

// ---------------------------------------------------------------------------
// Shared transcendental approximations (scalar reference)
// ---------------------------------------------------------------------------

// expf over the clamped domain [-87, 88]: Cephes-style range reduction
// x = n*ln2 + r, degree-6 polynomial on r in [-ln2/2, ln2/2], 2^n scaling
// through exponent bits. ~2-3 ulp over the domain, built exclusively from
// ops with bitwise-matching scalar/vector forms.
constexpr float kExpLo = -87.0f;
constexpr float kExpHi = 88.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC1 = 1.9875691500e-4f;
constexpr float kExpC2 = 1.3981999507e-3f;
constexpr float kExpC3 = 8.3334519073e-3f;
constexpr float kExpC4 = 4.1665795894e-2f;
constexpr float kExpC5 = 1.6666665459e-1f;
constexpr float kExpC6 = 5.0000001201e-1f;

inline float
expScalar(float x)
{
    x = minPs(kExpHi, maxPs(kExpLo, x)); // NaN propagates (x is src2)
    const float n = roundNearestEven(x * kLog2e);
    float r = std::fmaf(n, -kLn2Hi, x);
    r = std::fmaf(n, -kLn2Lo, r);
    float p = kExpC1;
    p = std::fmaf(p, r, kExpC2);
    p = std::fmaf(p, r, kExpC3);
    p = std::fmaf(p, r, kExpC4);
    p = std::fmaf(p, r, kExpC5);
    p = std::fmaf(p, r, kExpC6);
    const float z = std::fmaf(p, r * r, r) + 1.0f;
    const std::uint32_t ebits =
        (static_cast<std::uint32_t>(cvtI32(n)) + 127u) << 23;
    return z * bitsToFloat(ebits);
}

inline float
sigmoidScalar(float x)
{
    // One shared denominator, numerator picked on the sign bit:
    // x >= 0 -> 1/(1+e), x < 0 -> e/(1+e). Unlike the 1-s mirror this
    // keeps the negative tail strictly positive (sigmoid(-20) ~ 2e-9
    // instead of underflowing the subtraction to exactly 0).
    const float e = expScalar(negAbs(x)); // exp(-|x|) in (0, 1]
    const float num = (floatBits(x) >> 31) != 0 ? e : 1.0f;
    return num / (1.0f + e);
}

inline float
tanhScalar(float x)
{
    const float e = expScalar(negAbs(x) * 2.0f); // exp(-2|x|) in (0, 1]
    const float r = (1.0f - e) / (1.0f + e);     // tanh(|x|) in [0, 1)
    return bitsToFloat(floatBits(r) | (floatBits(x) & 0x80000000u));
}

// Float Box-Muller over raw 64-bit words (gaussFromWords). ln u1 is
// Cephes logf: an exact bit split u1 = m * 2^e with m in [sqrt(1/2),
// sqrt(2)) and a degree-8 polynomial in m - 1. The angle u2 (24 bits, in
// turns) is reduced in integers to the nearest quarter turn q and an
// exact remainder in [-1/8, 1/8) turn, so sin/cos need only Cephes'
// [-π/4, π/4] polynomials; the quarter-turn rotation is a swap on q's
// low bit plus sign-bit flips. Every multiply-add is an explicit fma at
// both levels (an implicit a*b + c may be contracted differently).
constexpr float kSqrtHalf = 0.707106781186547524f;
constexpr float kLogP0 = 7.0376836292e-2f;
constexpr float kLogP1 = -1.1514610310e-1f;
constexpr float kLogP2 = 1.1676998740e-1f;
constexpr float kLogP3 = -1.2420140846e-1f;
constexpr float kLogP4 = 1.4249322787e-1f;
constexpr float kLogP5 = -1.6668057665e-1f;
constexpr float kLogP6 = 2.0000714765e-1f;
constexpr float kLogP7 = -2.4999993993e-1f;
constexpr float kLogP8 = 3.3333331174e-1f;
constexpr float kSinP0 = -1.9515295891e-4f;
constexpr float kSinP1 = 8.3321608736e-3f;
constexpr float kSinP2 = -1.6666654611e-1f;
constexpr float kCosP0 = 2.443315711809948e-5f;
constexpr float kCosP1 = -1.388731625493765e-3f;
constexpr float kCosP2 = 4.166664568298827e-2f;
/** Radians per 2^-24 turn (float 2π scaled exactly by 2^-24). */
constexpr float kRadPerTurnLsb =
    2.0f * std::numbers::pi_v<float> * 0x1.0p-24f;

/** sqrtss: correctly rounded like vsqrtps, and never a libm call. */
inline float
sqrtExact(float x)
{
#if SWORDFISH_X86
    return _mm_cvtss_f32(_mm_sqrt_ss(_mm_set_ss(x)));
#else
    return std::sqrt(x);
#endif
}

/** ln u for u in (0, 1] (normal floats only). */
inline float
logUnitScalar(float u)
{
    const std::uint32_t b = floatBits(u);
    const auto e0 = static_cast<std::int32_t>(b >> 23) - 126;
    const float m = bitsToFloat((b & 0x7fffffu) | 0x3f000000u); // [0.5, 1)
    const bool low = m < kSqrtHalf;
    const float e = static_cast<float>(low ? e0 - 1 : e0);
    const float x = (m + (low ? m : 0.0f)) - 1.0f; // exact
    const float z = x * x;
    float p = kLogP0;
    p = std::fmaf(p, x, kLogP1);
    p = std::fmaf(p, x, kLogP2);
    p = std::fmaf(p, x, kLogP3);
    p = std::fmaf(p, x, kLogP4);
    p = std::fmaf(p, x, kLogP5);
    p = std::fmaf(p, x, kLogP6);
    p = std::fmaf(p, x, kLogP7);
    p = std::fmaf(p, x, kLogP8);
    float y = (p * x) * z;
    y = std::fmaf(e, kLn2Lo, y);
    y = std::fmaf(-0.5f, z, y);
    return std::fmaf(e, kLn2Hi, x + y);
}

/** cos and sin of u2 * 2^-24 turns, u2 a 24-bit integer. */
inline void
sinCosTurnScalar(std::uint32_t u2, float& c, float& s)
{
    const std::uint32_t q = (u2 + (1u << 21)) >> 22; // nearest quarter, 0..4
    const std::int32_t f = static_cast<std::int32_t>(u2)
        - static_cast<std::int32_t>(q << 22);        // [-2^21, 2^21)
    const float x = static_cast<float>(f) * kRadPerTurnLsb;
    const float z = x * x;
    float ps = kSinP0;
    ps = std::fmaf(ps, z, kSinP1);
    ps = std::fmaf(ps, z, kSinP2);
    const float sx = std::fmaf(ps, x * z, x);
    float pc = kCosP0;
    pc = std::fmaf(pc, z, kCosP1);
    pc = std::fmaf(pc, z, kCosP2);
    const float cx = std::fmaf(pc, z * z, std::fmaf(-0.5f, z, 1.0f));
    const bool swap = (q & 1u) != 0;
    c = bitsToFloat(floatBits(swap ? sx : cx) ^ (((q + 1u) & 2u) << 30));
    s = bitsToFloat(floatBits(swap ? cx : sx) ^ ((q & 2u) << 30));
}

/** The two normals of one word (see gaussFromWords). */
inline void
gaussPairScalar(std::uint64_t w, float& n0, float& n1)
{
    const auto j = static_cast<std::uint32_t>(w >> 40) + 1u;
    const auto u2 = static_cast<std::uint32_t>(w >> 16) & 0xffffffu;
    const float u1 = static_cast<float>(j) * 0x1.0p-24f; // (0, 1], exact
    const float r = sqrtExact(logUnitScalar(u1) * -2.0f);
    float c, s;
    sinCosTurnScalar(u2, c, s);
    n0 = r * c;
    n1 = r * s;
}

/**
 * lroundf of t in [0, 2^23) as a float, clamped to max_code. Exact: the
 * fraction t - trunc(t) is exact, and ties round up (away from zero).
 * Callers clamp first, which also maps NaN to the bottom of the range —
 * code 0, where lroundf(NaN)'s LONG_MIN clamped to.
 */
inline float
roundHalfUpCode(float t, float max_code)
{
    const float tr = std::truncf(t);
    const float up = (t - tr) >= 0.5f ? 1.0f : 0.0f;
    return minPs(tr + up, max_code);
}

/** One ADC conversion with normal z (the AdcTransfer formula). */
inline float
adcElementScalar(float y, float z, const AdcTransfer& a, float scale)
{
    float v = std::fmaf(y, a.gain, a.offset);
    v = std::fmaf(z, a.noiseScale, v);
    v = minPs(maxPs(v, -a.range), a.range);
    const float code = roundHalfUpCode((v + a.range) / a.step, a.maxCode);
    return std::fmaf(code, a.step, -a.range) * scale;
}

/** DAC code of one input (the DacTransfer formula). */
inline std::size_t
dacCodeScalar(float x, const DacTransfer& d)
{
    const float c = minPs(maxPs(x, -1.0f), 1.0f);
    return static_cast<std::size_t>(
        roundHalfUpCode((c + 1.0f) / d.step, d.maxCode));
}

// ---------------------------------------------------------------------------
// Scalar kernels (auto-vectorization disabled: the fallback must stay
// genuinely scalar under -march=native so the roofline's scalar-vs-AVX2
// delta measures the vector path, not the compiler)
// ---------------------------------------------------------------------------

/** Fold tail elements into lanes 0..r-1, then run the reduction tree. */
SWORDFISH_NO_AUTOVEC float
dotTailReduce(float* lane, const float* a, const float* b, std::size_t k8,
              std::size_t k)
{
    for (std::size_t p = k8; p < k; ++p)
        lane[p - k8] = std::fmaf(a[p], b[p], lane[p - k8]);
    return reduceLanes(lane);
}

SWORDFISH_NO_AUTOVEC float
dotScalar(const float* a, const float* b, std::size_t k)
{
    alignas(32) float lane[8] = {};
    const std::size_t k8 = k & ~std::size_t{7};
    for (std::size_t p = 0; p < k8; p += 8)
        for (std::size_t j = 0; j < 8; ++j)
            lane[j] = std::fmaf(a[p + j], b[p + j], lane[j]);
    return dotTailReduce(lane, a, b, k8, k);
}

SWORDFISH_NO_AUTOVEC void
gemmBTRowScalar(const float* a, const Matrix& b, float* crow, std::size_t k,
                std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        crow[j] += dotScalar(a, b.rowPtr(j), k);
}

SWORDFISH_NO_AUTOVEC void
lstmGateScalar(const float* zi, const float* zr, const float* b,
               std::size_t hidden, const float* c_prev, float* c_out,
               float* tanh_c_out, float* h_out, float* gates_out,
               std::size_t j_begin)
{
    const std::size_t h = hidden;
    for (std::size_t j = j_begin; j < h; ++j) {
        const float pi = (zi[j] + zr[j]) + b[j];
        const float pf = (zi[h + j] + zr[h + j]) + b[h + j];
        const float pg = (zi[2 * h + j] + zr[2 * h + j]) + b[2 * h + j];
        const float po = (zi[3 * h + j] + zr[3 * h + j]) + b[3 * h + j];
        const float ig = sigmoidScalar(pi);
        const float fg = sigmoidScalar(pf);
        const float gg = tanhScalar(pg);
        const float og = sigmoidScalar(po);
        const float c = std::fmaf(fg, c_prev[j], ig * gg);
        const float tc = tanhScalar(c);
        c_out[j] = c;
        h_out[j] = og * tc;
        if (tanh_c_out != nullptr)
            tanh_c_out[j] = tc;
        if (gates_out != nullptr) {
            gates_out[j] = ig;
            gates_out[h + j] = fg;
            gates_out[2 * h + j] = gg;
            gates_out[3 * h + j] = og;
        }
    }
}

/** Plain first-max scan, shared by both levels for short rows (n < 8). */
SWORDFISH_NO_AUTOVEC std::size_t
argmaxShort(const float* row, std::size_t n)
{
    std::size_t best = 0;
    for (std::size_t k = 1; k < n; ++k)
        if (row[k] > row[best])
            best = k;
    return best;
}

/**
 * Stripe-blocked argmax for n >= 8: lane j tracks the first maximum of
 * stripe {j, j+8, ...} over the full blocks, the lanes reduce with
 * strictly-greater / smaller-index tie-breaking, and tail elements finish
 * the scan. The scalar and AVX2 paths run this algorithm step for step.
 */
SWORDFISH_NO_AUTOVEC std::size_t
argmaxBlockedScalar(const float* row, std::size_t n)
{
    alignas(32) float vals[8];
    std::size_t idxs[8];
    for (std::size_t l = 0; l < 8; ++l) {
        vals[l] = row[l];
        idxs[l] = l;
    }
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t p = 8; p < n8; p += 8) {
        for (std::size_t l = 0; l < 8; ++l) {
            if (row[p + l] > vals[l]) {
                vals[l] = row[p + l];
                idxs[l] = p + l;
            }
        }
    }
    std::size_t best = idxs[0];
    float bv = vals[0];
    for (std::size_t l = 1; l < 8; ++l) {
        if (vals[l] > bv || (vals[l] == bv && idxs[l] < best)) {
            bv = vals[l];
            best = idxs[l];
        }
    }
    for (std::size_t p = n8; p < n; ++p) {
        if (row[p] > bv) {
            bv = row[p];
            best = p;
        }
    }
    return best;
}

/** Sequential max scan shared by both levels for short rows (n < 8). */
SWORDFISH_NO_AUTOVEC float
rowMaxShort(const float* row, std::size_t n)
{
    float mx = row[0];
    for (std::size_t k = 1; k < n; ++k)
        mx = std::max(mx, row[k]);
    return mx;
}

SWORDFISH_NO_AUTOVEC float
rowMaxBlockedScalar(const float* row, std::size_t n)
{
    alignas(32) float lane[8];
    for (std::size_t l = 0; l < 8; ++l)
        lane[l] = row[l];
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t p = 8; p < n8; p += 8)
        for (std::size_t l = 0; l < 8; ++l)
            lane[l] = maxPs(row[p + l], lane[l]); // NaN candidate loses
    float mx = reduceLanesMax(lane);
    for (std::size_t p = n8; p < n; ++p)
        mx = maxPs(row[p], mx);
    return mx;
}

SWORDFISH_NO_AUTOVEC float
absMaxScalar(const float* v, std::size_t n)
{
    alignas(32) float lane[8] = {};
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t p = 0; p < n8; p += 8)
        for (std::size_t l = 0; l < 8; ++l)
            lane[l] = maxPs(bitsToFloat(floatBits(v[p + l]) & 0x7fffffffu),
                            lane[l]);
    float mx = reduceLanesMax(lane);
    for (std::size_t p = n8; p < n; ++p)
        mx = maxPs(bitsToFloat(floatBits(v[p]) & 0x7fffffffu), mx);
    return mx;
}

/** Elements [begin, n) of quantizeRows. */
SWORDFISH_NO_AUTOVEC void
quantizeScalar(float* v, std::size_t begin, std::size_t n, float scale,
               float max_level)
{
    const float lo = -max_level - 1.0f;
    for (std::size_t i = begin; i < n; ++i)
        v[i] = minPs(maxPs(std::nearbyint(v[i] / scale), lo), max_level)
            * scale;
}

SWORDFISH_NO_AUTOVEC void
gaussFromWordsScalar(const std::uint64_t* words, std::size_t begin,
                     std::size_t count, float* out)
{
    for (std::size_t k = begin; k < count; ++k)
        gaussPairScalar(words[k], out[2 * k], out[2 * k + 1]);
}

/** Elements [begin, n) of adcConvertRows; begin is even. */
SWORDFISH_NO_AUTOVEC void
adcConvertScalar(float* y, std::size_t begin, std::size_t n,
                 const AdcTransfer& a, const std::uint64_t* words,
                 float scale)
{
    for (std::size_t i = begin; i < n; i += 2) {
        float z0, z1;
        gaussPairScalar(words[i / 2], z0, z1);
        y[i] = adcElementScalar(y[i], z0, a, scale);
        if (i + 1 < n)
            y[i + 1] = adcElementScalar(y[i + 1], z1, a, scale);
    }
}

SWORDFISH_NO_AUTOVEC void
dacConvertScalar(const float* x, float* out, std::size_t begin,
                 std::size_t n, const DacTransfer& d)
{
    for (std::size_t i = begin; i < n; ++i)
        out[i] = d.levels[dacCodeScalar(x[i], d)];
}

SWORDFISH_NO_AUTOVEC float
peakFmaScalar(std::size_t iters)
{
    float a0 = 0.1f, a1 = 0.2f, a2 = 0.3f, a3 = 0.4f;
    float a4 = 0.5f, a5 = 0.6f, a6 = 0.7f, a7 = 0.8f;
    const float m = 0.999999f, d = 1e-30f;
    for (std::size_t i = 0; i < iters; ++i) {
        a0 = std::fmaf(a0, m, d);
        a1 = std::fmaf(a1, m, d);
        a2 = std::fmaf(a2, m, d);
        a3 = std::fmaf(a3, m, d);
        a4 = std::fmaf(a4, m, d);
        a5 = std::fmaf(a5, m, d);
        a6 = std::fmaf(a6, m, d);
        a7 = std::fmaf(a7, m, d);
    }
    return ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
}

// ---------------------------------------------------------------------------
// AVX2 kernels
// ---------------------------------------------------------------------------

#if SWORDFISH_X86

SWORDFISH_AVX2_TARGET inline __m256
expAvx2(__m256 x)
{
    x = _mm256_max_ps(_mm256_set1_ps(kExpLo), x);
    x = _mm256_min_ps(_mm256_set1_ps(kExpHi), x);
    const __m256 n = _mm256_round_ps(
        _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Hi), x);
    r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Lo), r);
    __m256 p = _mm256_set1_ps(kExpC1);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC2));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC3));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC4));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC5));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC6));
    const __m256 z = _mm256_add_ps(
        _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.0f));
    const __m256i ebits = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)),
        23);
    return _mm256_mul_ps(z, _mm256_castsi256_ps(ebits));
}

SWORDFISH_AVX2_TARGET inline __m256
sigmoidAvx2(__m256 x)
{
    const __m256 e = expAvx2(_mm256_or_ps(x, _mm256_set1_ps(-0.0f)));
    const __m256 one = _mm256_set1_ps(1.0f);
    // Numerator blended on the sign bit (see sigmoidScalar).
    const __m256 num = _mm256_blendv_ps(one, e, x);
    return _mm256_div_ps(num, _mm256_add_ps(one, e));
}

SWORDFISH_AVX2_TARGET inline __m256
tanhAvx2(__m256 x)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    const __m256 na = _mm256_or_ps(x, sign);
    const __m256 e = expAvx2(_mm256_mul_ps(na, _mm256_set1_ps(2.0f)));
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 r =
        _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
    return _mm256_or_ps(r, _mm256_and_ps(x, sign));
}

SWORDFISH_AVX2_TARGET float
dotAvx2(const float* a, const float* b, std::size_t k)
{
    __m256 acc = _mm256_setzero_ps();
    const std::size_t k8 = k & ~std::size_t{7};
    for (std::size_t p = 0; p < k8; p += 8)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + p),
                              _mm256_loadu_ps(b + p), acc);
    alignas(32) float lane[8];
    _mm256_store_ps(lane, acc);
    return dotTailReduce(lane, a, b, k8, k);
}

/**
 * reduceLanes of eight accumulators at once, transposed in registers:
 * lane i of the result is ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) of acc[i].
 */
SWORDFISH_AVX2_TARGET inline __m256
reduceLanes8(const __m256* acc)
{
    // Half sums s = (l0+l4, l1+l5, l2+l6, l3+l7): acc i low, acc i+4 high.
    __m256 h[4];
    for (std::size_t i = 0; i < 4; ++i)
        h[i] = _mm256_add_ps(_mm256_permute2f128_ps(acc[i], acc[i + 4], 0x20),
                             _mm256_permute2f128_ps(acc[i], acc[i + 4], 0x31));
    // (s0+s2, s1+s3) of acc i then acc i+1; acc i+4, i+5 in the high half.
    const __m256 q01 =
        _mm256_add_ps(_mm256_shuffle_ps(h[0], h[1], _MM_SHUFFLE(1, 0, 1, 0)),
                      _mm256_shuffle_ps(h[0], h[1], _MM_SHUFFLE(3, 2, 3, 2)));
    const __m256 q23 =
        _mm256_add_ps(_mm256_shuffle_ps(h[2], h[3], _MM_SHUFFLE(1, 0, 1, 0)),
                      _mm256_shuffle_ps(h[2], h[3], _MM_SHUFFLE(3, 2, 3, 2)));
    return _mm256_add_ps(
        _mm256_shuffle_ps(q01, q23, _MM_SHUFFLE(2, 0, 2, 0)),
        _mm256_shuffle_ps(q01, q23, _MM_SHUFFLE(3, 1, 3, 1)));
}

/**
 * One gemmBT pass over N = 8 or 4 consecutive outputs, B rows b0.. of
 * stride k: N accumulators share each load of the A row, and the ragged
 * tail k8..k folds in with masked loads (`tail` selects lanes 0..r-1,
 * tail_a is A's masked tail), one FMA and a blend. Lane i < N of the
 * result is output i's blocked dot product, reduced in registers.
 */
template <std::size_t N>
SWORDFISH_AVX2_TARGET inline __m256
gemmBTPassAvx2(const float* a, const float* b0, std::size_t k,
               std::size_t k8, __m256i tail, __m256 tail_a)
{
    // With N = 4, acc[4..7] stay zero and result lanes 4..7 go unused.
    __m256 acc[8];
    for (std::size_t i = 0; i < 8; ++i)
        acc[i] = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k8; p += 8) {
        const __m256 va = _mm256_loadu_ps(a + p);
        for (std::size_t i = 0; i < N; ++i)
            acc[i] =
                _mm256_fmadd_ps(va, _mm256_loadu_ps(b0 + i * k + p), acc[i]);
    }
    if (k8 != k) {
        // Blend, not a bare fma: 0*0 + (-0) would turn a -0 lane at or
        // above r into +0.
        for (std::size_t i = 0; i < N; ++i)
            acc[i] = _mm256_blendv_ps(
                acc[i],
                _mm256_fmadd_ps(tail_a,
                                _mm256_maskload_ps(b0 + i * k + k8, tail),
                                acc[i]),
                _mm256_castsi256_ps(tail));
    }
    return reduceLanes8(acc);
}

SWORDFISH_AVX2_TARGET void
gemmBTRowAvx2(const float* a, const Matrix& b, float* crow, std::size_t k,
              std::size_t n)
{
    std::size_t j = 0;
    if (n >= 4) {
        const std::size_t k8 = k & ~std::size_t{7};
        // Lanes 0..r-1 take the ragged tail r = k - k8; the masked loads
        // read nothing past k and give 0 above r.
        const __m256i tail = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(k - k8)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        const __m256 tail_a =
            k8 != k ? _mm256_maskload_ps(a + k8, tail) : _mm256_setzero_ps();
        // Each pass adds its sums into C with one vector add, the same
        // single add as the scalar `crow[j] +=`.
        for (; j + 8 <= n; j += 8)
            _mm256_storeu_ps(
                crow + j,
                _mm256_add_ps(_mm256_loadu_ps(crow + j),
                              gemmBTPassAvx2<8>(a, b.rowPtr(j), k, k8, tail,
                                                tail_a)));
        if (j + 4 <= n) {
            const __m256 sums =
                gemmBTPassAvx2<4>(a, b.rowPtr(j), k, k8, tail, tail_a);
            _mm_storeu_ps(crow + j, _mm_add_ps(_mm_loadu_ps(crow + j),
                                               _mm256_castps256_ps128(sums)));
            j += 4;
        }
    }
    // The last n mod 4 outputs, one blocked dot product each.
    for (; j < n; ++j)
        crow[j] += dotAvx2(a, b.rowPtr(j), k);
}

/**
 * Gate pre-activation for one 8-wide block: zi + zr + b at `off`. A named
 * function, not a local lambda: GCC does not propagate the enclosing
 * function's target("avx2,fma") attribute to lambdas, so a lambda body
 * using AVX2 intrinsics fails to compile unless AVX2 is enabled globally.
 */
SWORDFISH_AVX2_TARGET inline __m256
gatePre(const float* zi, const float* zr, const float* b, std::size_t off)
{
    return _mm256_add_ps(
        _mm256_add_ps(_mm256_loadu_ps(zi + off), _mm256_loadu_ps(zr + off)),
        _mm256_loadu_ps(b + off));
}

SWORDFISH_AVX2_TARGET void
lstmGateAvx2(const float* zi, const float* zr, const float* b,
             std::size_t hidden, const float* c_prev, float* c_out,
             float* tanh_c_out, float* h_out, float* gates_out)
{
    const std::size_t h = hidden;
    const std::size_t h8 = h & ~std::size_t{7};
    for (std::size_t j = 0; j < h8; j += 8) {
        const __m256 ig = sigmoidAvx2(gatePre(zi, zr, b, j));
        const __m256 fg = sigmoidAvx2(gatePre(zi, zr, b, h + j));
        const __m256 gg = tanhAvx2(gatePre(zi, zr, b, 2 * h + j));
        const __m256 og = sigmoidAvx2(gatePre(zi, zr, b, 3 * h + j));
        const __m256 c = _mm256_fmadd_ps(fg, _mm256_loadu_ps(c_prev + j),
                                         _mm256_mul_ps(ig, gg));
        const __m256 tc = tanhAvx2(c);
        _mm256_storeu_ps(c_out + j, c);
        _mm256_storeu_ps(h_out + j, _mm256_mul_ps(og, tc));
        if (tanh_c_out != nullptr)
            _mm256_storeu_ps(tanh_c_out + j, tc);
        if (gates_out != nullptr) {
            _mm256_storeu_ps(gates_out + j, ig);
            _mm256_storeu_ps(gates_out + h + j, fg);
            _mm256_storeu_ps(gates_out + 2 * h + j, gg);
            _mm256_storeu_ps(gates_out + 3 * h + j, og);
        }
    }
    if (h8 < h)
        lstmGateScalar(zi, zr, b, hidden, c_prev, c_out, tanh_c_out, h_out,
                       gates_out, h8);
}

SWORDFISH_AVX2_TARGET std::size_t
argmaxBlockedAvx2(const float* row, std::size_t n)
{
    __m256 vmax = _mm256_loadu_ps(row);
    __m256i vidx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i cur = vidx;
    const __m256i inc = _mm256_set1_epi32(8);
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t p = 8; p < n8; p += 8) {
        cur = _mm256_add_epi32(cur, inc);
        const __m256 v = _mm256_loadu_ps(row + p);
        const __m256 gt = _mm256_cmp_ps(v, vmax, _CMP_GT_OQ);
        vmax = _mm256_blendv_ps(vmax, v, gt);
        vidx = _mm256_blendv_epi8(vidx, cur, _mm256_castps_si256(gt));
    }
    alignas(32) float vals[8];
    alignas(32) std::int32_t raw_idx[8];
    _mm256_store_ps(vals, vmax);
    _mm256_store_si256(reinterpret_cast<__m256i*>(raw_idx), vidx);
    std::size_t best = static_cast<std::size_t>(raw_idx[0]);
    float bv = vals[0];
    for (std::size_t l = 1; l < 8; ++l) {
        const auto idx = static_cast<std::size_t>(raw_idx[l]);
        if (vals[l] > bv || (vals[l] == bv && idx < best)) {
            bv = vals[l];
            best = idx;
        }
    }
    for (std::size_t p = n8; p < n; ++p) {
        if (row[p] > bv) {
            bv = row[p];
            best = p;
        }
    }
    return best;
}

SWORDFISH_AVX2_TARGET float
rowMaxBlockedAvx2(const float* row, std::size_t n)
{
    __m256 vmax = _mm256_loadu_ps(row);
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t p = 8; p < n8; p += 8)
        vmax = _mm256_max_ps(_mm256_loadu_ps(row + p), vmax);
    alignas(32) float lane[8];
    _mm256_store_ps(lane, vmax);
    float mx = reduceLanesMax(lane);
    for (std::size_t p = n8; p < n; ++p)
        mx = maxPs(row[p], mx);
    return mx;
}

SWORDFISH_AVX2_TARGET float
absMaxAvx2(const float* v, std::size_t n)
{
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 vmax = _mm256_setzero_ps();
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t p = 0; p < n8; p += 8)
        vmax = _mm256_max_ps(
            _mm256_and_ps(_mm256_loadu_ps(v + p), abs_mask), vmax);
    alignas(32) float lane[8];
    _mm256_store_ps(lane, vmax);
    float mx = reduceLanesMax(lane);
    for (std::size_t p = n8; p < n; ++p)
        mx = maxPs(bitsToFloat(floatBits(v[p]) & 0x7fffffffu), mx);
    return mx;
}

SWORDFISH_AVX2_TARGET void
quantizeAvx2(float* v, std::size_t n, float scale, float max_level)
{
    const __m256 sc = _mm256_set1_ps(scale);
    const __m256 lo = _mm256_set1_ps(-max_level - 1.0f);
    const __m256 hi = _mm256_set1_ps(max_level);
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t i = 0; i < n8; i += 8) {
        const __m256 q = _mm256_round_ps(
            _mm256_div_ps(_mm256_loadu_ps(v + i), sc),
            _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
        _mm256_storeu_ps(
            v + i,
            _mm256_mul_ps(_mm256_min_ps(_mm256_max_ps(q, lo), hi), sc));
    }
    quantizeScalar(v, n8, n, scale, max_level);
}

SWORDFISH_AVX2_TARGET float
peakFmaAvx2(std::size_t iters)
{
    __m256 a0 = _mm256_set1_ps(0.1f), a1 = _mm256_set1_ps(0.2f);
    __m256 a2 = _mm256_set1_ps(0.3f), a3 = _mm256_set1_ps(0.4f);
    __m256 a4 = _mm256_set1_ps(0.5f), a5 = _mm256_set1_ps(0.6f);
    __m256 a6 = _mm256_set1_ps(0.7f), a7 = _mm256_set1_ps(0.8f);
    const __m256 m = _mm256_set1_ps(0.999999f);
    const __m256 d = _mm256_set1_ps(1e-30f);
    for (std::size_t i = 0; i < iters; ++i) {
        a0 = _mm256_fmadd_ps(a0, m, d);
        a1 = _mm256_fmadd_ps(a1, m, d);
        a2 = _mm256_fmadd_ps(a2, m, d);
        a3 = _mm256_fmadd_ps(a3, m, d);
        a4 = _mm256_fmadd_ps(a4, m, d);
        a5 = _mm256_fmadd_ps(a5, m, d);
        a6 = _mm256_fmadd_ps(a6, m, d);
        a7 = _mm256_fmadd_ps(a7, m, d);
    }
    const __m256 s = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)),
        _mm256_add_ps(_mm256_add_ps(a4, a5), _mm256_add_ps(a6, a7)));
    alignas(32) float lane[8];
    _mm256_store_ps(lane, s);
    return reduceLanes(lane);
}

/** logUnitScalar, lanewise. */
SWORDFISH_AVX2_TARGET inline __m256
logUnitAvx2(__m256 u)
{
    const __m256i b = _mm256_castps_si256(u);
    const __m256i e0 = _mm256_sub_epi32(_mm256_srli_epi32(b, 23),
                                        _mm256_set1_epi32(126));
    const __m256 m = _mm256_castsi256_ps(_mm256_or_si256(
        _mm256_and_si256(b, _mm256_set1_epi32(0x7fffff)),
        _mm256_set1_epi32(0x3f000000)));
    const __m256 low =
        _mm256_cmp_ps(m, _mm256_set1_ps(kSqrtHalf), _CMP_LT_OQ);
    // low is all-ones (-1) where m < sqrt(1/2): e = e0 - 1 there.
    const __m256 e = _mm256_cvtepi32_ps(
        _mm256_add_epi32(e0, _mm256_castps_si256(low)));
    const __m256 x = _mm256_sub_ps(_mm256_add_ps(m, _mm256_and_ps(low, m)),
                                   _mm256_set1_ps(1.0f));
    const __m256 z = _mm256_mul_ps(x, x);
    __m256 p = _mm256_set1_ps(kLogP0);
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kLogP1));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kLogP2));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kLogP3));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kLogP4));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kLogP5));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kLogP6));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kLogP7));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kLogP8));
    __m256 y = _mm256_mul_ps(_mm256_mul_ps(p, x), z);
    y = _mm256_fmadd_ps(e, _mm256_set1_ps(kLn2Lo), y);
    y = _mm256_fmadd_ps(_mm256_set1_ps(-0.5f), z, y);
    return _mm256_fmadd_ps(e, _mm256_set1_ps(kLn2Hi), _mm256_add_ps(x, y));
}

/** sinCosTurnScalar, lanewise. */
SWORDFISH_AVX2_TARGET inline void
sinCosTurnAvx2(__m256i u2, __m256& c, __m256& s)
{
    const __m256i q = _mm256_srli_epi32(
        _mm256_add_epi32(u2, _mm256_set1_epi32(1 << 21)), 22);
    const __m256i f = _mm256_sub_epi32(u2, _mm256_slli_epi32(q, 22));
    const __m256 x = _mm256_mul_ps(_mm256_cvtepi32_ps(f),
                                   _mm256_set1_ps(kRadPerTurnLsb));
    const __m256 z = _mm256_mul_ps(x, x);
    __m256 ps = _mm256_fmadd_ps(_mm256_set1_ps(kSinP0), z,
                                _mm256_set1_ps(kSinP1));
    ps = _mm256_fmadd_ps(ps, z, _mm256_set1_ps(kSinP2));
    const __m256 sx = _mm256_fmadd_ps(ps, _mm256_mul_ps(x, z), x);
    __m256 pc = _mm256_fmadd_ps(_mm256_set1_ps(kCosP0), z,
                                _mm256_set1_ps(kCosP1));
    pc = _mm256_fmadd_ps(pc, z, _mm256_set1_ps(kCosP2));
    const __m256 cx = _mm256_fmadd_ps(
        pc, _mm256_mul_ps(z, z),
        _mm256_fmadd_ps(_mm256_set1_ps(-0.5f), z, _mm256_set1_ps(1.0f)));
    // Odd q swaps cos/sin (blendv selects on the sign bit = q's low bit).
    const __m256 swap = _mm256_castsi256_ps(_mm256_slli_epi32(q, 31));
    const __m256i two = _mm256_set1_epi32(2);
    const __m256i c_sign = _mm256_slli_epi32(
        _mm256_and_si256(_mm256_add_epi32(q, _mm256_set1_epi32(1)), two), 30);
    const __m256i s_sign = _mm256_slli_epi32(_mm256_and_si256(q, two), 30);
    c = _mm256_xor_ps(_mm256_blendv_ps(cx, sx, swap),
                      _mm256_castsi256_ps(c_sign));
    s = _mm256_xor_ps(_mm256_blendv_ps(sx, cx, swap),
                      _mm256_castsi256_ps(s_sign));
}

/**
 * The 16 normals of words[0..8), in element order: the first vector holds
 * elements 0..7 (words 0..3), the second elements 8..15.
 */
SWORDFISH_AVX2_TARGET inline void
gaussOctAvx2(const std::uint64_t* words, __m256& first, __m256& second)
{
    const __m256 a = _mm256_castsi256_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words)));
    const __m256 b = _mm256_castsi256_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + 4)));
    // Low and high 32-bit halves of the eight words, in word order.
    const __m256i lo = _mm256_permute4x64_epi64(
        _mm256_castps_si256(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0))),
        _MM_SHUFFLE(3, 1, 2, 0));
    const __m256i hi = _mm256_permute4x64_epi64(
        _mm256_castps_si256(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1))),
        _MM_SHUFFLE(3, 1, 2, 0));
    const __m256i j = _mm256_add_epi32(_mm256_srli_epi32(hi, 8),
                                       _mm256_set1_epi32(1));
    const __m256i u2 = _mm256_or_si256(
        _mm256_srli_epi32(lo, 16),
        _mm256_slli_epi32(_mm256_and_si256(hi, _mm256_set1_epi32(0xff)),
                          16));
    const __m256 u1 = _mm256_mul_ps(_mm256_cvtepi32_ps(j),
                                    _mm256_set1_ps(0x1.0p-24f));
    const __m256 r = _mm256_sqrt_ps(
        _mm256_mul_ps(logUnitAvx2(u1), _mm256_set1_ps(-2.0f)));
    __m256 c, s;
    sinCosTurnAvx2(u2, c, s);
    const __m256 nc = _mm256_mul_ps(r, c);
    const __m256 ns = _mm256_mul_ps(r, s);
    // Interleave to c0 s0 c1 s1 ...: unpack works per 128-bit half.
    const __m256 lo_pairs = _mm256_unpacklo_ps(nc, ns); // c0 s0 c1 s1 | c4..
    const __m256 hi_pairs = _mm256_unpackhi_ps(nc, ns); // c2 s2 c3 s3 | c6..
    first = _mm256_permute2f128_ps(lo_pairs, hi_pairs, 0x20);
    second = _mm256_permute2f128_ps(lo_pairs, hi_pairs, 0x31);
}

SWORDFISH_AVX2_TARGET void
gaussFromWordsAvx2(const std::uint64_t* words, std::size_t count, float* out)
{
    const std::size_t c8 = count & ~std::size_t{7};
    for (std::size_t k = 0; k < c8; k += 8) {
        __m256 first, second;
        gaussOctAvx2(words + k, first, second);
        _mm256_storeu_ps(out + 2 * k, first);
        _mm256_storeu_ps(out + 2 * k + 8, second);
    }
    gaussFromWordsScalar(words, c8, count, out);
}

/** roundHalfUpCode, lanewise. */
SWORDFISH_AVX2_TARGET inline __m256
roundHalfUpCodeAvx2(__m256 t, __m256 max_code)
{
    const __m256 tr =
        _mm256_round_ps(t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 up = _mm256_and_ps(
        _mm256_cmp_ps(_mm256_sub_ps(t, tr), _mm256_set1_ps(0.5f),
                      _CMP_GE_OQ),
        _mm256_set1_ps(1.0f));
    return _mm256_min_ps(_mm256_add_ps(tr, up), max_code);
}

/** adcElementScalar, lanewise; the transfer constants come broadcast. */
SWORDFISH_AVX2_TARGET inline __m256
adcOctAvx2(__m256 y, __m256 z, __m256 gain, __m256 offset, __m256 noise,
           __m256 range, __m256 step, __m256 max_code, __m256 scale)
{
    __m256 v = _mm256_fmadd_ps(y, gain, offset);
    v = _mm256_fmadd_ps(z, noise, v);
    const __m256 neg_range = _mm256_xor_ps(range, _mm256_set1_ps(-0.0f));
    v = _mm256_min_ps(_mm256_max_ps(v, neg_range), range);
    const __m256 code = roundHalfUpCodeAvx2(
        _mm256_div_ps(_mm256_add_ps(v, range), step), max_code);
    return _mm256_mul_ps(_mm256_fmadd_ps(code, step, neg_range), scale);
}

SWORDFISH_AVX2_TARGET void
adcConvertAvx2(float* y, std::size_t n, const AdcTransfer& a,
               const std::uint64_t* words, float scale)
{
    const __m256 gain = _mm256_set1_ps(a.gain);
    const __m256 offset = _mm256_set1_ps(a.offset);
    const __m256 noise = _mm256_set1_ps(a.noiseScale);
    const __m256 range = _mm256_set1_ps(a.range);
    const __m256 step = _mm256_set1_ps(a.step);
    const __m256 max_code = _mm256_set1_ps(a.maxCode);
    const __m256 sc = _mm256_set1_ps(scale);
    const std::size_t n16 = n & ~std::size_t{15};
    for (std::size_t i = 0; i < n16; i += 16) {
        __m256 z0, z1;
        gaussOctAvx2(words + i / 2, z0, z1);
        _mm256_storeu_ps(y + i, adcOctAvx2(_mm256_loadu_ps(y + i), z0, gain,
                                           offset, noise, range, step,
                                           max_code, sc));
        _mm256_storeu_ps(y + i + 8,
                         adcOctAvx2(_mm256_loadu_ps(y + i + 8), z1, gain,
                                    offset, noise, range, step, max_code,
                                    sc));
    }
    adcConvertScalar(y, n16, n, a, words, scale);
}

SWORDFISH_AVX2_TARGET void
dacConvertAvx2(const float* x, float* out, std::size_t n,
               const DacTransfer& d)
{
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 neg_one = _mm256_set1_ps(-1.0f);
    const __m256 step = _mm256_set1_ps(d.step);
    const __m256 max_code = _mm256_set1_ps(d.maxCode);
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t i = 0; i < n8; i += 8) {
        const __m256 c = _mm256_min_ps(
            _mm256_max_ps(_mm256_loadu_ps(x + i), neg_one), one);
        const __m256 code = roundHalfUpCodeAvx2(
            _mm256_div_ps(_mm256_add_ps(c, one), step), max_code);
        _mm256_storeu_ps(out + i,
                         _mm256_i32gather_ps(d.levels,
                                             _mm256_cvttps_epi32(code), 4));
    }
    dacConvertScalar(x, out, n8, n, d);
}

#endif // SWORDFISH_X86

inline bool
useAvx2()
{
#if SWORDFISH_X86
    return activeSimdLevel() == SimdLevel::Avx2;
#else
    return false;
#endif
}

volatile float g_peak_sink = 0.0f;

} // namespace

// ---------------------------------------------------------------------------
// Public dispatchers
// ---------------------------------------------------------------------------

float
dotBlocked(const float* a, const float* b, std::size_t k)
{
#if SWORDFISH_X86
    if (useAvx2())
        return dotAvx2(a, b, k);
#endif
    return dotScalar(a, b, k);
}

bool
gemmForks(std::size_t work)
{
    return work > kGemmForkWork && !ThreadPool::inWorker();
}

void
gemmBT(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate)
{
    if (a.cols() != b.cols())
        panic("gemmBT: inner dimensions mismatch");
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    if (!accumulate)
        c = Matrix(m, n);
    else if (c.rows() != m || c.cols() != n)
        panic("gemm: accumulate target has wrong shape");

    const bool avx2 = useAvx2();
    forEachRow(m, m * n * k, [&](std::size_t i) {
        float* crow = c.rowPtr(i);
        const float* arow = a.rowPtr(i);
#if SWORDFISH_X86
        if (avx2) {
            gemmBTRowAvx2(arow, b, crow, k, n);
            return;
        }
#endif
        (void)avx2;
        gemmBTRowScalar(arow, b, crow, k, n);
    });
}

float
expApproxf(float x)
{
    return expScalar(x);
}

float
sigmoidApproxf(float x)
{
    return sigmoidScalar(x);
}

float
tanhApproxf(float x)
{
    return tanhScalar(x);
}

void
lstmGateBlock(const float* zi, const float* zr, const float* b,
              std::size_t hidden, const float* c_prev, float* c_out,
              float* tanh_c_out, float* h_out, float* gates_out)
{
#if SWORDFISH_X86
    if (useAvx2()) {
        lstmGateAvx2(zi, zr, b, hidden, c_prev, c_out, tanh_c_out, h_out,
                     gates_out);
        return;
    }
#endif
    lstmGateScalar(zi, zr, b, hidden, c_prev, c_out, tanh_c_out, h_out,
                   gates_out, 0);
}

std::size_t
argmaxRow(const float* row, std::size_t n)
{
    if (n < 8)
        return argmaxShort(row, n);
#if SWORDFISH_X86
    if (useAvx2())
        return argmaxBlockedAvx2(row, n);
#endif
    return argmaxBlockedScalar(row, n);
}

float
rowMax(const float* row, std::size_t n)
{
    if (n < 8)
        return rowMaxShort(row, n);
#if SWORDFISH_X86
    if (useAvx2())
        return rowMaxBlockedAvx2(row, n);
#endif
    return rowMaxBlockedScalar(row, n);
}

float
absMaxRange(const float* v, std::size_t n)
{
    if (n == 0)
        return 0.0f;
#if SWORDFISH_X86
    if (n >= 8 && useAvx2())
        return absMaxAvx2(v, n);
#endif
    return absMaxScalar(v, n);
}

void
quantizeRows(float* v, std::size_t n, float scale, float max_level)
{
#if SWORDFISH_X86
    if (useAvx2()) {
        quantizeAvx2(v, n, scale, max_level);
        return;
    }
#endif
    quantizeScalar(v, 0, n, scale, max_level);
}

void
gaussFromWords(const std::uint64_t* words, std::size_t count, float* out)
{
#if SWORDFISH_X86
    if (useAvx2()) {
        gaussFromWordsAvx2(words, count, out);
        return;
    }
#endif
    gaussFromWordsScalar(words, 0, count, out);
}

void
adcConvertRows(float* y, std::size_t n, const AdcTransfer& adc,
               const std::uint64_t* words, float scale)
{
#if SWORDFISH_X86
    if (useAvx2()) {
        adcConvertAvx2(y, n, adc, words, scale);
        return;
    }
#endif
    adcConvertScalar(y, 0, n, adc, words, scale);
}

void
dacConvertRows(const float* x, float* out, std::size_t n,
               const DacTransfer& dac)
{
#if SWORDFISH_X86
    if (useAvx2()) {
        dacConvertAvx2(x, out, n, dac);
        return;
    }
#endif
    dacConvertScalar(x, out, 0, n, dac);
}

double
peakFmaFlops(std::size_t iters, bool avx2)
{
#if SWORDFISH_X86
    if (avx2 && cpuSupportsAvx2()) {
        g_peak_sink = peakFmaAvx2(iters);
        return static_cast<double>(iters) * 8.0 * 8.0 * 2.0;
    }
#endif
    (void)avx2;
    g_peak_sink = peakFmaScalar(iters);
    return static_cast<double>(iters) * 8.0 * 2.0;
}

} // namespace swordfish::kernels
