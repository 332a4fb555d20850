/**
 * @file
 * Tests for the SIMD kernel layer: runtime dispatch, the bitwise
 * scalar==AVX2==AVX-512 contract of every vectorized kernel, the
 * four-stream noise-word draw against serial draws, the
 * activation quantizer against the per-element Quantizer reference, the
 * DAC/ADC conversion kernels against the per-element converter reference
 * and their libm-free Gaussian source (exhaustive accuracy plus moment,
 * tail and correlation statistics), the aligned Matrix storage the
 * kernels rely on, and the GEMM fork predicate (the same bits forked and
 * unforked).
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "crossbar/converters.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/quantize.h"
#include "tensor/simd.h"
#include "test_util.h"
#include "util/env.h"
#include "util/thread_pool.h"

using namespace swordfish;
using swordfish::testing::randomMatrix;
using swordfish::testing::supportedSimdLevels;

namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/** Run fn at every SIMD level the CPU supports, scalar first. */
template <typename F>
void
forEveryLevel(F&& fn)
{
    for (const SimdLevel level : supportedSimdLevels()) {
        const ScopedSimdLevel scoped(level);
        fn(level);
    }
}

/** Bit-level equality: distinguishes -0.0f from 0.0f and matches NaNs. */
bool
sameBits(float a, float b)
{
    std::uint32_t ua, ub;
    std::memcpy(&ua, &a, 4);
    std::memcpy(&ub, &b, 4);
    return ua == ub;
}

/** out[i] must agree bitwise at every level; returns the scalar result. */
template <typename F>
std::vector<float>
sameAtEveryLevel(std::size_t n, F&& run)
{
    std::vector<float> ref;
    forEveryLevel([&](SimdLevel level) {
        std::vector<float> out = run();
        if (level == SimdLevel::Scalar) {
            ref = out;
            return;
        }
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(sameBits(ref[i], out[i]))
                << "n=" << n << " i=" << i << " scalar=" << ref[i] << " "
                << simdLevelName(level) << "=" << out[i];
    });
    return ref;
}

} // namespace

TEST(SimdConfig, ParsesKnownLevels)
{
    SimdConfig cfg;
    std::string err;
    EXPECT_TRUE(SimdConfig::parse("", cfg, err));
    EXPECT_EQ(cfg.mode, SimdConfig::Mode::Auto);
    EXPECT_TRUE(SimdConfig::parse("auto", cfg, err));
    EXPECT_EQ(cfg.mode, SimdConfig::Mode::Auto);
    EXPECT_TRUE(SimdConfig::parse("scalar", cfg, err));
    EXPECT_EQ(cfg.mode, SimdConfig::Mode::Scalar);
    EXPECT_TRUE(SimdConfig::parse("avx2", cfg, err));
    EXPECT_EQ(cfg.mode, SimdConfig::Mode::Avx2);
    // Case and surrounding whitespace are forgiven, like the other knobs.
    EXPECT_TRUE(SimdConfig::parse("  AVX2 ", cfg, err));
    EXPECT_EQ(cfg.mode, SimdConfig::Mode::Avx2);
}

TEST(SimdConfig, RejectsUnknownSpecWithTypedError)
{
    SimdConfig cfg;
    std::string err;
    EXPECT_FALSE(SimdConfig::parse("sse9", cfg, err));
    EXPECT_NE(err.find("unrecognized SIMD level"), std::string::npos) << err;
    EXPECT_NE(err.find("sse9"), std::string::npos) << err;
    // AVX-512 has no spelling: "auto" picks it, and the pins are below it.
    EXPECT_FALSE(SimdConfig::parse("avx512", cfg, err));
}

TEST(SimdDispatch, ScopedOverrideAppliesAndRestores)
{
    const SimdLevel ambient = activeSimdLevel();
    {
        const ScopedSimdLevel scoped(SimdLevel::Scalar);
        EXPECT_EQ(activeSimdLevel(), SimdLevel::Scalar);
        for (const SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx512}) {
            if (!simdLevelSupported(level))
                continue;
            const ScopedSimdLevel inner(level);
            EXPECT_EQ(activeSimdLevel(), level);
        }
        EXPECT_EQ(activeSimdLevel(), SimdLevel::Scalar);
    }
    EXPECT_EQ(activeSimdLevel(), ambient);
}

TEST(SimdDispatch, AutoPicksTheHighestSupportedLevel)
{
    SimdConfig cfg;
    std::string err;
    ASSERT_TRUE(SimdConfig::parse(runtimeConfig().simd, cfg, err)) << err;
    if (cfg.mode != SimdConfig::Mode::Auto)
        GTEST_SKIP() << "SWORDFISH_SIMD pins " << cfg.name();
    EXPECT_EQ(activeSimdLevel(), supportedSimdLevels().back());
    // AVX-512 builds on AVX2, and the detection agrees with the level list.
    EXPECT_TRUE(!cpuSupportsAvx512() || cpuSupportsAvx2());
    EXPECT_EQ(simdLevelSupported(SimdLevel::Avx512), cpuSupportsAvx512());
    EXPECT_TRUE(simdLevelSupported(SimdLevel::Scalar));
}

TEST(SimdDispatch, LevelNamesRoundTrip)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx512), "avx512");
}

TEST(MatrixAlignment, StorageIsCacheLineAligned)
{
    for (const std::size_t cols : {1u, 5u, 8u, 31u, 257u}) {
        Matrix m(3, cols);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.raw().data())
                      % kMatrixAlignment,
                  0u)
            << "cols=" << cols;
        m.resize(7, cols + 1);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.raw().data())
                      % kMatrixAlignment,
                  0u);
    }
}

TEST(KernelDot, EveryLevelIsBitwiseIdentical)
{
    // Cover every tail residue and the short (<8) path.
    for (std::size_t k = 1; k <= 40; ++k) {
        const Matrix a = randomMatrix(1, k, k * 7 + 1, 2.0);
        const Matrix b = randomMatrix(1, k, k * 7 + 2, 2.0);
        sameAtEveryLevel(1, [&] {
            return std::vector<float>{
                kernels::dotBlocked(a.rowPtr(0), b.rowPtr(0), k)};
        });
    }
}

TEST(KernelDot, MatchesDoubleReference)
{
    const Matrix a = randomMatrix(1, 123, 5);
    const Matrix b = randomMatrix(1, 123, 6);
    double ref = 0.0;
    for (std::size_t i = 0; i < 123; ++i)
        ref += static_cast<double>(a.raw()[i]) * b.raw()[i];
    const float got = kernels::dotBlocked(a.rowPtr(0), b.rowPtr(0), 123);
    EXPECT_NEAR(got, ref, 1e-4 * std::max(1.0, std::fabs(ref)));
}

namespace {

/** Same bits, or both NaN (NaN payloads follow operand order). */
bool
sameBitsOrBothNan(float a, float b)
{
    return sameBits(a, b) || (std::isnan(a) && std::isnan(b));
}

/**
 * Operand of gemmBT tests: normals with ±0, subnormals and tiny values
 * whose products underflow to ±0 sprinkled in. Row rows-1 (when rows > 1)
 * also carries ±Inf, ±3e38 and a NaN, so the other rows stay finite and
 * keep their bits meaningful.
 */
Matrix
gemmOperand(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Matrix m = randomMatrix(rows, cols, seed, 1.0);
    const float quiet[] = {0.0f, -0.0f, 1e-40f, -1e-40f, 1e-30f, -1e-30f};
    for (std::size_t i = 0; i < m.size(); i += 5)
        m.raw()[i] = quiet[(i / 5 + seed) % 6];
    if (rows > 1) {
        const float loud[] = {kNan, kInf, -kInf, 3e38f, -3e38f};
        float* last = m.rowPtr(rows - 1);
        for (std::size_t c = 0; c < cols; c += 3)
            last[c] = loud[(c / 3) % 5];
    }
    return m;
}

} // namespace

TEST(KernelGemmBT, EveryLevelIsBitwiseIdentical)
{
    // Every n mod 8 below and above 8 (the 8-output passes, the 4-output
    // pass, the per-output tail), every tail residue of k, odd and even m
    // (AVX-512 runs rows in pairs and an odd last row alone), plus the
    // model's own shapes (n x k): LSTM 64x32 and 128x32, conv0 32x5, head
    // 5x32. Accumulates onto a non-zero C with ±0 and specials in it, or
    // writes a fresh C.
    std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes;
    for (const std::size_t m : {1u, 2u, 3u, 8u})
        for (const std::size_t k :
             {1u, 5u, 7u, 8u, 9u, 13u, 31u, 32u, 33u, 37u, 256u})
            for (const std::size_t n :
                 {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 13u,
                  14u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u, 128u})
                shapes.emplace_back(m, k, n);
    for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{64, 32},
                               {128, 32}, {32, 5}, {5, 32}})
        for (const std::size_t m : {6u, 7u})
            shapes.emplace_back(m, k, n);
    for (const auto& [m, k, n] : shapes) {
        const std::uint64_t seed = 1000 * m + 37 * k + n;
        const Matrix a = gemmOperand(m, k, seed);
        const Matrix b = gemmOperand(n, k, seed + 1);
        const Matrix c0 = gemmOperand(m, n, seed + 2);
        for (const bool accumulate : {false, true}) {
            Matrix ref;
            forEveryLevel([&](SimdLevel level) {
                Matrix y = c0;
                kernels::gemmBT(a, b, y, accumulate);
                ASSERT_EQ(y.rows(), m);
                ASSERT_EQ(y.cols(), n);
                if (level == SimdLevel::Scalar) {
                    ref = y;
                    return;
                }
                for (std::size_t i = 0; i < y.size(); ++i)
                    ASSERT_TRUE(sameBitsOrBothNan(ref.raw()[i], y.raw()[i]))
                        << simdLevelName(level) << " m=" << m << " k=" << k
                        << " n=" << n << " accumulate=" << accumulate
                        << " i=" << i << " scalar=" << ref.raw()[i]
                        << " got=" << y.raw()[i];
            });
        }
    }
}

TEST(KernelGemmBT, NegativeZeroLanesKeepTheirSignThroughTheTail)
{
    // Products of -1e-30 and 1e-30 underflow to -0, so with k >= 8 every
    // lane is -0 and the blocked sum is -0; accumulated onto a -0 C it
    // stays -0 only if the ragged-tail step leaves the lanes at or above
    // the tail untouched (0*0 + (-0) would make them +0).
    for (const std::size_t k : {9u, 12u, 15u, 33u, 37u}) {
        for (const std::size_t n : {5u, 8u, 13u, 16u}) {
            // Three rows: one AVX-512 row pair and an odd last row.
            Matrix a(3, k), b(n, k), c(3, n);
            std::fill(a.raw().begin(), a.raw().end(), -1e-30f);
            std::fill(b.raw().begin(), b.raw().end(), 1e-30f);
            forEveryLevel([&](SimdLevel level) {
                std::fill(c.raw().begin(), c.raw().end(), -0.0f);
                kernels::gemmBT(a, b, c, true);
                for (std::size_t i = 0; i < c.size(); ++i)
                    ASSERT_TRUE(sameBits(c.raw()[i], -0.0f))
                        << simdLevelName(level) << " k=" << k << " n=" << n
                        << " i=" << i << " got " << c.raw()[i];
            });
        }
    }
}

TEST(KernelGemmBT, AccumulateAddsOntoExistingOutput)
{
    const Matrix a = randomMatrix(4, 12, 41);
    const Matrix b = randomMatrix(6, 12, 42);
    Matrix base = randomMatrix(4, 6, 43);
    Matrix y = base;
    kernels::gemmBT(a, b, y, true);
    Matrix fresh;
    kernels::gemmBT(a, b, fresh, false);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_FLOAT_EQ(y.raw()[i], base.raw()[i] + fresh.raw()[i]);
}

namespace {

/**
 * At least two OpenMP threads for the scope, so a forking GEMM really
 * splits its rows even where OMP_NUM_THREADS or the host would give one.
 */
class TwoOmpThreadsScope
{
  public:
    TwoOmpThreadsScope()
    {
#ifdef _OPENMP
        prev_ = omp_get_max_threads();
        omp_set_num_threads(std::max(prev_, 2));
#endif
    }

    ~TwoOmpThreadsScope()
    {
#ifdef _OPENMP
        omp_set_num_threads(prev_);
#endif
    }

    TwoOmpThreadsScope(const TwoOmpThreadsScope&) = delete;
    TwoOmpThreadsScope& operator=(const TwoOmpThreadsScope&) = delete;

  private:
    int prev_ = 1;
};

/**
 * Run a GEMM of `work` multiply-adds on this (non-pool) thread, where it
 * forks exactly when work > kGemmForkWork, and again inside a pool worker,
 * where it never forks; both outputs must carry the same bits.
 */
template <typename Gemm>
void
expectForkedEqualsUnforked(std::size_t work, const Gemm& gemm)
{
    SCOPED_TRACE("work=" + std::to_string(work));
    const TwoOmpThreadsScope omp_threads;
    EXPECT_EQ(kernels::gemmForks(work), work > kernels::kGemmForkWork);
    const Matrix caller = gemm();
    ThreadPool pool(1);
    const auto [worker, worker_forks] = pool.submit([&] {
        return std::pair{gemm(), kernels::gemmForks(work)};
    }).get();
    EXPECT_FALSE(worker_forks);
    ASSERT_EQ(caller.rows(), worker.rows());
    ASSERT_EQ(caller.cols(), worker.cols());
    for (std::size_t i = 0; i < caller.size(); ++i)
        ASSERT_TRUE(sameBits(caller.raw()[i], worker.raw()[i])) << "i=" << i;
}

/** gemmOperand with every fifth element zero (gemm/gemmAT skip those). */
Matrix
sparseOperand(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Matrix m = randomMatrix(rows, cols, seed);
    for (std::size_t i = 0; i < m.size(); i += 5)
        m.raw()[i] = 0.0f;
    return m;
}

} // namespace

TEST(KernelGemmFork, GemmBTSameBitsForkedAndUnforked)
{
    // Work 2^16 (the last unforked size), 2^16 + 1 (65537 rows of k = 1,
    // the first forked one) and a stacked 8-lane LSTM input projection.
    for (const auto& [m, n, k] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{32, 64, 32},
          {65537, 1, 1}, {10400, 128, 32}}) {
        const Matrix a = randomMatrix(m, k, 201);
        const Matrix b = randomMatrix(n, k, 202);
        expectForkedEqualsUnforked(m * n * k, [&] {
            Matrix c;
            kernels::gemmBT(a, b, c, false);
            return c;
        });
    }
}

TEST(KernelGemmFork, GemmSameBitsForkedAndUnforked)
{
    // 2^16, 2^16 + 1, and the LSTM backward's dx = dz (T x 128) * W.
    for (const auto& [m, k, n] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{32, 64, 32},
          {65537, 1, 1}, {1300, 128, 32}}) {
        const Matrix a = sparseOperand(m, k, 211);
        const Matrix b = randomMatrix(k, n, 212);
        expectForkedEqualsUnforked(m * n * k, [&] {
            Matrix c;
            gemm(a, b, c);
            return c;
        });
    }
}

TEST(KernelGemmFork, GemmATSameBitsForkedAndUnforkedAndAsPOuterLoop)
{
    // 2^16, 2^16 + 1, and the LSTM weight gradient dz^T (T x 128) by the
    // input (T x 32). Rows of C now run outside the k loop; each c(i, j)
    // must still equal the historic p-outer accumulation bit for bit.
    for (const auto& [m, n, k] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{32, 64, 32},
          {65537, 1, 1}, {128, 32, 1300}}) {
        const Matrix a = sparseOperand(k, m, 221);
        const Matrix b = randomMatrix(k, n, 222);
        const Matrix c0 = randomMatrix(m, n, 223);
        expectForkedEqualsUnforked(m * n * k, [&] {
            Matrix c = c0;
            gemmAT(a, b, c, /*accumulate=*/true);
            return c;
        });

        Matrix ref = c0;
        for (std::size_t p = 0; p < k; ++p) {
            const float* arow = a.rowPtr(p);
            const float* brow = b.rowPtr(p);
            for (std::size_t i = 0; i < m; ++i) {
                const float av = arow[i];
                if (av == 0.0f)
                    continue;
                float* crow = ref.rowPtr(i);
                for (std::size_t j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
        Matrix c = c0;
        gemmAT(a, b, c, /*accumulate=*/true);
        for (std::size_t i = 0; i < c.size(); ++i)
            ASSERT_TRUE(sameBits(c.raw()[i], ref.raw()[i]))
                << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
    }
}

TEST(KernelActivations, ApproxMatchesLibmClosely)
{
    for (float x = -20.0f; x <= 20.0f; x += 0.0637f) {
        const double ref_exp = std::exp(static_cast<double>(x));
        const float e = kernels::expApproxf(x);
        EXPECT_NEAR(e, ref_exp, 2e-6 * std::max(1.0, ref_exp)) << "x=" << x;
        const float s = kernels::sigmoidApproxf(x);
        EXPECT_NEAR(s, 1.0 / (1.0 + std::exp(-static_cast<double>(x))),
                    2e-6)
            << "x=" << x;
        // Strictly positive even deep in the negative tail; the positive
        // tail saturates to exactly 1.0f, which IS the nearest float.
        EXPECT_GT(s, 0.0f);
        EXPECT_LE(s, 1.0f);
        const float t = kernels::tanhApproxf(x);
        EXPECT_NEAR(t, std::tanh(x), 4e-6) << "x=" << x;
        EXPECT_GE(t, -1.0f);
        EXPECT_LE(t, 1.0f);
    }
    // Exact fixed points and symmetry.
    EXPECT_EQ(kernels::tanhApproxf(0.0f), 0.0f);
    EXPECT_EQ(kernels::expApproxf(0.0f), 1.0f);
    EXPECT_EQ(kernels::sigmoidApproxf(0.0f), 0.5f);
    EXPECT_NEAR(kernels::sigmoidApproxf(8.0f),
                1.0f - kernels::sigmoidApproxf(-8.0f), 1e-7f);
    EXPECT_EQ(kernels::tanhApproxf(3.0f), -kernels::tanhApproxf(-3.0f));
}

TEST(KernelLstmGate, EveryLevelIsBitwiseIdentical)
{
    for (const std::size_t hidden : {1u, 3u, 8u, 13u, 24u, 40u}) {
        const Matrix zi = randomMatrix(1, 4 * hidden, hidden + 51, 1.5);
        const Matrix zr = randomMatrix(1, 4 * hidden, hidden + 52, 1.5);
        const Matrix b = randomMatrix(1, 4 * hidden, hidden + 53, 1.5);
        const Matrix c_prev = randomMatrix(1, hidden, hidden + 54);
        SCOPED_TRACE("hidden=" + std::to_string(hidden));
        sameAtEveryLevel(7 * hidden, [&] {
            std::vector<float> c(hidden), tc(hidden), h(hidden),
                gates(4 * hidden);
            kernels::lstmGateBlock(zi.rowPtr(0), zr.rowPtr(0), b.rowPtr(0),
                                   hidden, c_prev.rowPtr(0), c.data(),
                                   tc.data(), h.data(), gates.data());
            std::vector<float> flat;
            flat.insert(flat.end(), c.begin(), c.end());
            flat.insert(flat.end(), tc.begin(), tc.end());
            flat.insert(flat.end(), h.begin(), h.end());
            flat.insert(flat.end(), gates.begin(), gates.end());
            return flat;
        });
    }
}

TEST(KernelLstmGate, InPlaceCellUpdateMatchesOutOfPlace)
{
    const std::size_t hidden = 19;
    const Matrix zi = randomMatrix(1, 4 * hidden, 61);
    const Matrix zr = randomMatrix(1, 4 * hidden, 62);
    const Matrix b = randomMatrix(1, 4 * hidden, 63);
    const Matrix c0 = randomMatrix(1, hidden, 64);
    std::vector<float> c_sep(hidden), h_sep(hidden);
    kernels::lstmGateBlock(zi.rowPtr(0), zr.rowPtr(0), b.rowPtr(0), hidden,
                           c0.rowPtr(0), c_sep.data(), nullptr,
                           h_sep.data(), nullptr);
    std::vector<float> c_alias(c0.rowPtr(0), c0.rowPtr(0) + hidden);
    std::vector<float> h_alias(hidden);
    kernels::lstmGateBlock(zi.rowPtr(0), zr.rowPtr(0), b.rowPtr(0), hidden,
                           c_alias.data(), c_alias.data(), nullptr,
                           h_alias.data(), nullptr);
    for (std::size_t j = 0; j < hidden; ++j) {
        EXPECT_TRUE(sameBits(c_sep[j], c_alias[j])) << j;
        EXPECT_TRUE(sameBits(h_sep[j], h_alias[j])) << j;
    }
}

TEST(KernelArgmax, MatchesNaiveFirstMaxScan)
{
    for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 31u, 64u, 100u}) {
        const Matrix row = randomMatrix(1, n, n + 71);
        std::size_t naive = 0;
        for (std::size_t i = 1; i < n; ++i)
            if (row.raw()[i] > row.raw()[naive])
                naive = i;
        forEveryLevel([&](SimdLevel level) {
            EXPECT_EQ(kernels::argmaxRow(row.rowPtr(0), n), naive)
                << "n=" << n << " level=" << simdLevelName(level);
        });
    }
}

TEST(KernelArgmax, TiesResolveToLowestIndexAtEveryLevel)
{
    std::vector<float> v(24, 0.25f);
    v[5] = 1.0f;
    v[13] = 1.0f; // same stripe family as 5 mod 8
    v[21] = 1.0f;
    Matrix row(1, v.size(), std::vector<float>(v));
    forEveryLevel([&](SimdLevel) {
        EXPECT_EQ(kernels::argmaxRow(row.rowPtr(0), row.cols()), 5u);
    });
}

TEST(KernelArgmax, NanRowsAgreeAcrossLevels)
{
    // NaN-poisoned rows have no universally "right" answer; the contract
    // is only that every level agrees bitwise.
    for (std::size_t pos = 0; pos < 20; ++pos) {
        Matrix row = randomMatrix(1, 20, pos + 81);
        row.raw()[pos] = kNan;
        std::size_t ref = 0;
        forEveryLevel([&](SimdLevel level) {
            const std::size_t got = kernels::argmaxRow(row.rowPtr(0), 20);
            if (level == SimdLevel::Scalar)
                ref = got;
            EXPECT_EQ(got, ref)
                << "NaN at " << pos << " " << simdLevelName(level);
        });
    }
}

TEST(KernelRowMax, MatchesMaxElementAndAgreesAcrossLevels)
{
    for (const std::size_t n : {1u, 4u, 8u, 9u, 26u, 130u}) {
        const Matrix row = randomMatrix(1, n, n + 91);
        float expect = row.raw()[0];
        for (std::size_t i = 1; i < n; ++i)
            expect = std::max(expect, row.raw()[i]);
        forEveryLevel([&](SimdLevel level) {
            EXPECT_TRUE(sameBits(kernels::rowMax(row.rowPtr(0), n), expect))
                << "n=" << n << " level=" << simdLevelName(level);
        });
    }
}

TEST(KernelAbsMax, MatchesSequentialScan)
{
    EXPECT_EQ(kernels::absMaxRange(nullptr, 0), 0.0f);
    for (const std::size_t n : {1u, 5u, 8u, 17u, 64u, 333u}) {
        const Matrix v = randomMatrix(1, n, n + 101, 3.0);
        float expect = 0.0f;
        for (std::size_t i = 0; i < n; ++i)
            expect = std::max(expect, std::fabs(v.raw()[i]));
        forEveryLevel([&](SimdLevel level) {
            EXPECT_TRUE(
                sameBits(kernels::absMaxRange(v.rowPtr(0), n), expect))
                << "n=" << n << " level=" << simdLevelName(level);
        });
    }
}

// ---------------------------------------------------------------------------
// Activation quantizer
// ---------------------------------------------------------------------------

namespace {

/** Top level of the b-bit Quantizer grid, 2^(b-1) - 1. */
float
maxLevelFor(int bits)
{
    return static_cast<float>((1u << (bits - 1)) - 1);
}

/**
 * n quantizer inputs at `scale`: uniform over ±1.5 full scales, so some
 * lie beyond ±(maxLevel+1)·scale, then exact half-LSB ties (exact when
 * scale is a power of two), rail neighbours, ±0, subnormals, ±Inf and NaN
 * at fixed positions (later ones win on short rows).
 */
std::vector<float>
quantizeInputs(std::size_t n, float scale, float max_level,
               std::uint64_t seed)
{
    Rng rng(seed);
    const double span = 1.5 * (static_cast<double>(max_level) + 1.0) * scale;
    std::vector<float> v(n);
    for (float& x : v)
        x = static_cast<float>(rng.uniform(-span, span));
    const float specials[] = {
        3.5f * scale, -2.5f * scale, 0.5f * scale, -0.5f * scale,
        (max_level + 0.5f) * scale, -(max_level + 0.5f) * scale,
        -(max_level + 1.5f) * scale, (max_level + 7.0f) * scale,
        0.0f, -0.0f, 1e-40f, -1e-40f, kInf, -kInf, kNan};
    for (std::size_t i = 0; i < std::size(specials); ++i)
        v[(i * 7) % n] = specials[i];
    return v;
}

/** The Table 3 activation widths the quantizer kernel is checked at. */
const int kQuantBits[] = {2, 4, 8, 16};

/** quantizeRows at the active level on a copy of v. */
std::vector<float>
quantizedCopy(std::vector<float> v, float scale, float max_level)
{
    kernels::quantizeRows(v.data(), v.size(), scale, max_level);
    return v;
}

} // namespace

TEST(KernelQuantize, EveryLevelIsBitwiseIdentical)
{
    for (const int bits : kQuantBits) {
        const float max_level = maxLevelFor(bits);
        for (const std::size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
            for (const float scale : {0.015625f, 0.7f / max_level}) {
                const std::vector<float> in =
                    quantizeInputs(n, scale, max_level, 17 * n + bits);
                sameAtEveryLevel(n, [&] {
                    return quantizedCopy(in, scale, max_level);
                });
            }
        }
    }
}

TEST(KernelQuantize, MatchesPerElementReferenceAtEveryLevel)
{
    for (const int bits : kQuantBits) {
        const Quantizer q(bits);
        const float max_level = maxLevelFor(bits);
        for (const float scale : {0.015625f, 0.7f / max_level}) {
            const std::vector<float> in =
                quantizeInputs(257, scale, max_level, 900 + bits);
            forEveryLevel([&](SimdLevel level) {
                const std::vector<float> out =
                    quantizedCopy(in, scale, max_level);
                for (std::size_t i = 0; i < in.size(); ++i)
                    EXPECT_TRUE(sameBits(out[i], q.apply(in[i], scale)))
                        << simdLevelName(level) << " bits=" << bits
                        << " scale=" << scale << " in=" << in[i]
                        << " got=" << out[i]
                        << " ref=" << q.apply(in[i], scale);
            });
        }
        // Ties round to even; NaN clamps to the bottom rail, ±Inf to the
        // rails; -0 keeps its sign.
        const float s = 0.25f;
        EXPECT_EQ(q.apply(0.125f, s), 0.0f);
        EXPECT_EQ(q.apply(0.375f, s), bits > 2 ? 0.5f : 0.25f);
        EXPECT_EQ(q.apply(kNan, s), (-max_level - 1.0f) * s);
        EXPECT_EQ(q.apply(kInf, s), max_level * s);
        EXPECT_EQ(q.apply(-kInf, s), (-max_level - 1.0f) * s);
        EXPECT_TRUE(sameBits(q.apply(-0.0f, s), -0.0f));
    }
}

TEST(KernelQuantize, ApplyRowsOnStackedOperandEqualsPerLaneApply)
{
    // Lanes of 3, 1 and 5 rows at different magnitudes (so different
    // scales), one carrying NaN/Inf: each lane's rows of the stacked
    // operand must come out exactly as apply(Matrix&) on the lane alone,
    // and apply(std::vector&) must agree with apply(Matrix&).
    const std::size_t cols = 13;
    const std::size_t lane_rows[] = {3, 1, 5};
    const float lane_sigma[] = {0.2f, 3.0f, 40.0f};
    for (const int bits : kQuantBits) {
        const Quantizer q(bits);
        forEveryLevel([&](SimdLevel level) {
            std::vector<Matrix> lanes;
            Matrix stacked(9, cols);
            std::size_t row = 0;
            for (std::size_t l = 0; l < 3; ++l) {
                Matrix m = randomMatrix(lane_rows[l], cols, 70 + l,
                                        lane_sigma[l]);
                if (l == 2) {
                    m(1, 4) = kNan;
                    m(3, 0) = -kInf;
                    m(4, 12) = -0.0f;
                }
                std::copy(m.raw().begin(), m.raw().end(),
                          stacked.rowPtr(row));
                row += lane_rows[l];
                lanes.push_back(std::move(m));
            }
            row = 0;
            for (std::size_t l = 0; l < 3; ++l) {
                q.applyRows(stacked, row, row + lane_rows[l]);
                std::vector<float> as_vector(lanes[l].raw().begin(),
                                             lanes[l].raw().end());
                q.apply(lanes[l]);
                q.apply(as_vector);
                for (std::size_t i = 0; i < lanes[l].size(); ++i) {
                    const float expect = lanes[l].raw()[i];
                    EXPECT_TRUE(
                        sameBits(stacked.rowPtr(row)[i], expect))
                        << simdLevelName(level) << " bits=" << bits
                        << " lane=" << l << " i=" << i;
                    EXPECT_TRUE(sameBits(as_vector[i], expect));
                }
                row += lane_rows[l];
            }
        });
    }
}

TEST(KernelPeak, PeakProbeReportsConsistentFlopCount)
{
    // 8 accumulators x 2 flops per fma x the level's float lanes.
    const double lanes[] = {1.0, 8.0, 16.0};
    for (const SimdLevel level : supportedSimdLevels())
        EXPECT_EQ(kernels::peakFmaFlops(1000, level),
                  1000.0 * 8 * 2 * lanes[static_cast<int>(level)])
            << simdLevelName(level);
}

// ---------------------------------------------------------------------------
// Conversion kernels (DAC / noisy ADC) and their Gaussian source
// ---------------------------------------------------------------------------

namespace {

/** The block lengths the conversion twins are compared at. */
const std::size_t kConvertLengths[] = {1, 7, 8, 15, 16, 17, 63, 64, 65, 511};

std::vector<std::uint64_t>
randomWords(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> w(count);
    for (std::uint64_t& v : w)
        v = rng();
    return w;
}

/** A word carrying u1 = j * 2^-24 (j in [1, 2^24]) and angle bits u2. */
std::uint64_t
makeWord(std::uint32_t j, std::uint32_t u2)
{
    return (static_cast<std::uint64_t>(j - 1) << 40)
        | (static_cast<std::uint64_t>(u2) << 16) | 0xbeefu;
}

/** A noisy 7-bit ADC transfer like the default AdcModel's. */
kernels::AdcTransfer
testAdc()
{
    kernels::AdcTransfer a;
    a.range = 2.5f;
    a.maxCode = 127.0f;
    a.step = 2.0f * a.range / a.maxCode;
    a.gain = 1.013f;
    a.offset = 0.3f * a.step;
    a.noiseScale = 0.2f * a.step;
    return a;
}

/** Uniform inputs over [-lo_hi, lo_hi] with non-finite and edge values. */
std::vector<float>
convertInputs(std::size_t n, float lo_hi, float edge, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (float& x : v)
        x = static_cast<float>(rng.uniform(-lo_hi, lo_hi));
    const float specials[] = {kNan, kInf, -kInf, edge, -edge, 0.0f, -0.0f};
    for (std::size_t i = 0; i < n && i < 7; ++i)
        v[(i * 37) % n] = specials[i];
    return v;
}

} // namespace

TEST(KernelConvert, GaussEveryLevelIsBitwiseIdentical)
{
    for (const std::size_t count : {1u, 7u, 8u, 9u, 16u, 23u, 257u}) {
        const std::vector<std::uint64_t> w = randomWords(count, count + 5);
        sameAtEveryLevel(2 * count, [&] {
            std::vector<float> out(2 * count);
            kernels::gaussFromWords(w.data(), count, out.data());
            return out;
        });
    }
}

TEST(KernelConvert, AdcEveryLevelIsBitwiseIdentical)
{
    const kernels::AdcTransfer adc = testAdc();
    for (const std::size_t n : kConvertLengths) {
        const std::vector<float> y =
            convertInputs(n, 1.2f * adc.range, adc.range, n);
        const std::vector<std::uint64_t> w =
            randomWords(kernels::adcNoiseWords(n), n + 100);
        sameAtEveryLevel(n, [&] {
            std::vector<float> out = y;
            kernels::adcConvertRows(out.data(), n, adc, w.data(), 1.7f);
            return out;
        });
    }
}

TEST(KernelConvert, AdcEveryLengthModThirtyTwoAgreesAtEveryLevel)
{
    // Every n up to 97: each residue of AVX-512's 32-element step (and of
    // AVX2's 16) over zero to three full steps, with NaN, ±Inf, ±range,
    // ±0 and beyond-range inputs (uniform over ±1.2 range), accumulated
    // values given from an offset into a larger buffer.
    const kernels::AdcTransfer adc = testAdc();
    for (std::size_t n = 1; n <= 97; ++n) {
        const std::vector<float> y =
            convertInputs(n, 1.2f * adc.range, adc.range, 300 + n);
        const std::vector<std::uint64_t> w =
            randomWords(kernels::adcNoiseWords(n), 400 + n);
        sameAtEveryLevel(n, [&] {
            std::vector<float> out = y;
            kernels::adcConvertRows(out.data(), n, adc, w.data(), 0.6f);
            return out;
        });
    }
}

TEST(KernelConvert, DacEveryLevelIsBitwiseIdentical)
{
    const crossbar::DacModel dac(crossbar::DacConfig{}, 3, 0.6);
    for (const std::size_t n : kConvertLengths) {
        const std::vector<float> x = convertInputs(n, 1.3f, 1.0f, n + 7);
        sameAtEveryLevel(n, [&] {
            std::vector<float> out(n);
            dac.convertRows(x.data(), out.data(), n);
            return out;
        });
        sameAtEveryLevel(n, [&] {
            std::vector<float> out = x;
            dac.convertRows(out.data(), out.data(), n);
            return out;
        });
    }
}

TEST(KernelConvert, DacRowsMatchPerElementReferenceBitwise)
{
    // Every code boundary: the midpoint between adjacent code values and
    // one ulp either side, where an inexact lround emulation would flip a
    // code; plus the range ends and non-finite inputs. 3 bits takes the
    // AVX-512 body's one-register table, 5 bits both registers, 6 and 8
    // bits the gather.
    for (const int bits : {3, 5, 6, 8}) {
        crossbar::DacConfig cfg;
        cfg.bits = bits;
        const crossbar::DacModel dac(cfg, 11, 0.4);
        const float codes = static_cast<float>((1 << bits) - 1);
        const float step = 2.0f / codes;
        std::vector<float> x = {-1.0f, 1.0f, kInf, -kInf, kNan, 0.0f,
                                -0.0f, 2.0f, -2.0f};
        for (float c = 0.0f; c < codes; c += 1.0f) {
            const float mid = -1.0f + (c + 0.5f) * step;
            x.push_back(mid);
            x.push_back(std::nextafter(mid, kInf));
            x.push_back(std::nextafter(mid, -kInf));
        }
        forEveryLevel([&](SimdLevel) {
            std::vector<float> out(x.size());
            dac.convertRows(x.data(), out.data(), x.size());
            for (std::size_t i = 0; i < x.size(); ++i)
                EXPECT_TRUE(sameBits(out[i], dac.convert(x[i])))
                    << "bits=" << bits << " x=" << x[i];
        });
    }
}

TEST(KernelConvert, NonFiniteInputsKeepConverterSemantics)
{
    // NaN takes the bottom code (lround(NaN) saturated to code 0); ±Inf
    // clamp to the range ends.
    const crossbar::DacModel dac(crossbar::DacConfig{}, 5, 0.5);
    EXPECT_TRUE(sameBits(dac.convert(kNan), dac.convert(-1.0f)));
    EXPECT_TRUE(sameBits(dac.convert(kInf), dac.convert(1.0f)));
    EXPECT_TRUE(sameBits(dac.convert(-kInf), dac.convert(-1.0f)));

    const kernels::AdcTransfer adc = testAdc();
    const float scale = 0.75f;
    const float top = std::fmaf(adc.maxCode, adc.step, -adc.range) * scale;
    forEveryLevel([&](SimdLevel) {
        std::vector<float> x = {kNan, kInf, -kInf};
        std::vector<float> y = x;
        dac.convertRows(x.data(), x.data(), x.size());
        EXPECT_TRUE(sameBits(x[0], dac.convert(-1.0f)));
        EXPECT_TRUE(sameBits(x[1], dac.convert(1.0f)));
        EXPECT_TRUE(sameBits(x[2], dac.convert(-1.0f)));

        const std::vector<std::uint64_t> w = randomWords(2, 9);
        kernels::adcConvertRows(y.data(), y.size(), adc, w.data(), scale);
        EXPECT_EQ(y[0], -adc.range * scale);
        EXPECT_EQ(y[1], top);
        EXPECT_EQ(y[2], -adc.range * scale);
    });
}

TEST(KernelConvert, AdcDrawsHalfAWordPerElementInElementOrder)
{
    // One lane span of n outputs takes ⌈n/2⌉ consecutive words from its
    // stream; word k feeds elements 2k (r cos θ) and 2k+1 (r sin θ).
    crossbar::AdcConfig cfg;
    cfg.bits = 20;           // fine grid: the output is y + noise
    cfg.noiseSigmaLsb = 1e4; // noise sigma = 1e4 LSB ~ 0.0095
    cfg.gainSigma = 0.0;
    cfg.offsetSigmaLsb = 0.0;
    const crossbar::AdcModel adc(cfg, 3, 0.5);
    // LSB = 2 * range / (2^bits - 1), with range 0.5.
    const float step = 1.0f / static_cast<float>((1 << 20) - 1);
    const float sigma = 1e4f * step;
    for (const std::size_t n : {1u, 2u, 17u, 64u, 1101u}) {
        Rng rng(40 + n), mirror(40 + n);
        std::vector<float> y(n, 0.0f);
        adc.convertRows(y.data(), n, 1.0f, rng);
        std::vector<std::uint64_t> expect_words((n + 1) / 2);
        for (std::uint64_t& w : expect_words)
            w = mirror();
        EXPECT_EQ(rng(), mirror()) << "stream advanced by ⌈n/2⌉ words";
        std::vector<float> z(2 * expect_words.size());
        kernels::gaussFromWords(expect_words.data(), expect_words.size(),
                                z.data());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(y[i], z[i] * sigma, 1e-6f) << "n=" << n << " i=" << i;
    }
}

TEST(KernelConvert, IdealConvertersDrawNothing)
{
    const crossbar::AdcModel adc(crossbar::AdcConfig{}, 4, 10.0,
                                 /*ideal=*/true);
    Rng rng(1), mirror(1);
    std::vector<float> y = {3.21f, -1.5f, 0.25f};
    adc.convertRows(y.data(), y.size(), 2.0f, rng);
    EXPECT_EQ(rng(), mirror());
    EXPECT_EQ(y, (std::vector<float>{6.42f, -3.0f, 0.5f}));
}

TEST(KernelGauss, RadiusMatchesDoubleBoxMullerForEveryU1)
{
    // All 2^24 values of u1, at angle 0 (cos = 1 and sin = 0 exactly).
    constexpr std::uint32_t kChunk = 1u << 20;
    std::vector<std::uint64_t> w(kChunk);
    std::vector<float> out(2 * kChunk);
    double worst = 0.0;
    float max_r = 0.0f;
    for (std::uint32_t base = 1; base <= (1u << 24); base += kChunk) {
        for (std::uint32_t k = 0; k < kChunk; ++k)
            w[k] = makeWord(base + k, 0);
        kernels::gaussFromWords(w.data(), kChunk, out.data());
        for (std::uint32_t k = 0; k < kChunk; ++k) {
            const double u1 = static_cast<double>(base + k) * 0x1.0p-24;
            const double r = std::sqrt(-2.0 * std::log(u1));
            ASSERT_EQ(out[2 * k + 1], 0.0f);
            ASSERT_GE(out[2 * k], 0.0f) << "u1=" << u1;
            worst = std::max(worst, std::fabs(out[2 * k] - r)
                                 / std::max(r, 1e-3));
            max_r = std::max(max_r, out[2 * k]);
        }
    }
    EXPECT_LT(worst, 2e-6);
    // The truncation point: r at u1 = 2^-24.
    EXPECT_NEAR(max_r, std::sqrt(48.0 * std::numbers::ln2), 1e-5);
    EXPECT_LE(max_r, 5.77f);
}

TEST(KernelGauss, AngleMatchesDoubleBoxMullerForEveryU2)
{
    // All 2^24 angles at u1 = e^-1/2 rounded to the grid (r ~ 1).
    const auto j = static_cast<std::uint32_t>(std::lround(
        std::exp(-0.5) * 0x1.0p24));
    const double u1 = static_cast<double>(j) * 0x1.0p-24;
    const double r = std::sqrt(-2.0 * std::log(u1));
    constexpr std::uint32_t kChunk = 1u << 20;
    std::vector<std::uint64_t> w(kChunk);
    std::vector<float> out(2 * kChunk);
    double worst = 0.0;
    for (std::uint32_t base = 0; base < (1u << 24); base += kChunk) {
        for (std::uint32_t k = 0; k < kChunk; ++k)
            w[k] = makeWord(j, base + k);
        kernels::gaussFromWords(w.data(), kChunk, out.data());
        for (std::uint32_t k = 0; k < kChunk; ++k) {
            const double theta = 2.0 * std::numbers::pi
                * static_cast<double>(base + k) * 0x1.0p-24;
            worst = std::max({worst,
                              std::fabs(out[2 * k] - r * std::cos(theta)),
                              std::fabs(out[2 * k + 1]
                                        - r * std::sin(theta))});
        }
    }
    EXPECT_LT(worst, 1e-6);
}

namespace {

/** 10^7 normals from two fixed seeds, made once for the stats tests. */
const std::vector<float>&
normalSample()
{
    static const std::vector<float> sample = [] {
        constexpr std::size_t kWordsPerSeed = 2'500'000;
        std::vector<float> z;
        z.reserve(4 * kWordsPerSeed);
        std::vector<float> chunk(2 * kWordsPerSeed);
        for (const std::uint64_t seed : {101u, 202u}) {
            const std::vector<std::uint64_t> w =
                randomWords(kWordsPerSeed, seed);
            kernels::gaussFromWords(w.data(), w.size(), chunk.data());
            z.insert(z.end(), chunk.begin(), chunk.end());
        }
        return z;
    }();
    return sample;
}

/** Pearson correlation of a[i] with b[i] over i in [0, n). */
double
correlation(const std::vector<double>& a, const std::vector<double>& b)
{
    const auto n = static_cast<double>(a.size());
    double ma = 0.0, mb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ma += a[i];
        mb += b[i];
    }
    ma /= n;
    mb /= n;
    double sab = 0.0, saa = 0.0, sbb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sab += (a[i] - ma) * (b[i] - mb);
        saa += (a[i] - ma) * (a[i] - ma);
        sbb += (b[i] - mb) * (b[i] - mb);
    }
    return sab / std::sqrt(saa * sbb);
}

/** Upper tail of the standard normal, both sides: P(|z| > t). */
double
twoSidedTail(double t)
{
    return std::erfc(t / std::numbers::sqrt2);
}

} // namespace

TEST(KernelGaussStats, MomentsMatchStandardNormal)
{
    const std::vector<float>& z = normalSample();
    const auto n = static_cast<double>(z.size());
    double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
    for (const float v : z) {
        const double d = v, d2 = d * d;
        m1 += d;
        m2 += d2;
        m3 += d2 * d;
        m4 += d2 * d2;
    }
    m1 /= n;
    m2 /= n;
    m3 /= n;
    m4 /= n;
    const double var = m2 - m1 * m1;
    const double skew = (m3 - 3.0 * m1 * m2 + 2.0 * m1 * m1 * m1)
        / std::pow(var, 1.5);
    const double kurt = (m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2
                         - 3.0 * m1 * m1 * m1 * m1)
        / (var * var);
    // Five standard errors of each sample moment of N(0, 1).
    EXPECT_NEAR(m1, 0.0, 5.0 * std::sqrt(1.0 / n)) << "mean";
    EXPECT_NEAR(var, 1.0, 5.0 * std::sqrt(2.0 / n)) << "variance";
    EXPECT_NEAR(skew, 0.0, 5.0 * std::sqrt(6.0 / n)) << "skewness";
    EXPECT_NEAR(kurt, 3.0, 5.0 * std::sqrt(24.0 / n)) << "kurtosis";
}

TEST(KernelGaussStats, TailsMatchNormalAndTruncateAt577Sigma)
{
    const std::vector<float>& z = normalSample();
    const auto n = static_cast<double>(z.size());
    double beyond3 = 0.0, beyond4 = 0.0;
    float max_abs = 0.0f;
    for (const float v : z) {
        const float a = std::fabs(v);
        beyond3 += a > 3.0f ? 1.0 : 0.0;
        beyond4 += a > 4.0f ? 1.0 : 0.0;
        max_abs = std::max(max_abs, a);
    }
    for (const auto& [count, t] : {std::pair{beyond3, 3.0},
                                   std::pair{beyond4, 4.0}}) {
        const double p = twoSidedTail(t);
        EXPECT_NEAR(count / n, p, 5.0 * std::sqrt(p * (1.0 - p) / n))
            << "P(|z| > " << t << ")";
    }
    EXPECT_LE(max_abs, 5.77f);
}

TEST(KernelGaussStats, NoSerialOrWithinWordCorrelation)
{
    const std::vector<float>& z = normalSample();
    const std::size_t n = z.size();
    const double bound = 5.0 / std::sqrt(static_cast<double>(n));
    for (const std::size_t lag : {1u, 2u}) {
        std::vector<double> a(z.begin(), z.end() - lag);
        std::vector<double> b(z.begin() + lag, z.end());
        EXPECT_NEAR(correlation(a, b), 0.0, bound) << "lag " << lag;
    }
    // The two normals of one word share r: uncorrelated, and (as two
    // independent normals) so are their squares.
    std::vector<double> c, s, c2, s2;
    for (std::size_t k = 0; k + 1 < n; k += 2) {
        c.push_back(z[k]);
        s.push_back(z[k + 1]);
        c2.push_back(static_cast<double>(z[k]) * z[k]);
        s2.push_back(static_cast<double>(z[k + 1]) * z[k + 1]);
    }
    const double pair_bound = 5.0 / std::sqrt(static_cast<double>(c.size()));
    EXPECT_NEAR(correlation(c, s), 0.0, pair_bound);
    EXPECT_NEAR(correlation(c2, s2), 0.0, 2.0 * pair_bound);
}
