/**
 * @file
 * Kernel microbenchmarks (google-benchmark) plus the roofline report.
 *
 * Default mode runs the google-benchmark suite over the hot computational
 * paths — GEMM (also at the model's own short-k shapes, one thread), ideal
 * vs. non-ideal crossbar VMM (serial and batched), the fused LSTM gate
 * block, the DAC and noisy ADC row kernels, CTC loss and decode, and banded
 * alignment.
 *
 * `--roofline` switches to a self-contained report: it measures the
 * machine's practical peak FMA throughput (scalar and AVX2) and streaming
 * bandwidth once, then times each hot kernel at both SIMD levels and emits
 * one JSON line per (kernel, level, batch) point with achieved GFLOPs and
 * the fraction of the matching ceiling — the format EXPERIMENTS.md §roofline
 * documents and CI diffs against bench/roofline_baseline.json:
 *
 *   micro_kernels --roofline [--quick] [--baseline FILE] [--out FILE]
 *
 * With --baseline, the run exits 1 when any kernel's frac_peak drops below
 * 0.8x its baseline value (a >20% regression), and 2 when a baseline line
 * names a kernel (at its batch) the report measures at no level.
 */

#include <benchmark/benchmark.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "crossbar/crossbar.h"
#include "genomics/align.h"
#include "genomics/dataset.h"
#include "nn/ctc.h"
#include "tensor/kernels.h"
#include "tensor/lanes.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "util/rng.h"

using namespace swordfish;

namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Matrix m(rows, cols);
    Rng rng(seed);
    for (float& v : m.raw())
        v = static_cast<float>(rng.gauss(0.0, 0.5));
    return m;
}

/** Stacked batch operand: `lanes` lanes of `rows_per_lane` rows each. */
BatchLayout
uniformLayout(std::size_t lanes, std::size_t rows_per_lane)
{
    BatchLayout layout;
    for (std::size_t l = 0; l < lanes; ++l)
        layout.push_back({l, rows_per_lane});
    return layout;
}

void
BM_GemmBT(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const Matrix x = randomMatrix(128, n, 1);
    const Matrix w = randomMatrix(4 * n, n, 2);
    Matrix y;
    for (auto _ : state) {
        gemmBT(x, w, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * 128 * n * 4 * n);
}
BENCHMARK(BM_GemmBT)->Arg(32)->Arg(64)->Arg(128);

/**
 * One OpenMP thread for the scope: a shape above kernels::kGemmForkWork
 * called from this (non-pool) thread would otherwise fork a team, and a
 * per-shape time should be the per-row kernel's, as pool workers run it.
 */
class SerialOmpScope
{
  public:
    SerialOmpScope()
    {
#ifdef _OPENMP
        prev_ = omp_get_max_threads();
        omp_set_num_threads(1);
#endif
    }

    ~SerialOmpScope()
    {
#ifdef _OPENMP
        omp_set_num_threads(prev_);
#endif
    }

    SerialOmpScope(const SerialOmpScope&) = delete;
    SerialOmpScope& operator=(const SerialOmpScope&) = delete;

  private:
    int prev_ = 1;
};

/**
 * gemmBT at BonitoLite's own short-k shapes per SIMD level, on one thread:
 * the recurrent tile step of a 1-, 2- and 6-lane group (1x64x32, 2x64x32,
 * 6x64x32; the first two show the fixed per-call cost), a stacked LSTM
 * projection (1024x128x32) and conv0 (1024x32x5). Args: m, n, k,
 * SimdLevel int.
 */
void
BM_GemmBTShape(benchmark::State& state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto n = static_cast<std::size_t>(state.range(1));
    const auto k = static_cast<std::size_t>(state.range(2));
    const auto level = static_cast<SimdLevel>(state.range(3));
    if (level == SimdLevel::Avx2 && !cpuSupportsAvx2()) {
        state.SkipWithError("CPU lacks AVX2/FMA");
        return;
    }
    const ScopedSimdLevel scoped(level);
    const SerialOmpScope serial;
    const Matrix x = randomMatrix(m, k, 1);
    const Matrix w = randomMatrix(n, k, 2);
    Matrix y(m, n); // accumulated into, as the VMM paths call it
    for (auto _ : state) {
        gemmBT(x, w, y, /*accumulate=*/true);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(m * n * k));
}
BENCHMARK(BM_GemmBTShape)
    ->ArgNames({"m", "n", "k", "avx2"})
    ->Args({1, 64, 32, 0})->Args({1, 64, 32, 1})
    ->Args({2, 64, 32, 0})->Args({2, 64, 32, 1})
    ->Args({6, 64, 32, 0})->Args({6, 64, 32, 1})
    ->Args({1024, 128, 32, 0})->Args({1024, 128, 32, 1})
    ->Args({1024, 32, 5, 0})->Args({1024, 32, 5, 1});

void
BM_CrossbarVmmFast(benchmark::State& state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    crossbar::CrossbarConfig config;
    config.size = size;
    const Matrix w = randomMatrix(size, size, 3);
    const crossbar::CrossbarTile tile(
        config, w, 0.0f, crossbar::NoiseToggles::combined(), 7);
    const Matrix x = randomMatrix(128, size, 4);
    Rng rng(5);
    for (auto _ : state) {
        Matrix y = tile.vmmFast(x, rng);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_CrossbarVmmFast)->Arg(64)->Arg(256);

/**
 * Batched multi-lane VMM per (batch size, SIMD level): the scalar-vs-AVX2
 * delta per batch. Arg 0 = lanes, arg 1 = SimdLevel int.
 */
void
BM_BatchedVmmLanes(benchmark::State& state)
{
    const auto lanes = static_cast<std::size_t>(state.range(0));
    const auto level = static_cast<SimdLevel>(state.range(1));
    if (level == SimdLevel::Avx2 && !cpuSupportsAvx2()) {
        state.SkipWithError("CPU lacks AVX2/FMA");
        return;
    }
    const ScopedSimdLevel scoped(level);
    constexpr std::size_t kSize = 256, kRowsPerLane = 16;
    crossbar::CrossbarConfig config;
    config.size = kSize;
    const Matrix w = randomMatrix(kSize, kSize, 3);
    const crossbar::CrossbarTile tile(
        config, w, 0.0f, crossbar::NoiseToggles::allOff(), 7);
    const Matrix x = randomMatrix(lanes * kRowsPerLane, kSize, 4);
    const BatchLayout layout = uniformLayout(lanes, kRowsPerLane);
    std::vector<Rng> rngs;
    std::vector<Rng*> rng_ptrs;
    for (std::size_t l = 0; l < lanes; ++l)
        rngs.emplace_back(100 + l);
    for (auto& r : rngs)
        rng_ptrs.push_back(&r);
    crossbar::VmmScratch scratch;
    for (auto _ : state) {
        tile.vmm(x, layout, rng_ptrs.data(), scratch);
        benchmark::DoNotOptimize(scratch.y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(2 * lanes
                                                        * kRowsPerLane
                                                        * kSize * kSize));
}
BENCHMARK(BM_BatchedVmmLanes)
    ->Args({1, 0})->Args({1, 1})
    ->Args({4, 0})->Args({4, 1})
    ->Args({8, 0})->Args({8, 1});

/** Fused LSTM gate block per (batch size, SIMD level). */
void
BM_LstmGate(benchmark::State& state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    const auto level = static_cast<SimdLevel>(state.range(1));
    if (level == SimdLevel::Avx2 && !cpuSupportsAvx2()) {
        state.SkipWithError("CPU lacks AVX2/FMA");
        return;
    }
    const ScopedSimdLevel scoped(level);
    constexpr std::size_t kHidden = 256;
    const Matrix zi = randomMatrix(batch, 4 * kHidden, 11);
    const Matrix zr = randomMatrix(batch, 4 * kHidden, 12);
    const Matrix b = randomMatrix(1, 4 * kHidden, 13);
    Matrix c(batch, kHidden), h(batch, kHidden);
    for (auto _ : state) {
        for (std::size_t l = 0; l < batch; ++l)
            kernels::lstmGateBlock(zi.rowPtr(l), zr.rowPtr(l), b.rowPtr(0),
                                   kHidden, c.rowPtr(l), c.rowPtr(l),
                                   nullptr, h.rowPtr(l), nullptr);
        benchmark::DoNotOptimize(h.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(batch * kHidden));
}
BENCHMARK(BM_LstmGate)
    ->Args({1, 0})->Args({1, 1})
    ->Args({4, 0})->Args({4, 1})
    ->Args({8, 0})->Args({8, 1});

/** Inputs and noise words of one conversion block of n elements. */
struct ConvertBlock
{
    std::vector<float> x;
    std::vector<float> y;
    std::vector<std::uint64_t> words;

    ConvertBlock(std::size_t n, float range, std::uint64_t seed)
        : x(n), y(n), words(kernels::adcNoiseWords(n))
    {
        Rng rng(seed);
        for (float& v : x)
            v = static_cast<float>(rng.uniform(-range, range));
        for (std::uint64_t& w : words)
            w = rng();
    }
};

/** The default 7-bit noisy ADC at unit range (AdcModel's transfer). */
kernels::AdcTransfer
benchAdc()
{
    kernels::AdcTransfer a;
    a.maxCode = 127.0f;
    a.step = 2.0f / a.maxCode;
    a.gain = 1.01f;
    a.offset = 0.3f * a.step;
    a.noiseScale = 0.2f * a.step;
    return a;
}

/**
 * Fused noisy ADC row kernel per (block length, SIMD level), noise words
 * pre-drawn: the per-element conversion cost without the stream draw.
 */
void
BM_AdcConvertRows(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto level = static_cast<SimdLevel>(state.range(1));
    if (level == SimdLevel::Avx2 && !cpuSupportsAvx2()) {
        state.SkipWithError("CPU lacks AVX2/FMA");
        return;
    }
    const ScopedSimdLevel scoped(level);
    ConvertBlock block(n, 1.2f, 31);
    const kernels::AdcTransfer adc = benchAdc();
    for (auto _ : state) {
        block.y = block.x;
        kernels::adcConvertRows(block.y.data(), n, adc, block.words.data(),
                                1.5f);
        benchmark::DoNotOptimize(block.y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdcConvertRows)
    ->Args({256, 0})->Args({256, 1})
    ->Args({2048, 0})->Args({2048, 1});

/** Table-lookup DAC row kernel per (block length, SIMD level). */
void
BM_DacConvertRows(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto level = static_cast<SimdLevel>(state.range(1));
    if (level == SimdLevel::Avx2 && !cpuSupportsAvx2()) {
        state.SkipWithError("CPU lacks AVX2/FMA");
        return;
    }
    const ScopedSimdLevel scoped(level);
    ConvertBlock block(n, 1.2f, 32);
    const crossbar::DacModel dac(crossbar::DacConfig{}, 7, 0.5);
    for (auto _ : state) {
        dac.convertRows(block.x.data(), block.y.data(), n);
        benchmark::DoNotOptimize(block.y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DacConvertRows)
    ->Args({256, 0})->Args({256, 1})
    ->Args({2048, 0})->Args({2048, 1});

void
BM_CrossbarProgram(benchmark::State& state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    crossbar::CrossbarConfig config;
    config.size = size;
    const Matrix w = randomMatrix(size, size, 3);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        crossbar::CrossbarTile tile(
            config, w, 0.0f, crossbar::NoiseToggles::combined(), ++seed);
        benchmark::DoNotOptimize(tile.effectiveWeights().data());
    }
}
BENCHMARK(BM_CrossbarProgram)->Arg(64)->Arg(256);

void
BM_CtcLoss(benchmark::State& state)
{
    const Matrix logits = randomMatrix(128, 5, 6);
    std::vector<int> target;
    Rng rng(7);
    for (int i = 0; i < 50; ++i)
        target.push_back(static_cast<int>(rng.range(1, 4)));
    for (auto _ : state) {
        auto res = nn::ctcLoss(logits, target);
        benchmark::DoNotOptimize(res.loss);
    }
}
BENCHMARK(BM_CtcLoss);

void
BM_CtcGreedyDecode(benchmark::State& state)
{
    const Matrix logits = randomMatrix(2048, 5, 8);
    for (auto _ : state) {
        auto seq = nn::ctcGreedyDecode(logits);
        benchmark::DoNotOptimize(seq.data());
    }
}
BENCHMARK(BM_CtcGreedyDecode);

void
BM_BandedAlignment(benchmark::State& state)
{
    Rng rng(9);
    const auto len = static_cast<std::size_t>(state.range(0));
    genomics::Sequence a = genomics::generateGenome(len, 0.5, rng);
    genomics::Sequence b = a;
    for (std::size_t i = 0; i < b.size(); i += 37)
        b[i] = static_cast<std::uint8_t>((b[i] + 1) % 4);
    for (auto _ : state) {
        auto res = genomics::alignGlobal(a, b);
        benchmark::DoNotOptimize(res.matches);
    }
}
BENCHMARK(BM_BandedAlignment)->Arg(400)->Arg(1000);

void
BM_SquiggleSimulation(benchmark::State& state)
{
    const genomics::PoreModel pore;
    Rng rng(10);
    const genomics::Sequence seq = genomics::generateGenome(400, 0.5, rng);
    const genomics::SignalParams params;
    for (auto _ : state) {
        auto signal = pore.simulate(seq, params, rng);
        benchmark::DoNotOptimize(signal.data());
    }
}
BENCHMARK(BM_SquiggleSimulation);

// ---------------------------------------------------------------------------
// Roofline report
// ---------------------------------------------------------------------------

/** Best-of timing: repeat fn until the budget is spent, keep the minimum. */
template <typename F>
double
bestSeconds(F&& fn, double budget_s)
{
    using Clock = std::chrono::steady_clock;
    fn(); // warmup
    double best = 1e300, spent = 0.0;
    do {
        const auto t0 = Clock::now();
        fn();
        const double dt =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (dt < best)
            best = dt;
        spent += dt;
    } while (spent < budget_s);
    return best;
}

struct RooflinePoint
{
    std::string kernel;
    std::string level; ///< "scalar" / "avx2" / "mem"
    std::size_t batch = 0; ///< 0 = not batched
    double rate = 0.0;     ///< GFLOPs / GOPS / GB/s
    const char* unit = "gflops";
    double fracPeak = 0.0; ///< achieved / matching ceiling
};

struct RooflineReport
{
    std::vector<RooflinePoint> points;
    std::vector<std::string> lines;

    void
    add(RooflinePoint p)
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"bench\":\"roofline\",\"kernel\":\"%s\","
                      "\"level\":\"%s\",\"batch\":%zu,\"%s\":%.4f,"
                      "\"frac_peak\":%.4f}",
                      p.kernel.c_str(), p.level.c_str(), p.batch, p.unit,
                      p.rate, p.fracPeak);
        lines.push_back(buf);
        points.push_back(std::move(p));
    }

    void
    addSpeedup(const std::string& kernel, std::size_t batch, double speedup)
    {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "{\"bench\":\"roofline_speedup\",\"kernel\":\"%s\","
                      "\"batch\":%zu,\"speedup\":%.3f}",
                      kernel.c_str(), batch, speedup);
        lines.push_back(buf);
    }
};

/** Pull a "key":<number> field out of a JSON line; fallback if absent. */
double
jsonNum(const std::string& line, const std::string& key, double fallback)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return fallback;
    return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

/** Pull a "key":"value" field out of a JSON line. */
std::string
jsonStr(const std::string& line, const std::string& key)
{
    const std::string needle = "\"" + key + "\":\"";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return {};
    const auto start = pos + needle.size();
    const auto end = line.find('"', start);
    return line.substr(start, end - start);
}

int
runRoofline(bool quick, const std::string& baseline_path,
            const std::string& out_path)
{
    const double budget = quick ? 0.03 : 0.2;
    const std::size_t peak_iters = quick ? 400000 : 4000000;
    const bool avx2_ok = cpuSupportsAvx2();
    RooflineReport report;

    // --- Ceilings: practical peak FMA rate per level, streaming bandwidth.
    double peak[2] = {0.0, 0.0};
    for (int lvl = 0; lvl <= (avx2_ok ? 1 : 0); ++lvl) {
        double flops = 0.0;
        const double secs = bestSeconds(
            [&] { flops = kernels::peakFmaFlops(peak_iters, lvl == 1); },
            budget);
        peak[lvl] = flops / secs / 1e9;
        report.add({"peak_fma", simdLevelName(static_cast<SimdLevel>(lvl)),
                    0, peak[lvl], "gflops", 1.0});
    }

    const std::size_t triad_n = quick ? 1u << 21 : 1u << 23;
    FloatVec ta(triad_n, 1.0f), tb(triad_n, 2.0f), tc(triad_n, 0.0f);
    const double triad_secs = bestSeconds(
        [&] {
            for (std::size_t i = 0; i < triad_n; ++i)
                tc[i] = ta[i] + 0.5f * tb[i];
        },
        budget);
    volatile float sink = tc[triad_n / 2];
    (void)sink;
    const double gbps =
        static_cast<double>(3 * sizeof(float) * triad_n) / triad_secs / 1e9;
    report.add({"triad", "mem", 0, gbps, "gbps", 1.0});

    const auto levels = [&](auto&& fn) {
        for (int lvl = 0; lvl <= (avx2_ok ? 1 : 0); ++lvl) {
            const auto level = static_cast<SimdLevel>(lvl);
            const ScopedSimdLevel scoped(level);
            fn(level);
        }
    };

    // One unbatched point per level: `flops` per call of fn, normalized
    // against that level's FMA peak, plus the AVX2-over-scalar speedup.
    const auto flopsPoint = [&](const char* kernel, double flops, auto&& fn) {
        double scalar_secs = 0.0;
        levels([&](SimdLevel level) {
            const double secs = bestSeconds(fn, budget);
            const double rate = flops / secs / 1e9;
            report.add({kernel, simdLevelName(level), 0, rate, "gflops",
                        rate / peak[static_cast<int>(level)]});
            if (level == SimdLevel::Scalar)
                scalar_secs = secs;
            else
                report.addSpeedup(kernel, 0, scalar_secs / secs);
        });
    };

    // --- gemmBT: the projection / VMM workhorse, 2k flops per output.
    {
        const std::size_t m = 128, k = 256, n = 1024;
        const Matrix x = randomMatrix(m, k, 1);
        const Matrix w = randomMatrix(n, k, 2);
        Matrix y;
        flopsPoint("gemm_bt", 2.0 * static_cast<double>(m * k * n),
                   [&] { gemmBT(x, w, y); });
    }

    // --- gemmBT at the model's short-k shapes (report-only: no baseline
    //     entry), on one OpenMP thread like the pool workers and
    //     accumulating into C as the VMM paths do. At k = 256 the
    //     per-output reduction is amortized; at the model's k it is not.
    //     2k flops per output element:
    //       gemm_bt_k32 64 = a stacked LSTM projection, 1024 x 128, k = 32;
    //       gemm_bt_k5  10 = conv0, 1024 x 32, k = 5.
    {
        const SerialOmpScope serial;
        struct Shape
        {
            const char* kernel;
            std::size_t m, n, k;
        };
        for (const Shape& s : {Shape{"gemm_bt_k32", 1024, 128, 32},
                               Shape{"gemm_bt_k5", 1024, 32, 5}}) {
            const Matrix x = randomMatrix(s.m, s.k, 1);
            const Matrix w = randomMatrix(s.n, s.k, 2);
            Matrix y(s.m, s.n);
            flopsPoint(s.kernel, 2.0 * static_cast<double>(s.m * s.n * s.k),
                       [&] { gemmBT(x, w, y, /*accumulate=*/true); });
        }
    }

    // --- Activation quantizer (report-only: no baseline entry) over one
    //     lane's 128 x 32 activations at 8 bits. 5 nominal flops per
    //     element: divide, round, max, min, multiply. Values on the grid
    //     are re-quantized in place; the op count does not depend on them.
    {
        constexpr std::size_t kElems = 128 * 32;
        constexpr double kQuantFlopsPerElement = 5.0;
        Matrix act = randomMatrix(1, kElems, 41);
        const float scale = act.absMax() / 127.0f;
        flopsPoint("quantize_rows",
                   kQuantFlopsPerElement * static_cast<double>(kElems), [&] {
                       kernels::quantizeRows(act.data(), kElems, scale,
                                             127.0f);
                   });
    }

    // --- Batched multi-lane VMM (noise toggles off: pure compute path).
    {
        constexpr std::size_t kSize = 256, kRowsPerLane = 16;
        crossbar::CrossbarConfig config;
        config.size = kSize;
        const Matrix w = randomMatrix(kSize, kSize, 3);
        const crossbar::CrossbarTile tile(
            config, w, 0.0f, crossbar::NoiseToggles::allOff(), 7);
        for (const std::size_t lanes : {std::size_t{1}, std::size_t{4},
                                        std::size_t{8}}) {
            const Matrix x = randomMatrix(lanes * kRowsPerLane, kSize, 4);
            const BatchLayout layout = uniformLayout(lanes, kRowsPerLane);
            std::vector<Rng> rngs;
            for (std::size_t l = 0; l < lanes; ++l)
                rngs.emplace_back(100 + l);
            std::vector<Rng*> rng_ptrs;
            for (auto& r : rngs)
                rng_ptrs.push_back(&r);
            crossbar::VmmScratch scratch;
            const double flops = 2.0
                * static_cast<double>(lanes * kRowsPerLane * kSize * kSize);
            double scalar_secs = 0.0;
            levels([&](SimdLevel level) {
                const double secs = bestSeconds(
                    [&] { tile.vmm(x, layout, rng_ptrs.data(), scratch); },
                    budget);
                const int lvl = static_cast<int>(level);
                report.add({"vmm_batched", simdLevelName(level), lanes,
                            flops / secs / 1e9, "gflops",
                            flops / secs / 1e9 / peak[lvl]});
                if (level == SimdLevel::Scalar)
                    scalar_secs = secs;
                else
                    report.addSpeedup("vmm_batched", lanes,
                                      scalar_secs / secs);
            });
        }
    }

    // --- Fused LSTM gate block (transcendental-heavy elementwise path).
    {
        constexpr std::size_t kHidden = 256;
        // Nominal flop count per gate unit (pre-adds, 3 sigmoids + 2 tanh
        // at ~12 flops each, cell/hidden update) — fixed so frac_peak is
        // comparable across runs.
        constexpr double kGateFlopsPerUnit = 80.0;
        for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                        std::size_t{8}}) {
            const Matrix zi = randomMatrix(batch, 4 * kHidden, 11);
            const Matrix zr = randomMatrix(batch, 4 * kHidden, 12);
            const Matrix b = randomMatrix(1, 4 * kHidden, 13);
            Matrix c(batch, kHidden), h(batch, kHidden);
            const double flops =
                kGateFlopsPerUnit * static_cast<double>(batch * kHidden);
            double scalar_secs = 0.0;
            levels([&](SimdLevel level) {
                const double secs = bestSeconds(
                    [&] {
                        for (std::size_t l = 0; l < batch; ++l)
                            kernels::lstmGateBlock(
                                zi.rowPtr(l), zr.rowPtr(l), b.rowPtr(0),
                                kHidden, c.rowPtr(l), c.rowPtr(l), nullptr,
                                h.rowPtr(l), nullptr);
                    },
                    budget);
                const int lvl = static_cast<int>(level);
                report.add({"lstm_gate", simdLevelName(level), batch,
                            flops / secs / 1e9, "gflops",
                            flops / secs / 1e9 / peak[lvl]});
                if (level == SimdLevel::Scalar)
                    scalar_secs = secs;
                else
                    report.addSpeedup("lstm_gate", batch,
                                      scalar_secs / secs);
            });
        }
    }

    // --- DAC / noisy ADC conversion row kernels (report-only: no
    //     baseline entry). Nominal flops per element, fixed so frac_peak
    //     is comparable across runs, counting an fma as 2 and a compare,
    //     min, max, round or sqrt as 1:
    //       adc_convert 44 = 27 for half a Box-Muller word (u1 scale, the
    //         log split and degree-8 polynomial, -2x, sqrt, angle scale,
    //         sin/cos polynomials, r cos / r sin) + 17 for gain/offset,
    //         noise, clamp, (v + range) / step, round-half-up, code clamp,
    //         code -> value, lane rescale; noise words pre-drawn;
    //       dac_convert 9 = clamp, (x + 1) / step, round-half-up, code
    //         clamp, plus one table gather.
    {
        constexpr std::size_t kElems = 2048;
        constexpr double kAdcFlopsPerElement = 44.0;
        constexpr double kDacFlopsPerElement = 9.0;
        ConvertBlock block(kElems, 1.2f, 33);
        const kernels::AdcTransfer adc = benchAdc();
        const crossbar::DacModel dac(crossbar::DacConfig{}, 7, 0.5);
        const auto elems = static_cast<double>(kElems);
        double adc_scalar = 0.0, dac_scalar = 0.0;
        levels([&](SimdLevel level) {
            const int lvl = static_cast<int>(level);
            const double adc_secs = bestSeconds(
                [&] {
                    block.y = block.x;
                    kernels::adcConvertRows(block.y.data(), kElems, adc,
                                            block.words.data(), 1.5f);
                },
                budget);
            const double adc_rate =
                kAdcFlopsPerElement * elems / adc_secs / 1e9;
            report.add({"adc_convert", simdLevelName(level), 0, adc_rate,
                        "gflops", adc_rate / peak[lvl]});
            const double dac_secs = bestSeconds(
                [&] {
                    dac.convertRows(block.x.data(), block.y.data(), kElems);
                },
                budget);
            const double dac_rate =
                kDacFlopsPerElement * elems / dac_secs / 1e9;
            report.add({"dac_convert", simdLevelName(level), 0, dac_rate,
                        "gflops", dac_rate / peak[lvl]});
            if (level == SimdLevel::Scalar) {
                adc_scalar = adc_secs;
                dac_scalar = dac_secs;
            } else {
                report.addSpeedup("adc_convert", 0, adc_scalar / adc_secs);
                report.addSpeedup("dac_convert", 0, dac_scalar / dac_secs);
            }
        });
    }

    // --- CTC argmax scan (bandwidth-bound; normalized against triad).
    {
        const std::size_t rows = 2048, n = 512;
        const Matrix logits = randomMatrix(rows, n, 8);
        const double bytes =
            static_cast<double>(rows * n) * sizeof(float);
        double scalar_secs = 0.0;
        levels([&](SimdLevel level) {
            const double secs = bestSeconds(
                [&] {
                    std::size_t acc = 0;
                    for (std::size_t t = 0; t < rows; ++t)
                        acc += kernels::argmaxRow(logits.rowPtr(t), n);
                    volatile std::size_t s = acc;
                    (void)s;
                },
                budget);
            report.add({"ctc_argmax", simdLevelName(level), 0,
                        bytes / secs / 1e9, "gbps",
                        bytes / secs / 1e9 / gbps});
            if (level == SimdLevel::Scalar)
                scalar_secs = secs;
            else
                report.addSpeedup("ctc_argmax", 0, scalar_secs / secs);
        });
    }

    for (const std::string& line : report.lines)
        std::printf("%s\n", line.c_str());
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        for (const std::string& line : report.lines)
            out << line << "\n";
        if (!out) {
            std::fprintf(stderr, "roofline: failed to write %s\n",
                         out_path.c_str());
            return 2;
        }
    }

    // --- Regression gate vs the checked-in baseline: each baseline point
    //     must retain at least 80% of its frac_peak.
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::fprintf(stderr, "roofline: cannot open baseline %s\n",
                         baseline_path.c_str());
            return 2;
        }
        int failures = 0, stale = 0;
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("\"roofline\"") == std::string::npos)
                continue;
            const std::string kernel = jsonStr(line, "kernel");
            const std::string level = jsonStr(line, "level");
            if (kernel.empty() || kernel == "peak_fma" || kernel == "triad")
                continue;
            const auto batch = static_cast<std::size_t>(
                jsonNum(line, "batch", 0.0));
            const double base_frac = jsonNum(line, "frac_peak", 0.0);
            if (base_frac <= 0.0)
                continue;
            const RooflinePoint* match = nullptr;
            bool measured = false;
            for (const RooflinePoint& p : report.points) {
                if (p.kernel != kernel || p.batch != batch)
                    continue;
                measured = true;
                if (p.level == level)
                    match = &p;
            }
            if (!measured) {
                // No point at any level: the kernel was deleted or
                // renamed, so its baseline line is stale and must go.
                std::fprintf(stderr,
                             "roofline: STALE baseline %s batch=%zu: no "
                             "such point in the report\n",
                             kernel.c_str(), batch);
                ++stale;
                continue;
            }
            if (match == nullptr) {
                // A missing level (e.g. avx2 baseline on a scalar-only
                // host) is a skip, not a regression.
                continue;
            }
            if (match->fracPeak < 0.8 * base_frac) {
                std::fprintf(stderr,
                             "roofline: REGRESSION %s/%s batch=%zu: "
                             "frac_peak %.4f < 0.8 * baseline %.4f\n",
                             kernel.c_str(), level.c_str(), batch,
                             match->fracPeak, base_frac);
                ++failures;
            }
        }
        if (stale > 0)
            return 2;
        if (failures > 0)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    bool roofline = false, quick = false;
    std::string baseline, out;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--roofline") == 0)
            roofline = true;
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc)
            baseline = argv[++i];
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out = argv[++i];
    }
    if (roofline)
        return runRoofline(quick, baseline, out);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
