#include "converters.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace swordfish::crossbar {

DacModel::DacModel(const DacConfig& config, std::uint64_t seed,
                   double line_load_factor, bool ideal)
    : config_(config), ideal_(ideal)
{
    const long codes = 1L << config_.bits;
    step_ = 2.0f / static_cast<float>(codes - 1); // values span [-1, 1]
    // The driver sees a load floor even on a lightly-programmed array
    // (select transistors, line capacitance), so droop never vanishes.
    droopGain_ = config_.rLoadDroop
        * (0.3 + 0.7 * std::clamp(line_load_factor, 0.0, 1.0));

    if (!ideal_) {
        // Static INL profile: smooth low-order bow plus random per-code
        // deviations, a standard DAC INL shape.
        Rng rng(hashSeed({seed, 0xdacdacULL}));
        const double bow = rng.gauss(0.0, config_.inlSigmaLsb);
        inl_.resize(static_cast<std::size_t>(codes));
        for (long c = 0; c < codes; ++c) {
            const double frac = static_cast<double>(c)
                / static_cast<double>(codes - 1);
            const double smooth = bow * std::sin(M_PI * frac);
            const double local = rng.gauss(0.0,
                                           config_.inlSigmaLsb * 0.35);
            inl_[static_cast<std::size_t>(c)] =
                static_cast<float>((smooth + local) * step_);
        }
        levels_.resize(inl_.size());
        for (long c = 0; c < codes; ++c)
            levels_[static_cast<std::size_t>(c)] = level(c);
    }
}

float
DacModel::level(long code) const
{
    // An explicit fma: the -march=native release build contracts
    // `-1.0f + code * step_` into one, and spelling it out keeps every
    // call site and the per-code table on exactly those bits.
    float v = std::fmaf(static_cast<float>(code), step_, -1.0f);
    v += inl_[static_cast<std::size_t>(code)];
    // R_load droop compresses the delivered voltage toward zero.
    v *= static_cast<float>(1.0 - droopGain_);
    return v;
}

float
DacModel::convert(float x) const
{
    if (ideal_)
        return x;
    const float clipped = std::clamp(x, -1.0f, 1.0f);
    long code = static_cast<long>(std::lround((clipped + 1.0f) / step_));
    code = std::clamp<long>(code, 0, static_cast<long>(inl_.size()) - 1);
    return level(code);
}

void
DacModel::convertRows(const float* x, float* out, std::size_t n) const
{
    if (ideal_) {
        if (out != x)
            std::copy(x, x + n, out);
        return;
    }
    kernels::dacConvertRows(
        x, out, n,
        {levels_.data(), step_, static_cast<float>(levels_.size() - 1)});
}

AdcModel::AdcModel(const AdcConfig& config, std::uint64_t seed,
                   double range, bool ideal)
    : ideal_(ideal)
{
    range = std::max(range, 1e-9);
    const long codes = 1L << config.bits;
    const auto step =
        static_cast<float>(2.0 * range / static_cast<double>(codes - 1));
    Rng rng(hashSeed({seed, 0xadcadcULL}));
    transfer_.gain =
        static_cast<float>(1.0 + rng.gauss(0.0, config.gainSigma));
    transfer_.offset = static_cast<float>(
        rng.gauss(0.0, config.offsetSigmaLsb) * step);
    transfer_.noiseScale = static_cast<float>(config.noiseSigmaLsb) * step;
    transfer_.range = static_cast<float>(range);
    transfer_.step = step;
    transfer_.maxCode = static_cast<float>(codes - 1);
}

void
AdcModel::convertRows(float* y, std::size_t n, float scale, Rng& rng) const
{
    if (ideal_) {
        for (std::size_t i = 0; i < n; ++i)
            y[i] *= scale;
        return;
    }
    // The words are drawn block by block into a stack buffer: the same
    // consecutive words, in the same order, as one draw for the whole span
    // (element i always takes word i / 2), with no span-sized buffer. The
    // block length is a multiple of the kernel's 16-element step.
    constexpr std::size_t kBlock = 512;
    std::array<std::uint64_t, kernels::adcNoiseWords(kBlock)> words;
    for (std::size_t i = 0; i < n; i += kBlock) {
        const std::size_t m = std::min(kBlock, n - i);
        const std::size_t count = kernels::adcNoiseWords(m);
        for (std::size_t k = 0; k < count; ++k)
            words[k] = rng();
        kernels::adcConvertRows(y + i, m, transfer_, words.data(), scale);
    }
}

} // namespace swordfish::crossbar
