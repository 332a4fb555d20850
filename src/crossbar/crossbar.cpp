#include "crossbar.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "util/logging.h"

namespace swordfish::crossbar {

CrossbarTile::CrossbarTile(const CrossbarConfig& config,
                           const Matrix& weights, float abs_max,
                           const NoiseToggles& toggles, std::uint64_t seed,
                           const ExtendedNoise& extended)
    : config_(config), extended_(extended),
      ideal_(weights),
      absMax_(abs_max > 0.0f ? abs_max : weights.absMax())
{
    if (weights.rows() > config.size || weights.cols() > config.size)
        panic("CrossbarTile: sub-matrix ", weights.rows(), "x",
              weights.cols(), " exceeds array size ", config.size);
    if (absMax_ <= 0.0f)
        absMax_ = 1.0f;
    buildEffectiveWeights(toggles, seed);
}

void
CrossbarTile::buildEffectiveWeights(const NoiseToggles& toggles,
                                    std::uint64_t seed)
{
    const std::size_t out = ideal_.rows();
    const std::size_t in = ideal_.cols();
    Rng rng(hashSeed({seed, 0x7135bafULL}));

    // Step 1 (paper Fig. 5 steps 3-4): digital weights -> conductances,
    // through the (possibly quantized, nonlinear) device state map.
    DeviceConfig device = config_.device;
    if (!toggles.conductanceQuant)
        device.conductanceLevels = 1 << 20; // effectively continuous
    const ConductanceMapper mapper(device);
    ConductancePair pair = mapper.map(ideal_, absMax_);

    // Step 2 (Fig. 5 step 5): synaptic (write/process) variation —
    // lognormal multiplicative conductance error, clamped to the device
    // range.
    if (toggles.writeVariation) {
        const double sigma = effectiveWriteSigma(
            config_.scheme, config_.writeVariationRate,
            config_.verifyIterations);
        // Relative (state-proportional) term plus an absolute error floor
        // over the conductance span: both are present in characterized
        // devices, and the absolute term is what corrupts near-gMin
        // states (i.e., small weights).
        const double add_sigma = sigma * config_.writeVariationAddFactor
            * (device.gMax - device.gMin);
        auto perturb = [&](Matrix& g) {
            for (float& v : g.raw()) {
                const double noisy = static_cast<double>(v)
                    * rng.logNormal(0.0, sigma)
                    + rng.gauss(0.0, add_sigma);
                v = static_cast<float>(std::clamp(noisy, device.gMin,
                                                  device.gMax));
            }
        };
        perturb(pair.gPos);
        perturb(pair.gNeg);
    }

    // Extended composable sources (NoiseModel layer) perturb the
    // conductances next. When every source is off this is branch-free
    // no-op territory — zero extra RNG draws — which is what keeps the
    // legacy presets bitwise identical to the pre-NoiseModel code.
    if (extended_.any())
        applyExtendedNoise(pair, device, seed);

    effective_ = Matrix(out, in);
    for (std::size_t i = 0; i < effective_.size(); ++i)
        effective_.raw()[i] = pair.scale
            * (pair.gPos.raw()[i] - pair.gNeg.raw()[i]);

    // Step 3 (Fig. 5 step 7): wire IR-drop — position-dependent
    // attenuation that grows with line loading and distance from the
    // driver/sense amp (first-order fast-crossbar model).
    // Mean conductance loading per line (normalized to [0, 2] for the
    // differential pair), so attenuation scales linearly with line length
    // rather than quadratically.
    std::vector<double> row_load(in, 0.0); // load on each input line
    std::vector<double> col_load(out, 0.0);// load on each output line
    for (std::size_t o = 0; o < out; ++o) {
        for (std::size_t i = 0; i < in; ++i) {
            const double g_sum = pair.gPos(o, i) + pair.gNeg(o, i);
            row_load[i] += g_sum / config_.device.gMax
                / static_cast<double>(out);
            col_load[o] += g_sum / config_.device.gMax
                / static_cast<double>(in);
        }
    }
    if (toggles.wireResistance) {
        const double r_seg = config_.wire.segmentResistanceRatio;
        for (std::size_t o = 0; o < out; ++o) {
            for (std::size_t i = 0; i < in; ++i) {
                const double distance =
                    static_cast<double>(o + 1) * row_load[i]
                    + static_cast<double>(in - i) * col_load[o];
                const double alpha = 1.0 / (1.0 + r_seg * distance);
                effective_(o, i) *= static_cast<float>(alpha);
            }
        }
    }

    // Sneak-path leakage coefficients, one per output column (weight-space
    // equivalent current added in vmm()).
    colSneak_.assign(out, 0.0f);
    if (toggles.sneakPaths) {
        for (std::size_t o = 0; o < out; ++o)
            colSneak_[o] = static_cast<float>(
                config_.wire.sneakCoefficient * col_load[o] * absMax_);
    }

    // Converter instances (die-to-die static profiles are seeded per tile).
    double mean_load = 0.0;
    for (double l : row_load)
        mean_load += l;
    mean_load /= static_cast<double>(in) * 2.0; // normalize to [0, 1]
    dac_.emplace(config_.dac, hashSeed({seed, 1}), mean_load,
                 !toggles.dacNonideal);
    const double range = config_.adc.rangeFactor
        * static_cast<double>(absMax_)
        * std::sqrt(static_cast<double>(in));
    adc_.emplace(config_.adc, hashSeed({seed, 2}), range,
                 !toggles.adcNonideal);
}

void
CrossbarTile::applyExtendedNoise(ConductancePair& pair,
                                 const DeviceConfig& device,
                                 std::uint64_t seed)
{
    const std::size_t out = ideal_.rows();
    const std::size_t in = ideal_.cols();
    const ExtendedNoise& ext = extended_;
    Matrix* devices[2] = {&pair.gPos, &pair.gNeg};

    // Per-source stream tags: every source keys its own stream off
    // (tileSeed, tag, row, col[, device half]), so compositions are
    // order-free and enabling one source never shifts another's draws.
    // The tile seed already folds (runSeed, weight, tile, epoch).
    constexpr std::uint64_t kCorrelatedTag = 0x5c0441e1a7edULL;
    constexpr std::uint64_t kRtnTag = 0x47e1e94a9ULL;
    constexpr std::uint64_t kThermalTag = 0x7d4177ab1eULL;

    // Fixed physical application order: write-time process gradient, then
    // the trap snapshot, then operating-time wearout (read disturb,
    // thermal retention loss).
    if (ext.cwrite.enabled()) {
        const CorrelatedField field(out, in, ext.cwrite.lengthCells,
                                    hashSeed({seed, kCorrelatedTag}));
        for (std::size_t o = 0; o < out; ++o) {
            for (std::size_t i = 0; i < in; ++i) {
                // The differential pair sits at the same die location, so
                // the process gradient scales both halves coherently.
                const double factor =
                    std::exp(ext.cwrite.sigma * field.value(o, i));
                for (Matrix* g : devices)
                    (*g)(o, i) = static_cast<float>(
                        std::clamp(static_cast<double>((*g)(o, i)) * factor,
                                   device.gMin, device.gMax));
            }
        }
    }
    if (ext.rtn.enabled()) {
        const double occ = rtnOccupancy(ext.rtn);
        for (std::size_t d = 0; d < 2; ++d) {
            Matrix& g = *devices[d];
            for (std::size_t o = 0; o < out; ++o) {
                for (std::size_t i = 0; i < in; ++i) {
                    Rng cell(hashSeed({seed, kRtnTag, o, i, d}));
                    const double f =
                        rtnTrapFactor(ext.rtn, cell.bernoulli(occ));
                    g(o, i) = static_cast<float>(
                        std::clamp(static_cast<double>(g(o, i)) * f,
                                   device.gMin, device.gMax));
                }
            }
        }
    }
    if (ext.disturb.enabled()) {
        const double f = readDisturbFactor(ext.disturb);
        for (Matrix* g : devices)
            for (float& v : g->raw())
                v = static_cast<float>(
                    device.gMin
                    + (static_cast<double>(v) - device.gMin) * f);
    }
    if (ext.tdrift.enabled()) {
        for (std::size_t d = 0; d < 2; ++d) {
            Matrix& g = *devices[d];
            for (std::size_t o = 0; o < out; ++o) {
                for (std::size_t i = 0; i < in; ++i) {
                    Rng cell(hashSeed({seed, kThermalTag, o, i, d}));
                    const double nu = std::max(
                        0.0,
                        cell.gauss(ext.tdrift.nu, ext.tdrift.nuSigma));
                    const double f = thermalDriftFactor(ext.tdrift, nu);
                    float& v = g(o, i);
                    v = static_cast<float>(
                        device.gMin
                        + (static_cast<double>(v) - device.gMin) * f);
                }
            }
        }
    }
}

Matrix
CrossbarTile::vmmFast(const Matrix& x, Rng& rng) const
{
    const BatchLayout one_lane{{0, x.rows()}};
    Rng* const rngs[] = {&rng};
    VmmScratch scratch;
    vmm(x, one_lane, rngs, scratch);
    return std::move(scratch.y);
}

void
CrossbarTile::vmm(const Matrix& x, const BatchLayout& layout,
                  Rng* const* lane_rngs, VmmScratch& scratch,
                  const std::vector<CrossbarTile>* extras) const
{
    if (x.cols() != ideal_.cols())
        panic("CrossbarTile::vmm: input width ", x.cols(),
              " != tile fan-in ", ideal_.cols());
    if (layoutRows(layout) != x.rows())
        panic("CrossbarTile::vmm: layout rows ", layoutRows(layout),
              " != input rows ", x.rows());

    // Dynamic input scaling: the driver normalizes each lane's chunk to
    // [-1, 1] by the lane's own absmax (dynamic fixed point), converts,
    // and the result is rescaled after the ADC. The scale table and xn
    // live in caller scratch and are fully overwritten per call, so
    // neither pays a per-call allocation or clear.
    std::vector<float>& scales = scratch.laneScales;
    scales.resize(layout.size());
    Matrix& xn = scratch.xn;
    xn.resizeUninit(x.rows(), x.cols());
    std::size_t row = 0;
    for (std::size_t l = 0; l < layout.size(); ++l) {
        const std::size_t count = layout[l].rows * x.cols();
        const float* src = x.raw().data() + row * x.cols();
        // Same kernel as Matrix::absMax(), so a one-lane call scales
        // exactly as the whole operand would.
        float x_scale = kernels::absMaxRange(src, count);
        if (x_scale <= 0.0f)
            x_scale = 1.0f;
        scales[l] = x_scale;
        const float inv = 1.0f / x_scale;
        float* dst = xn.raw().data() + row * x.cols();
        for (std::size_t i = 0; i < count; ++i)
            dst[i] = src[i] * inv;
        row += layout[l].rows;
    }

    // Analog domain: a tile's DAC-converted input through its effective
    // weights plus its sneak leakage, accumulated into y.
    Matrix& y = scratch.y;
    y.resizeUninit(x.rows(), effective_.rows());
    y.zero(); // accumulation target
    const auto add_response = [&y](const CrossbarTile& tile,
                                   const Matrix& xd) {
        gemmBT(xd, tile.effective_, y, /*accumulate=*/true);
        if (std::none_of(tile.colSneak_.begin(), tile.colSneak_.end(),
                         [](float v) { return v != 0.0f; }))
            return;
        for (std::size_t t = 0; t < y.rows(); ++t) {
            const float* xrow = xd.rowPtr(t);
            float mean_abs = 0.0f;
            for (std::size_t i = 0; i < xd.cols(); ++i)
                mean_abs += std::fabs(xrow[i]);
            mean_abs /= static_cast<float>(xd.cols());
            float* yrow = y.rowPtr(t);
            for (std::size_t o = 0; o < y.cols(); ++o)
                yrow[o] += tile.colSneak_[o] * mean_abs;
        }
    };
    if (extras == nullptr || extras->empty()) {
        // No replicas: the DAC converts in place and the GEMM lands
        // straight in y.
        dac_->convertRows(xn.raw().data(), xn.raw().data(), xn.size());
        add_response(*this, xn);
    } else {
        // Every replica applies its own DAC instance to the shared
        // normalized input; the replica currents are then averaged in
        // the analog domain.
        const auto add_replica = [&](const CrossbarTile& tile) {
            if (tile.dac_->isIdeal()) {
                add_response(tile, xn);
                return;
            }
            Matrix& xd = scratch.xd;
            xd.resizeUninit(xn.rows(), xn.cols());
            tile.dac_->convertRows(xn.raw().data(), xd.raw().data(),
                                   xn.size());
            add_response(tile, xd);
        };
        add_replica(*this);
        for (const CrossbarTile& rep : *extras)
            add_replica(rep);
        const float inv_k = 1.0f / static_cast<float>(extras->size() + 1);
        for (float& v : y.raw())
            v *= inv_k;
    }

    // One shared ADC pass, each lane converting its rows in one call on
    // its own stream, which also restores the lane's input scale.
    row = 0;
    for (std::size_t l = 0; l < layout.size(); ++l) {
        adc_->convertRows(y.raw().data() + row * y.cols(),
                          layout[l].rows * y.cols(), scales[l],
                          *lane_rngs[l]);
        row += layout[l].rows;
    }
}

std::vector<float>
CrossbarTile::vmmCircuit(const std::vector<float>& x, Rng& rng) const
{
    if (x.size() != ideal_.cols())
        panic("CrossbarTile::vmmCircuit: input size mismatch");

    float x_scale = 0.0f;
    for (float v : x)
        x_scale = std::max(x_scale, std::fabs(v));
    if (x_scale <= 0.0f)
        x_scale = 1.0f;

    // Per-cell accumulation, one input line at a time — the "current sum"
    // view of the same computation vmm() does with a GEMM.
    std::vector<float> voltages(x.size());
    float mean_abs = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
        float v = x[i] / x_scale;
        if (!dac_->isIdeal())
            v = dac_->convert(v);
        voltages[i] = v;
        mean_abs += std::fabs(v);
    }
    mean_abs /= static_cast<float>(x.size());

    std::vector<float> currents(ideal_.rows(), 0.0f);
    for (std::size_t o = 0; o < ideal_.rows(); ++o) {
        double acc = 0.0;
        for (std::size_t i = 0; i < ideal_.cols(); ++i)
            acc += static_cast<double>(voltages[i]) * effective_(o, i);
        if (!colSneak_.empty())
            acc += static_cast<double>(colSneak_[o]) * mean_abs;
        currents[o] = static_cast<float>(acc);
    }
    // The output vector is a one-row lane for the shared ADC.
    adc_->convertRows(currents.data(), currents.size(), x_scale, rng);
    return currents;
}

void
CrossbarTile::applyDrift(double hours, const DriftConfig& drift, Rng& rng)
{
    if (hours <= 0.0)
        return;
    const double t_before = std::max(agedHours_, 0.0) + drift.t0Hours;
    agedHours_ += hours;
    const double t_after = agedHours_ + drift.t0Hours;

    // Incremental power-law decay from t_before to t_after with a
    // per-cell exponent; the differential pair decays coherently, so the
    // effective weight scales by the same factor.
    FloatVec& eff = effective_.raw();
    for (std::size_t i = 0; i < eff.size(); ++i) {
        const double nu = std::max(0.0,
                                   rng.gauss(drift.nu, drift.nuSigma));
        if (!sramMask_.empty() && sramMask_[i] != 0)
            continue;
        const double factor = std::pow(t_after / t_before, -nu);
        eff[i] = static_cast<float>(static_cast<double>(eff[i]) * factor);
    }
}

Matrix
CrossbarTile::cellErrorMagnitude() const
{
    Matrix err(ideal_.rows(), ideal_.cols());
    for (std::size_t i = 0; i < err.size(); ++i)
        err.raw()[i] = std::fabs(effective_.raw()[i] - ideal_.raw()[i]);
    return err;
}

void
CrossbarTile::remapCellsToSram(const std::vector<std::uint8_t>& mask)
{
    if (mask.size() != ideal_.size())
        panic("CrossbarTile::remapCellsToSram: mask size mismatch");
    sramMask_ = mask;
    for (std::size_t i = 0; i < mask.size(); ++i)
        if (mask[i] != 0)
            effective_.raw()[i] = ideal_.raw()[i];
}

} // namespace swordfish::crossbar
