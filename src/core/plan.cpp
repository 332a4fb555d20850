#include "plan.h"

#include <algorithm>

namespace swordfish::core {

const char*
compileFailureName(CompileFailure failure)
{
    switch (failure) {
      case CompileFailure::None: return "none";
      case CompileFailure::UnknownBackend: return "unknown_backend";
      case CompileFailure::ShapeMismatch: return "shape_mismatch";
      case CompileFailure::InvalidDeviceConfig:
        return "invalid_device_config";
      case CompileFailure::InvalidRemapFraction:
        return "invalid_remap_fraction";
      case CompileFailure::ScenarioMismatch: return "scenario_mismatch";
      case CompileFailure::InvalidNoiseSpec: return "invalid_noise_spec";
      case CompileFailure::InvalidEnsemble: return "invalid_ensemble";
    }
    return "unknown";
}

WeightPlan
buildAnalyticalWeightPlan(
    std::size_t rows, std::size_t cols, std::size_t tile_size,
    const std::vector<std::vector<crossbar::CrossbarTile>>& tiles,
    const std::vector<std::vector<std::vector<crossbar::CrossbarTile>>>*
        extras)
{
    if (extras != nullptr && extras->empty())
        extras = nullptr;
    WeightPlan plan;
    plan.rows = rows;
    plan.cols = cols;
    plan.measured = false;

    const std::size_t s = tile_size;
    const std::size_t row_tiles = tiles.size();
    const std::size_t col_tiles = (cols + s - 1) / s;

    plan.slices.reserve(col_tiles);
    plan.ops.reserve(row_tiles * col_tiles);
    for (std::size_t ct = 0; ct < col_tiles; ++ct) {
        PlanColSlice slice;
        slice.colBegin = ct * s;
        slice.width = std::min(cols, slice.colBegin + s) - slice.colBegin;
        slice.opBegin = plan.ops.size();
        for (std::size_t rt = 0; rt < row_tiles; ++rt)
            plan.ops.push_back(
                {&tiles[rt][ct], rt * s,
                 extras != nullptr ? &(*extras)[rt][ct] : nullptr});
        slice.opCount = plan.ops.size() - slice.opBegin;
        plan.slices.push_back(slice);
    }

    // Conversion-counter factors: each (slice, row tile) op converts
    // T * width DAC inputs and T * tileRows ADC outputs, so the per-call
    // totals are T * (row_tiles * cols) and T * (col_tiles * rows).
    plan.tileVmms = row_tiles * col_tiles;
    plan.dacPerRow = row_tiles * cols;
    plan.adcPerRow = col_tiles * rows;
    return plan;
}

WeightPlan
buildMeasuredWeightPlan(std::size_t rows, std::size_t cols,
                        const Matrix& weights,
                        const std::vector<float>& gain,
                        const std::vector<float>& offset, float abs_max)
{
    WeightPlan plan;
    plan.rows = rows;
    plan.cols = cols;
    plan.measured = true;
    plan.measuredWeights = &weights;
    plan.gain = &gain;
    // The fold is row[o] * gain[o] + offset[o] * absMax * x_max;
    // multiplication is left-associative, so pre-folding the first product
    // leaves the result bitwise unchanged.
    plan.offsetFold.resize(offset.size());
    for (std::size_t o = 0; o < offset.size(); ++o)
        plan.offsetFold[o] = offset[o] * abs_max;
    // The measured mode executes as one fused gemm over the whole operand:
    // whole-operand conversions (x.size() DAC, y.size() ADC) and no
    // per-tile VMMs.
    plan.tileVmms = 0;
    plan.dacPerRow = cols;
    plan.adcPerRow = rows;
    return plan;
}

} // namespace swordfish::core
