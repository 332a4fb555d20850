/**
 * @file
 * Ahead-of-time execution plans for the crossbar VMM backend, plus the
 * typed compile-error surface shared by the backend registry.
 *
 * compile() lowers a (model, NonIdealityConfig) pair into a flat
 * ExecPlan: one WeightPlan per mapped weight holding the pre-resolved
 * column slices, a flat tile-op list in execution order (column tile
 * outer, row tile inner — which fixes the conversion-noise draw order and
 * the float accumulation order), the folded measured-library gain/offset
 * vectors, and the precomputed per-row conversion-counter factors. The
 * WeightPlan is the only way a crossbar VMM executes: the backend builds
 * it when a weight is programmed, whether by compile() or lazily by a
 * first matmul, and its dispatch loop runs the ops directly, with no grid
 * arithmetic on the hot path (and, once compile() has sealed the plan, no
 * lock or map lookup either).
 *
 * Typed errors: compilation failures (unknown backend, shape mismatch
 * against a cached plan, degenerate device configs, out-of-range remap
 * fractions) are returned as CompileError values rather than panics, so
 * config readers and tests can handle them — util::panic() aborts the
 * process and is reserved for programming errors on paths that validated
 * their inputs earlier.
 */

#ifndef SWORDFISH_CORE_PLAN_H
#define SWORDFISH_CORE_PLAN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "crossbar/crossbar.h"
#include "tensor/matrix.h"

namespace swordfish::core {

// ---------------------------------------------------------------------------
// Typed compile errors (the pybuda-style BackendCompileFailure surface)
// ---------------------------------------------------------------------------

/** Why a backend failed to initialize or compile. */
enum class CompileFailure
{
    None,                 ///< success
    UnknownBackend,       ///< name not in the registry
    ShapeMismatch,        ///< weight shape differs from the cached plan
    InvalidDeviceConfig,  ///< degenerate memristor device parameters
    InvalidRemapFraction, ///< RSA remap fraction outside [0, 1]
    ScenarioMismatch,     ///< backend family contradicts the scenario
    InvalidNoiseSpec,     ///< malformed composed-noise spec (SWORDFISH_NOISE grammar)
    InvalidEnsemble,      ///< ensemble replica count outside [1, kMaxEnsembleReplicas]
};

/** Stable label for a failure kind (test assertions, log lines). */
const char* compileFailureName(CompileFailure failure);

/** A typed compile error: kind plus a human-readable message. */
struct CompileError
{
    CompileFailure failure = CompileFailure::None;
    std::string message;

    bool ok() const { return failure == CompileFailure::None; }
    explicit operator bool() const { return !ok(); } ///< true on *error*
};

/** Outcome of BackendApi::compile(): success flag, error, and stats. */
struct CompileResult
{
    CompileError error;           ///< None on success
    std::size_t weightsCompiled = 0;
    std::size_t tilesCompiled = 0;
    double seconds = 0.0;         ///< wall time of the compile step

    bool success() const { return error.ok(); }
};

// ---------------------------------------------------------------------------
// The execution engine
// ---------------------------------------------------------------------------

/**
 * The execution engine: Compiled (the AOT WeightPlan dispatch) is the only
 * one, and nothing in src/ reads it. ExecMode, BackendSelector and
 * defaultBackendSelector() stay because benchmark/tracing.cpp copies
 * defaultBackendSelector().mode into BackendSpec::mode.
 */
enum class ExecMode
{
    Compiled, ///< AOT WeightPlan dispatch
};

/** The engine choice; each evaluation implies its backend family. */
struct BackendSelector
{
    ExecMode mode = ExecMode::Compiled;
};

/** The one selector: a constant, read from no environment variable. */
inline BackendSelector
defaultBackendSelector()
{
    return {};
}

// ---------------------------------------------------------------------------
// The execution plan
// ---------------------------------------------------------------------------

/** One tile VMM: the programmed tile plus its output-row origin. */
struct PlanTileOp
{
    const crossbar::CrossbarTile* tile = nullptr;
    std::size_t rowBegin = 0; ///< y-column origin of this tile's outputs

    /** Ensemble replicas 1..K-1 of this tile (layer ensemble averaging);
     *  nullptr or empty = the plain single-tile path. */
    const std::vector<crossbar::CrossbarTile>* extras = nullptr;
};

/**
 * One input column slice: x[:, colBegin .. colBegin+width) feeds the ops
 * [opBegin, opBegin + opCount) of the flat op list, in order.
 */
struct PlanColSlice
{
    std::size_t colBegin = 0;
    std::size_t width = 0;
    std::size_t opBegin = 0;
    std::size_t opCount = 0;
};

/**
 * The compiled form of one mapped weight. Analytical weights carry the
 * slice table and flat op list (slice-major, row-tile inner); measured
 * weights carry pointers to the programmed effective matrix and folded
 * gain vector plus the precomputed offset*absMax vector (the fold
 * `offset[o] * absMax * x_max` evaluates left to right, so pre-folding the
 * first product is bitwise neutral).
 *
 * Cached tile/matrix pointers stay valid for the backend's lifetime: the
 * weight map's nodes are never erased, tile vectors are never resized
 * after programming, and the health monitor re-programs tiles by
 * move-assigning into the existing slots.
 */
struct WeightPlan
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    bool measured = false;

    // Analytical path.
    std::vector<PlanColSlice> slices;
    std::vector<PlanTileOp> ops;

    // Measured path.
    const Matrix* measuredWeights = nullptr;
    const std::vector<float>* gain = nullptr;
    std::vector<float> offsetFold; ///< measuredOffset[o] * absMax

    // Precomputed conversion-counter factors: each tile op converts
    // T * width inputs and T * tileRows outputs, which sum to (rows of x)
    // times these per-call constants.
    std::size_t tileVmms = 0;
    std::size_t dacPerRow = 0;
    std::size_t adcPerRow = 0;
};

/**
 * A compiled model: the WeightPlan of every compiled weight, plus stats.
 * The plans themselves live with the programmed weights; the map only
 * indexes them for the lock-free lookup after sealing.
 */
struct ExecPlan
{
    std::unordered_map<std::string, const WeightPlan*> weights;
    std::size_t totalTiles = 0;
    double compileSeconds = 0.0;

    /** The plan for a weight, or nullptr when it was never compiled
     *  (direct matmul callers run the plan built at lazy programming). */
    const WeightPlan*
    find(const std::string& name) const
    {
        const auto it = weights.find(name);
        return it == weights.end() ? nullptr : it->second;
    }

    std::size_t weightCount() const { return weights.size(); }

    /** One-line summary for logs / bench JSON. */
    std::string describe() const;
};

/**
 * Lower one analytically-programmed weight into its WeightPlan: resolve
 * the column-slice table and emit the flat tile-op list in execution order
 * (column tile outer, row tile inner).
 *
 * @param tiles  tile grid indexed [rowTile][colTile]; pointers into it are
 *               cached, so it must outlive the plan.
 * @param extras ensemble replica grid indexed [rowTile][colTile] (layer
 *               ensemble averaging); nullptr or empty = no ensemble.
 *               Pointers into it are cached like `tiles`.
 */
WeightPlan
buildAnalyticalWeightPlan(
    std::size_t rows, std::size_t cols, std::size_t tile_size,
    const std::vector<std::vector<crossbar::CrossbarTile>>& tiles,
    const std::vector<std::vector<std::vector<crossbar::CrossbarTile>>>*
        extras = nullptr);

/**
 * Lower one measured-library weight: cache the effective-matrix and gain
 * pointers and pre-fold the per-output offset with the layer absmax.
 */
WeightPlan
buildMeasuredWeightPlan(std::size_t rows, std::size_t cols,
                        const Matrix& weights,
                        const std::vector<float>& gain,
                        const std::vector<float>& offset, float abs_max);

} // namespace swordfish::core

#endif // SWORDFISH_CORE_PLAN_H
