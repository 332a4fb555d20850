#include "vmm_backend.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/deploy.h"
#include "nn/model.h"
#include "tensor/kernels.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace swordfish::core {

namespace {

/** Process-unique backend ids so tls conversion streams can't alias a
 *  recycled address after a backend is destroyed. */
std::atomic<std::uint64_t> next_instance_id{1};

/** Per-thread scratch for the tiled matmul hot path. */
struct TlsMatmulScratch
{
    Matrix xSub;                 ///< column-tile input slice
    crossbar::VmmScratch tile;   ///< tile-kernel input copy + partial sums
};
thread_local TlsMatmulScratch tls_scratch;

/**
 * The one per-(thread, backend) stream table: one conversion stream per
 * lane of the batch open on this thread (a serial read is a one-lane
 * batch). Keeping it thread-local (instead of a member) is what makes a
 * programmed backend shareable across read-sharding workers.
 */
struct TlsBatchState
{
    std::uint64_t owner = 0; ///< backend instanceId_ the streams belong to
    std::vector<Rng> laneRngs;
    std::vector<std::uint64_t> laneStreams; ///< stream ids (fault keys)
    std::vector<Rng*> rngPtrs; ///< per-span stream table scratch
};
thread_local TlsBatchState tls_batch;

/**
 * Resolve the open batch's per-span stream pointers for a layout into the
 * thread's reusable table. Panics on a lane outside the open batch (a
 * layout bug, not a recoverable condition).
 */
std::vector<Rng*>&
laneRngTable(const BatchLayout& layout)
{
    std::vector<Rng*>& rngs = tls_batch.rngPtrs;
    rngs.resize(layout.size());
    for (std::size_t i = 0; i < layout.size(); ++i) {
        if (layout[i].lane >= tls_batch.laneRngs.size())
            panic("CrossbarVmmBackend::matmulBatched: lane ",
                  layout[i].lane, " outside the open batch of ",
                  tls_batch.laneRngs.size());
        rngs[i] = &tls_batch.laneRngs[layout[i].lane];
    }
    return rngs;
}

constexpr std::uint64_t kConversionTag = 0xc0417e27ULL;

/**
 * Fault-injection hook for VMM execution: poisons (VmmNan) or zeroes one
 * output column of (VmmStuck) rows [row_begin, row_end) of y — one lane's
 * slice. Firing is keyed by the lane's read-stream id alone, so the same
 * read degrades identically for any thread x batch grid. No-op (one flag
 * test) when injection is disabled.
 */
void
applyExecutionFaults(const FaultInjector& inj, Matrix& y,
                     std::size_t row_begin, std::size_t row_end,
                     std::uint64_t stream_key)
{
    if (!inj.enabled() || y.cols() == 0 || row_begin >= row_end)
        return;
    if (inj.fires(FaultSite::VmmNan, stream_key)) {
        // Alternate NaN / Inf poisoning deterministically per read.
        const float poison = inj.draw(FaultSite::VmmNan, stream_key, 2) == 0
            ? std::numeric_limits<float>::quiet_NaN()
            : std::numeric_limits<float>::infinity();
        for (std::size_t t = row_begin; t < row_end; ++t) {
            float* row = y.rowPtr(t);
            for (std::size_t o = 0; o < y.cols(); ++o)
                row[o] = poison;
        }
        return;
    }
    if (inj.fires(FaultSite::VmmStuck, stream_key)) {
        const std::size_t col = static_cast<std::size_t>(
            inj.draw(FaultSite::VmmStuck, stream_key, y.cols()));
        for (std::size_t t = row_begin; t < row_end; ++t)
            y.rowPtr(t)[col] = 0.0f;
    }
}

/** Pure per-tile fault key, shared by the analytical and measured modes. */
std::uint64_t
tileFaultKey(const std::string& name, std::size_t rt, std::size_t ct)
{
    return hashSeed({std::hash<std::string>{}(name), rt, ct});
}

/** The VMM hot-path metric handles. */
struct VmmCounters
{
    SpanStat span;
    Counter calls;
    Counter tileVmms;
    Counter dac;
    Counter adc;
};

VmmCounters&
vmmCounters()
{
    static VmmCounters counters{metrics().span("vmm"),
                                metrics().counter("vmm.calls"),
                                metrics().counter("vmm.tile_vmms"),
                                metrics().counter("vmm.dac_conversions"),
                                metrics().counter("vmm.adc_conversions")};
    return counters;
}

} // namespace

CrossbarVmmBackend::CrossbarVmmBackend(const NonIdealityConfig& config,
                                       std::uint64_t run_seed,
                                       const FaultConfig& faults)
    : config_(config), noise_(resolveNoiseModel(config)), faults_(faults),
      runSeed_(run_seed), instanceId_(next_instance_id.fetch_add(1)),
      activationQuant_(config.quant.activationBits)
{
    if (config_.usesLibrary()) {
        library_.emplace(config_.crossbar.size, config_.library, 10000,
                         hashSeed({0x11b5eedULL}));
    }
    // Self-healing runtime (core/health.h): only the analytical modes own
    // live tiles that age and can be re-programmed; the measured mode is a
    // static chip snapshot, so healing is a no-op there by construction.
    const RefreshConfig& refresh =
        config_.refresh ? *config_.refresh : envRefreshConfig();
    if (refresh.enabled() && !config_.usesLibrary())
        health_ = std::make_unique<TileHealthMonitor>(*this, refresh);
}

void
CrossbarVmmBackend::beginRead(std::uint64_t read_stream)
{
    beginBatch({read_stream});
}

void
CrossbarVmmBackend::beginBatch(const std::vector<std::uint64_t>& streams)
{
    tls_batch.owner = instanceId_;
    tls_batch.laneRngs.resize(streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i)
        tls_batch.laneRngs[i].reseed(
            hashSeed({runSeed_, streams[i], kConversionTag}));
    tls_batch.laneStreams = streams;
}

void
CrossbarVmmBackend::endBatch()
{
    tls_batch.owner = 0;
    tls_batch.laneRngs.clear();
    tls_batch.laneStreams.clear();
}

void
CrossbarVmmBackend::onActivations(Matrix& activations)
{
    activationQuant_.apply(activations);
}

void
CrossbarVmmBackend::onActivationsRows(Matrix& m, std::size_t row_begin,
                                      std::size_t row_end)
{
    // Per-lane quantization scale: identical to onActivations() on the
    // lane's standalone matrix.
    activationQuant_.applyRows(m, row_begin, row_end);
}

std::vector<std::uint8_t>
CrossbarVmmBackend::selectSramCells(const Matrix& error,
                                    const std::string& name,
                                    std::size_t tile_index) const
{
    std::vector<std::uint8_t> mask(error.size(), 0);
    // Clamp to the cell count: rounding can push fraction == 1.0 to
    // error.size() + 1 on some sizes, and an unclamped k would send
    // nth_element's pivot iterator past order.end() (UB). Fractions
    // outside [0, 1] are rejected earlier by validateRemapConfig().
    const auto k = std::min(
        error.size(),
        static_cast<std::size_t>(
            remap_.fraction * static_cast<double>(error.size()) + 0.5));
    if (k == 0)
        return mask;

    std::vector<std::size_t> order(error.size());
    std::iota(order.begin(), order.end(), 0);
    if (remap_.useErrorKnowledge) {
        std::nth_element(order.begin(), order.begin()
                             + static_cast<std::ptrdiff_t>(k - 1),
                         order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return error.raw()[a] > error.raw()[b];
                         });
    } else {
        Rng rng(hashSeed({runSeed_,
                          std::hash<std::string>{}(name), tile_index,
                          0x25aULL}));
        rng.shuffle(order);
    }
    for (std::size_t i = 0; i < k; ++i)
        mask[order[i]] = 1;
    return mask;
}

TileTruth
CrossbarVmmBackend::mapTile(Matrix sub, float abs_max) const
{
    crossbar::ConductancePair mapped = crossbar::CrossbarTile::mapConductances(
        config_.crossbar, sub, abs_max, noise_.toggles);
    return {std::move(sub), std::move(mapped)};
}

crossbar::CrossbarTile
CrossbarVmmBackend::programTile(const TileTruth& truth, float abs_max,
                                std::uint64_t seed) const
{
    // The resolved NoiseModel: explicit spec > SWORDFISH_NOISE override >
    // the kind's NoiseModel::preset (the legacy toggle set, with the
    // extended sources off).
    return crossbar::CrossbarTile(config_.crossbar, truth.weights, abs_max,
                                  truth.mapped, noise_.toggles, seed,
                                  noise_.extended);
}

std::vector<crossbar::CrossbarTile>
CrossbarVmmBackend::programReplicas(const TileTruth& truth, float abs_max,
                                    std::uint64_t seed,
                                    const std::vector<std::uint8_t>& mask,
                                    std::size_t count) const
{
    std::vector<crossbar::CrossbarTile> reps;
    reps.reserve(count);
    for (std::size_t j = 1; j <= count; ++j) {
        reps.push_back(
            programTile(truth, abs_max, hashSeed({seed, kEnsembleTag, j})));
        if (!mask.empty())
            reps.back().remapCellsToSram(mask);
    }
    return reps;
}

void
CrossbarVmmBackend::programAnalytical(MappedWeight& mw,
                                      const std::string& name,
                                      const Matrix& w)
{
    static const SpanStat kProgramSpan = metrics().span("program");
    static const Counter kProgramTiles =
        metrics().counter("program.tiles");
    static const Counter kProgramFaultTiles =
        metrics().counter("fault.injected.program_tiles");
    TraceSpan trace(kProgramSpan);

    const arch::TileGrid& g = mw.grid;
    const std::size_t n_tiles = g.tileCount();
    auto& masks = sramMasks_[name];

    // Layer ensemble averaging: replicas 1..K-1 are programmed alongside
    // replica 0 with independent seeds keyed off the tile seed.
    const std::size_t replicas =
        ensemble_.applies(name) ? ensemble_.k : 1;

    // Each tile's build is independent given its precomputed seed, so the
    // builds fan out across the pool (inline when already on a worker).
    // Tiles land in indexed slots and masks in disjoint regions, keeping
    // the result identical to the serial order.
    std::vector<std::optional<crossbar::CrossbarTile>> built(n_tiles);
    mw.extras.resize(n_tiles);
    if (health_ != nullptr)
        mw.health.tiles.resize(n_tiles);
    globalPool().parallelFor(n_tiles, [&](std::size_t idx) {
        const std::size_t rt = idx / g.colTiles;
        const std::size_t ct = idx % g.colTiles;
        const std::size_t r0 = g.rowBegin(rt), r1 = g.rowEnd(rt);
        const std::size_t c0 = g.colBegin(ct), c1 = g.colEnd(ct);

        Matrix sub(r1 - r0, c1 - c0);
        for (std::size_t r = r0; r < r1; ++r)
            for (std::size_t c = c0; c < c1; ++c)
                sub(r - r0, c - c0) = w(r, c);
        // The tile and its replicas start from one mapping of the
        // sub-matrix (paper Fig. 5 steps 2-4 precede all variation).
        TileTruth truth = mapTile(std::move(sub), mw.absMax);

        // A failed tile programming leaves the tile dead (all-zero target
        // weights) instead of aborting the run; the key is pure in
        // (name, tile), so the same tiles die for any build schedule.
        const TileTruth* target = &truth;
        TileTruth zeroed;
        if (faults_.enabled()
            && faults_.fires(FaultSite::TileProgram,
                             tileFaultKey(name, rt, ct))) {
            zeroed = mapTile(Matrix(r1 - r0, c1 - c0), mw.absMax);
            target = &zeroed;
            kProgramFaultTiles.add();
        }

        const std::uint64_t tile_seed = hashSeed(
            {runSeed_, std::hash<std::string>{}(name), rt, ct});
        crossbar::CrossbarTile tile =
            programTile(*target, mw.absMax, tile_seed);

        std::vector<std::uint8_t> mask;
        if (remap_.fraction > 0.0) {
            mask = selectSramCells(tile.cellErrorMagnitude(), name, idx);
            tile.remapCellsToSram(mask);
            for (std::size_t r = r0; r < r1; ++r)
                for (std::size_t c = c0; c < c1; ++c)
                    masks[r * g.cols + c] = mask[
                        (r - r0) * (c1 - c0) + (c - c0)];
        }

        mw.extras[idx] = programReplicas(*target, mw.absMax, tile_seed, mask,
                                         replicas - 1);
        built[idx].emplace(std::move(tile));
        // The health monitor needs the *intended* weights: a tile killed
        // by the programming fault above is detected (and re-programmed)
        // precisely because its truth differs from what it computes.
        if (health_ != nullptr)
            mw.health.tiles[idx].truth = std::move(truth);
    });

    mw.tiles.reserve(n_tiles);
    for (std::optional<crossbar::CrossbarTile>& tile : built)
        mw.tiles.push_back(std::move(*tile));
    tileCount_ += n_tiles * replicas;
    kProgramTiles.add(n_tiles * replicas);
}

void
CrossbarVmmBackend::programMeasured(MappedWeight& mw,
                                    const std::string& name,
                                    const Matrix& w)
{
    static const SpanStat kProgramSpan = metrics().span("program");
    static const Counter kProgramTiles =
        metrics().counter("program.tiles");
    static const Counter kProgramFaultTiles =
        metrics().counter("fault.injected.program_tiles");
    TraceSpan trace(kProgramSpan);

    const arch::TileGrid& g = mw.grid;
    const std::size_t n_tiles = g.tileCount();
    auto& masks = sramMasks_[name];

    // Library draws happen up front in tile order so the instance choice
    // stays independent of how the builds are scheduled.
    Rng draw(hashSeed({runSeed_, std::hash<std::string>{}(name),
                       0x11bULL}));
    std::vector<std::size_t> instances(n_tiles);
    for (std::size_t i = 0; i < n_tiles; ++i)
        instances[i] = library_->sampleInstance(draw);

    mw.measuredWeights = Matrix(g.rows, g.cols);
    mw.measuredGain.assign(g.rows, 1.0f);
    std::vector<float> offset(g.rows, 0.0f);

    // R-V-W programming shrinks the programming-induced part of the
    // measured error (~70% of the per-cell error in the characterized
    // chips); die-level gain/offset is untouched.
    const double prog_scale = 0.3 + 0.7
        * crossbar::effectiveWriteSigma(
              config_.crossbar.scheme, 1.0,
              config_.crossbar.verifyIterations);

    // Parallel stage: per-tile effective weights, masks and column
    // profiles into indexed slots (writes to measuredWeights and masks are
    // disjoint per tile).
    std::vector<std::vector<float>> tile_gain(n_tiles);
    std::vector<std::vector<float>> tile_offset(n_tiles);
    globalPool().parallelFor(n_tiles, [&](std::size_t idx) {
        const std::size_t rt = idx / g.colTiles;
        const std::size_t ct = idx % g.colTiles;
        const std::size_t r0 = g.rowBegin(rt), c0 = g.colBegin(ct);
        const std::size_t tr = g.rowEnd(rt) - r0, tc = g.colEnd(ct) - c0;

        const auto profile = library_->profile(instances[idx], tr, tc);

        Matrix eff(tr, tc), err(tr, tc);
        for (std::size_t r = 0; r < tr; ++r) {
            for (std::size_t c = 0; c < tc; ++c) {
                const float mult = 1.0f + static_cast<float>(prog_scale)
                    * (profile.cellError(r, c) - 1.0f);
                const float add = static_cast<float>(prog_scale)
                    * profile.cellAddError(r, c) * mw.absMax;
                eff(r, c) = w(r0 + r, c0 + c) * mult + add;
                err(r, c) = std::fabs(eff(r, c) - w(r0 + r, c0 + c));
            }
        }

        std::vector<std::uint8_t> mask;
        if (remap_.fraction > 0.0) {
            mask = selectSramCells(err, name, idx);
            for (std::size_t i = 0; i < mask.size(); ++i) {
                if (mask[i] != 0)
                    eff.raw()[i] = w(r0 + i / tc, c0 + i % tc);
            }
        }

        // Dead tile on a failed programming, as in the analytical mode
        // (same pure key, so both modes kill the same tiles).
        if (faults_.enabled()
            && faults_.fires(FaultSite::TileProgram,
                             tileFaultKey(name, rt, ct))) {
            eff.zero();
            kProgramFaultTiles.add();
        }

        for (std::size_t r = 0; r < tr; ++r) {
            for (std::size_t c = 0; c < tc; ++c) {
                mw.measuredWeights(r0 + r, c0 + c) = eff(r, c);
                if (!mask.empty())
                    masks[(r0 + r) * g.cols + (c0 + c)] =
                        mask[r * tc + c];
            }
        }
        tile_gain[idx].assign(profile.columnGain.begin(),
                              profile.columnGain.begin()
                                  + static_cast<std::ptrdiff_t>(tr));
        tile_offset[idx].assign(profile.columnOffset.begin(),
                                profile.columnOffset.begin()
                                    + static_cast<std::ptrdiff_t>(tr));
    });

    // Serial stage: fold column gain/offset in tile order — the library
    // reports them per physical column, and column tiles sharing an output
    // must combine in a fixed order for bitwise reproducibility.
    for (std::size_t idx = 0; idx < n_tiles; ++idx) {
        const std::size_t r0 = g.rowBegin(idx / g.colTiles);
        for (std::size_t r = 0; r < tile_gain[idx].size(); ++r) {
            mw.measuredGain[r0 + r] *= tile_gain[idx][r];
            offset[r0 + r] += tile_offset[idx][r];
        }
    }
    mw.measuredOffsetFold.resize(g.rows);
    for (std::size_t o = 0; o < g.rows; ++o)
        mw.measuredOffsetFold[o] = offset[o] * mw.absMax;
    tileCount_ += n_tiles;
    kProgramTiles.add(n_tiles);
}

void
CrossbarVmmBackend::matmul(const std::string& name, const Matrix& w,
                           const Matrix& x, Matrix& y)
{
    matmulBatched(name, w, x, y, {{0, x.rows()}});
}

void
CrossbarVmmBackend::matmulBatched(const std::string& name, const Matrix& w,
                                  const Matrix& x, Matrix& y,
                                  const BatchLayout& layout)
{
    // Threads that never opened a batch on this backend (direct matmul
    // callers) run on the read-0 lane.
    if (tls_batch.owner != instanceId_)
        beginBatch({0});
    Rng* const* rngs = laneRngTable(layout).data();

    VmmCounters& counters = vmmCounters();
    TraceSpan trace(counters.span);
    counters.calls.add();

    const auto it = weights_.find(name);
    if (it == weights_.end())
        panic("CrossbarVmmBackend: ", name,
              " not compiled (compile the model before its first read)");
    const MappedWeight& mw = it->second;
    const arch::TileGrid& g = mw.grid;
    if (g.rows != w.rows() || g.cols != w.cols())
        panic("CrossbarVmmBackend: shape of ", name,
              " changed after programming");
    if (config_.usesLibrary())
        runMeasured(mw, x, y, layout);
    else
        runAnalytical(mw, x, y, layout, rngs);
    counters.tileVmms.add(g.tileCount());
    counters.dac.add(x.rows() * g.dacPerRow());
    counters.adc.add(x.rows() * g.adcPerRow());

    std::size_t row = 0;
    for (const LaneSpan& span : layout) {
        applyExecutionFaults(faults_, y, row, row + span.rows,
                             tls_batch.laneStreams[span.lane]);
        row += span.rows;
    }
}

void
CrossbarVmmBackend::runAnalytical(const MappedWeight& mw, const Matrix& x,
                                  Matrix& y, const BatchLayout& layout,
                                  Rng* const* rngs)
{
    const arch::TileGrid& g = mw.grid;
    y.resizeUninit(x.rows(), g.rows);
    y.zero(); // accumulation target

    Matrix& x_sub = tls_scratch.xSub;
    crossbar::VmmScratch& scratch = tls_scratch.tile;
    // Column tile outer, row tile inner: this order fixes the
    // conversion-noise draws and the float accumulation.
    for (std::size_t ct = 0; ct < g.colTiles; ++ct) {
        // One column tile spans every input: x goes in as it is.
        const Matrix* input = &x;
        if (g.colTiles > 1) {
            const std::size_t c0 = g.colBegin(ct);
            const std::size_t width = g.colEnd(ct) - c0;
            x_sub.resizeUninit(x.rows(), width); // fully overwritten
            for (std::size_t t = 0; t < x.rows(); ++t)
                for (std::size_t c = 0; c < width; ++c)
                    x_sub(t, c) = x(t, c0 + c);
            input = &x_sub;
        }

        for (std::size_t rt = 0; rt < g.rowTiles; ++rt) {
            const std::size_t idx = rt * g.colTiles + ct;
            mw.tiles[idx].vmm(*input, layout, rngs, scratch,
                              &mw.extras[idx]);
            const Matrix& part = scratch.y;
            const std::size_t r0 = g.rowBegin(rt);
            // Digital accumulation of partial sums across column tiles.
            for (std::size_t t = 0; t < part.rows(); ++t)
                for (std::size_t r = 0; r < part.cols(); ++r)
                    y(t, r0 + r) += part(t, r);
        }
    }
}

void
CrossbarVmmBackend::runMeasured(const MappedWeight& mw, const Matrix& x,
                                Matrix& y, const BatchLayout& layout)
{
    y.resizeUninit(x.rows(), mw.grid.rows);
    y.zero();
    gemmBT(x, mw.measuredWeights, y, /*accumulate=*/true);
    // One gain/offset fold over the whole operand, with each lane's own
    // input absmax (the Matrix::absMax() kernel, so a one-lane layout
    // folds exactly as the whole operand).
    const std::vector<float>& gain = mw.measuredGain;
    const std::vector<float>& offset_fold = mw.measuredOffsetFold;
    std::size_t row = 0;
    for (const LaneSpan& span : layout) {
        const float* src = x.raw().data() + row * x.cols();
        float x_max = kernels::absMaxRange(src, span.rows * x.cols());
        if (x_max <= 0.0f)
            x_max = 1.0f;
        for (std::size_t t = row; t < row + span.rows; ++t) {
            float* out = y.rowPtr(t);
            for (std::size_t o = 0; o < y.cols(); ++o)
                out[o] = out[o] * gain[o] + offset_fold[o] * x_max;
        }
        row += span.rows;
    }
}

// ---------------------------------------------------------------------------
// Compilation: the one place weights are programmed
// ---------------------------------------------------------------------------

CompileError
CrossbarVmmBackend::compileWeight(const std::string& name, const Matrix& w)
{
    if (const auto it = weights_.find(name); it != weights_.end()) {
        const arch::TileGrid& g = it->second.grid;
        if (g.rows == w.rows() && g.cols == w.cols())
            return {}; // already compiled
        return {CompileFailure::ShapeMismatch,
                "shape of " + name + " (" + std::to_string(w.rows()) + "x"
                    + std::to_string(w.cols())
                    + ") does not match the compiled weight ("
                    + std::to_string(g.rows) + "x" + std::to_string(g.cols)
                    + ")"};
    }

    // Seeds are pure in (runSeed, name, tile), never in compile order.
    MappedWeight mw(arch::TileGrid(w.rows(), w.cols(), config_.crossbar.size),
                    w.absMax() > 0.0f ? w.absMax() : 1.0f);
    sramMasks_[name].assign(w.size(), 0);
    if (config_.usesLibrary())
        programMeasured(mw, name, w);
    else
        programAnalytical(mw, name, w);
    MappedWeight& slot = weights_.emplace(name, std::move(mw)).first->second;
    if (health_ != nullptr)
        health_->registerWeight(name, slot);
    return {};
}

CompileError
CrossbarVmmBackend::compile(nn::SequenceModel& model)
{
    for (nn::Parameter* p : model.parameters()) {
        if (!isVmmWeight(p->name))
            continue;
        if (const CompileError err = compileWeight(p->name, p->value))
            return err;
    }
    return {};
}

void
CrossbarVmmBackend::prepareWeight(const std::string& name, const Matrix& w)
{
    if (!isVmmWeight(name))
        return;
    // The sweep offers every parameter; errors here mean the model changed
    // shape under an installed backend — a programming error, so panic
    // (the registry's typed path goes through compile() instead).
    if (const CompileError err = compileWeight(name, w))
        panic("CrossbarVmmBackend::prepareWeight: ", err.message);
}

} // namespace swordfish::core
