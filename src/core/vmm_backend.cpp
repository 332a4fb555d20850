#include "vmm_backend.h"

#include <algorithm>
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

/**
 * One conversion-noise stream per (thread, backend): reads announce their
 * stream via beginRead(); matmul draws from the calling thread's stream.
 * Keeping it thread-local (instead of a member) is what makes a programmed
 * backend shareable across read-sharding workers.
 */
struct TlsConversionStream
{
    std::uint64_t owner = 0; ///< backend instanceId_ the rng is seeded for
    std::uint64_t streamKey = 0; ///< read-stream id (fault-site key)
    Rng rng;
};
thread_local TlsConversionStream tls_stream;

/** Per-thread scratch for the tiled matmul hot path. */
struct TlsMatmulScratch
{
    Matrix xSub;                 ///< column-tile input slice
    crossbar::VmmScratch tile;   ///< tile-kernel input copy + partial sums
    BatchLayout oneLane;         ///< the layout of a serial matmul
};
thread_local TlsMatmulScratch tls_scratch;

/**
 * Per-(thread, backend) batched-pass state: one conversion stream per lane
 * of the open batch, each seeded the way beginRead() seeds a serial read.
 * activeLane routes serial matmul() calls (the generic per-lane layer
 * fallback) to the right lane stream.
 */
struct TlsBatchState
{
    std::uint64_t owner = 0; ///< backend instanceId_ the streams belong to
    std::vector<Rng> laneRngs;
    std::vector<std::uint64_t> laneStreams; ///< stream ids (fault keys)
    std::size_t activeLane = kNoLane;
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

/**
 * The read-stream id serial matmul calls on this thread execute under: the
 * selected batch lane's stream inside an open batch, the beginRead() stream
 * otherwise, and 0 for threads that never announced a read (mirroring
 * conversionRng()'s fallback).
 */
std::uint64_t
currentStreamKey(std::uint64_t instance_id)
{
    if (tls_batch.owner == instance_id && tls_batch.activeLane != kNoLane
        && tls_batch.activeLane < tls_batch.laneStreams.size())
        return tls_batch.laneStreams[tls_batch.activeLane];
    return tls_stream.owner == instance_id ? tls_stream.streamKey : 0;
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
    tls_stream.owner = instanceId_;
    tls_stream.streamKey = read_stream;
    tls_stream.rng.reseed(hashSeed({runSeed_, read_stream,
                                    kConversionTag}));
}

Rng&
CrossbarVmmBackend::conversionRng() const
{
    // Inside an open batch with a lane selected, serial calls draw from
    // that lane's stream (the generic per-lane forwardBatch fallback).
    if (tls_batch.owner == instanceId_ && tls_batch.activeLane != kNoLane
        && tls_batch.activeLane < tls_batch.laneRngs.size())
        return tls_batch.laneRngs[tls_batch.activeLane];
    // Threads that never saw beginRead() (direct matmul callers, e.g.
    // training-time noise injection) run on the read-0 stream.
    if (tls_stream.owner != instanceId_) {
        tls_stream.owner = instanceId_;
        tls_stream.streamKey = 0;
        tls_stream.rng.reseed(hashSeed({runSeed_, 0, kConversionTag}));
    }
    return tls_stream.rng;
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
    tls_batch.activeLane = kNoLane;
}

void
CrossbarVmmBackend::endBatch()
{
    tls_batch.owner = 0;
    tls_batch.laneRngs.clear();
    tls_batch.laneStreams.clear();
    tls_batch.activeLane = kNoLane;
}

void
CrossbarVmmBackend::selectBatchLane(std::size_t lane)
{
    tls_batch.activeLane = lane;
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

const CrossbarVmmBackend::MappedWeight&
CrossbarVmmBackend::mapped(const std::string& name, const Matrix& w)
{
    {
        std::shared_lock<std::shared_mutex> lock(programMutex_);
        auto it = weights_.find(name);
        if (it != weights_.end()) {
            if (it->second.rows != w.rows() || it->second.cols != w.cols())
                panic("CrossbarVmmBackend: shape of ", name,
                      " changed after programming");
            return it->second;
        }
    }

    std::unique_lock<std::shared_mutex> lock(programMutex_);
    auto it = weights_.find(name);
    if (it != weights_.end()) {
        // Another read-shard programmed it while we waited for the lock.
        if (it->second.rows != w.rows() || it->second.cols != w.cols())
            panic("CrossbarVmmBackend: shape of ", name,
                  " changed after programming");
        return it->second;
    }

    MappedWeight mw;
    mw.rows = w.rows();
    mw.cols = w.cols();
    mw.absMax = w.absMax() > 0.0f ? w.absMax() : 1.0f;
    sramMasks_[name].assign(w.size(), 0);
    std::vector<Matrix> truths;
    if (config_.usesLibrary())
        programMeasured(mw, name, w);
    else
        programAnalytical(mw, name, w,
                          health_ != nullptr ? &truths : nullptr);
    MappedWeight& slot = weights_.emplace(name, std::move(mw)).first->second;
    // Lowered from the emplaced node, never the moved-from local: the plan
    // caches pointers into it.
    slot.plan = config_.usesLibrary()
        ? buildMeasuredWeightPlan(slot.rows, slot.cols, slot.measuredWeights,
                                  slot.measuredGain, slot.measuredOffset,
                                  slot.absMax)
        : buildAnalyticalWeightPlan(slot.rows, slot.cols,
                                    config_.crossbar.size, slot.tiles,
                                    &slot.extras);
    // Registration replays any elapsed health epochs (still under the
    // unique programming lock, so no matmul sees a half-healed weight).
    if (health_ != nullptr && !config_.usesLibrary())
        health_->registerWeight(name, std::move(truths));
    return slot;
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

void
CrossbarVmmBackend::programAnalytical(MappedWeight& mw,
                                      const std::string& name,
                                      const Matrix& w,
                                      std::vector<Matrix>* truths)
{
    static const SpanStat kProgramSpan = metrics().span("program");
    static const Counter kProgramTiles =
        metrics().counter("program.tiles");
    static const Counter kProgramFaultTiles =
        metrics().counter("fault.injected.program_tiles");
    TraceSpan trace(kProgramSpan);

    const std::size_t s = config_.crossbar.size;
    const std::size_t row_tiles = (mw.rows + s - 1) / s;
    const std::size_t col_tiles = (mw.cols + s - 1) / s;
    // The resolved NoiseModel: explicit spec > SWORDFISH_NOISE override >
    // the kind's NoiseModel::preset (the legacy toggle set, with the
    // extended sources off).
    const crossbar::NoiseToggles toggles = noise_.toggles;
    const crossbar::ExtendedNoise& extended = noise_.extended;
    auto& masks = sramMasks_[name];

    // Layer ensemble averaging: replicas 1..K-1 are programmed alongside
    // replica 0 with independent seeds keyed off the tile seed.
    const std::size_t replicas =
        ensemble_.applies(name) ? ensemble_.k : 1;

    // Each tile's build is independent given its precomputed seed, so the
    // builds fan out across the pool (inline when already on a worker).
    // Tiles land in indexed slots and masks in disjoint regions, keeping
    // the result identical to the serial order.
    std::vector<std::optional<crossbar::CrossbarTile>> built(
        row_tiles * col_tiles);
    std::vector<std::vector<crossbar::CrossbarTile>> built_extras(
        row_tiles * col_tiles);
    if (truths != nullptr)
        truths->resize(row_tiles * col_tiles);
    globalPool().parallelFor(row_tiles * col_tiles, [&](std::size_t idx) {
        const std::size_t rt = idx / col_tiles;
        const std::size_t ct = idx % col_tiles;
        const std::size_t r0 = rt * s;
        const std::size_t r1 = std::min(mw.rows, r0 + s);
        const std::size_t c0 = ct * s;
        const std::size_t c1 = std::min(mw.cols, c0 + s);

        Matrix sub(r1 - r0, c1 - c0);
        for (std::size_t r = r0; r < r1; ++r)
            for (std::size_t c = c0; c < c1; ++c)
                sub(r - r0, c - c0) = w(r, c);
        // The health monitor needs the *intended* weights: a tile killed
        // by the programming fault below is detected (and re-programmed)
        // precisely because its truth differs from what it computes.
        if (truths != nullptr)
            (*truths)[idx] = sub;

        // A failed tile programming leaves the tile dead (all-zero target
        // weights) instead of aborting the run; the key is pure in
        // (name, tile), so the same tiles die for any build schedule.
        if (faults_.enabled()
            && faults_.fires(FaultSite::TileProgram,
                             tileFaultKey(name, rt, ct))) {
            sub.zero();
            kProgramFaultTiles.add();
        }

        const std::uint64_t tile_seed = hashSeed(
            {runSeed_, std::hash<std::string>{}(name), rt, ct});
        crossbar::CrossbarTile tile(config_.crossbar, sub, mw.absMax,
                                    toggles, tile_seed, extended);

        std::vector<std::uint8_t> mask;
        if (remap_.fraction > 0.0) {
            mask = selectSramCells(tile.cellErrorMagnitude(), name, idx);
            tile.remapCellsToSram(mask);
            for (std::size_t r = r0; r < r1; ++r)
                for (std::size_t c = c0; c < c1; ++c)
                    masks[r * mw.cols + c] = mask[
                        (r - r0) * (c1 - c0) + (c - c0)];
        }

        // Ensemble replicas share the digital sub-matrix and the SRAM
        // remap (SRAM cells are one digital store, not re-programmed per
        // replica) but draw programming noise from their own seeds.
        if (replicas > 1) {
            auto& reps = built_extras[idx];
            reps.reserve(replicas - 1);
            for (std::size_t j = 1; j < replicas; ++j) {
                crossbar::CrossbarTile rep(
                    config_.crossbar, sub, mw.absMax, toggles,
                    hashSeed({tile_seed, kEnsembleTag, j}), extended);
                if (!mask.empty())
                    rep.remapCellsToSram(mask);
                reps.push_back(std::move(rep));
            }
        }
        built[idx].emplace(std::move(tile));
    });

    mw.tiles.resize(row_tiles);
    for (std::size_t rt = 0; rt < row_tiles; ++rt) {
        mw.tiles[rt].reserve(col_tiles);
        for (std::size_t ct = 0; ct < col_tiles; ++ct)
            mw.tiles[rt].push_back(std::move(*built[rt * col_tiles + ct]));
    }
    if (replicas > 1) {
        mw.extras.resize(row_tiles);
        for (std::size_t rt = 0; rt < row_tiles; ++rt) {
            mw.extras[rt].reserve(col_tiles);
            for (std::size_t ct = 0; ct < col_tiles; ++ct)
                mw.extras[rt].push_back(
                    std::move(built_extras[rt * col_tiles + ct]));
        }
    }
    tileCount_ += row_tiles * col_tiles * replicas;
    kProgramTiles.add(row_tiles * col_tiles * replicas);
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

    const std::size_t s = config_.crossbar.size;
    const std::size_t row_tiles = (mw.rows + s - 1) / s;
    const std::size_t col_tiles = (mw.cols + s - 1) / s;
    const std::size_t n_tiles = row_tiles * col_tiles;
    auto& masks = sramMasks_[name];

    // Library draws happen up front in tile order so the instance choice
    // stays independent of how the builds are scheduled.
    Rng draw(hashSeed({runSeed_, std::hash<std::string>{}(name),
                       0x11bULL}));
    std::vector<std::size_t> instances(n_tiles);
    for (std::size_t i = 0; i < n_tiles; ++i)
        instances[i] = library_->sampleInstance(draw);

    mw.measuredWeights = Matrix(mw.rows, mw.cols);
    mw.measuredGain.assign(mw.rows, 1.0f);
    mw.measuredOffset.assign(mw.rows, 0.0f);

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
        const std::size_t rt = idx / col_tiles;
        const std::size_t ct = idx % col_tiles;
        const std::size_t r0 = rt * s;
        const std::size_t r1 = std::min(mw.rows, r0 + s);
        const std::size_t c0 = ct * s;
        const std::size_t c1 = std::min(mw.cols, c0 + s);
        const std::size_t tr = r1 - r0, tc = c1 - c0;

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
                    masks[(r0 + r) * mw.cols + (c0 + c)] =
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
        const std::size_t rt = idx / col_tiles;
        const std::size_t r0 = rt * s;
        for (std::size_t r = 0; r < tile_gain[idx].size(); ++r) {
            mw.measuredGain[r0 + r] *= tile_gain[idx][r];
            mw.measuredOffset[r0 + r] += tile_offset[idx][r];
        }
    }
    tileCount_ += n_tiles;
    kProgramTiles.add(n_tiles);
}

void
CrossbarVmmBackend::matmul(const std::string& name, const Matrix& w,
                           const Matrix& x, Matrix& y)
{
    // A serial call is the one-lane layout over the calling thread's
    // current stream.
    BatchLayout& one_lane = tls_scratch.oneLane;
    one_lane.assign(1, {0, x.rows()});
    Rng* const rng = &conversionRng();
    const std::uint64_t key = currentStreamKey(instanceId_);
    execute(name, w, x, y, one_lane, &rng, &key);
}

void
CrossbarVmmBackend::matmulBatched(const std::string& name, const Matrix& w,
                                  const Matrix& x, Matrix& y,
                                  const BatchLayout& layout)
{
    // Without an open batch there are no lane streams to draw from; the
    // serial path (whole-operand scaling, calling thread's stream) is the
    // defined behaviour.
    if (tls_batch.owner != instanceId_ || layout.empty()) {
        matmul(name, w, x, y);
        return;
    }
    execute(name, w, x, y, layout, laneRngTable(layout).data(),
            tls_batch.laneStreams.data());
}

const WeightPlan&
CrossbarVmmBackend::weightPlan(const std::string& name, const Matrix& w)
{
    // Once the plan is sealed (acquire pairs with the release in
    // finishCompile()), compiled weights skip the lock and the map lookup.
    if (planReady_.load(std::memory_order_acquire)) {
        if (const WeightPlan* wp = plan_.find(name)) {
            if (wp->rows != w.rows() || wp->cols != w.cols())
                panic("CrossbarVmmBackend: shape of ", name,
                      " changed after programming");
            return *wp;
        }
    }
    // Weights outside the plan (direct matmul callers: training, enhancer
    // probes) run the same plan, built when their first matmul programmed
    // them.
    return mapped(name, w).plan;
}

void
CrossbarVmmBackend::execute(const std::string& name, const Matrix& w,
                            const Matrix& x, Matrix& y,
                            const BatchLayout& layout, Rng* const* rngs,
                            const std::uint64_t* lane_keys)
{
    VmmCounters& counters = vmmCounters();
    TraceSpan trace(counters.span);
    counters.calls.add();

    const WeightPlan& wp = weightPlan(name, w);
    if (wp.measured)
        runMeasured(wp, x, y, layout);
    else
        runAnalytical(wp, x, y, layout, rngs);
    counters.tileVmms.add(wp.tileVmms);
    counters.dac.add(x.rows() * wp.dacPerRow);
    counters.adc.add(x.rows() * wp.adcPerRow);

    std::size_t row = 0;
    for (const LaneSpan& span : layout) {
        applyExecutionFaults(faults_, y, row, row + span.rows,
                             lane_keys[span.lane]);
        row += span.rows;
    }
}

void
CrossbarVmmBackend::runAnalytical(const WeightPlan& wp, const Matrix& x,
                                  Matrix& y, const BatchLayout& layout,
                                  Rng* const* rngs)
{
    y.resizeUninit(x.rows(), wp.rows);
    y.zero(); // accumulation target

    Matrix& x_sub = tls_scratch.xSub;
    crossbar::VmmScratch& scratch = tls_scratch.tile;
    for (const PlanColSlice& slice : wp.slices) {
        x_sub.resizeUninit(x.rows(), slice.width); // fully overwritten
        for (std::size_t t = 0; t < x.rows(); ++t)
            for (std::size_t c = 0; c < slice.width; ++c)
                x_sub(t, c) = x(t, slice.colBegin + c);

        for (std::size_t i = 0; i < slice.opCount; ++i) {
            const PlanTileOp& op = wp.ops[slice.opBegin + i];
            op.tile->vmm(x_sub, layout, rngs, scratch, op.extras);
            const Matrix& part = scratch.y;
            // Digital accumulation of partial sums across column tiles.
            for (std::size_t t = 0; t < part.rows(); ++t)
                for (std::size_t r = 0; r < part.cols(); ++r)
                    y(t, op.rowBegin + r) += part(t, r);
        }
    }
}

void
CrossbarVmmBackend::runMeasured(const WeightPlan& wp, const Matrix& x,
                                Matrix& y, const BatchLayout& layout)
{
    y.resizeUninit(x.rows(), wp.rows);
    y.zero();
    gemmBT(x, *wp.measuredWeights, y, /*accumulate=*/true);
    // One gain/offset fold over the whole operand, with each lane's own
    // input absmax (the Matrix::absMax() kernel, so a one-lane layout
    // folds exactly as the whole operand).
    const std::vector<float>& gain = *wp.gain;
    std::size_t row = 0;
    for (const LaneSpan& span : layout) {
        const float* src = x.raw().data() + row * x.cols();
        float x_max = kernels::absMaxRange(src, span.rows * x.cols());
        if (x_max <= 0.0f)
            x_max = 1.0f;
        for (std::size_t t = row; t < row + span.rows; ++t) {
            float* out = y.rowPtr(t);
            for (std::size_t o = 0; o < y.cols(); ++o)
                out[o] = out[o] * gain[o] + wp.offsetFold[o] * x_max;
        }
        row += span.rows;
    }
}

// ---------------------------------------------------------------------------
// Ahead-of-time compilation
// ---------------------------------------------------------------------------

CompileError
CrossbarVmmBackend::compileWeight(const std::string& name, const Matrix& w)
{
    // Typed pre-check before mapped(), which panics on a shape change: a
    // caller compiling a weight against an existing plan deserves a value
    // error it can surface, not an abort.
    {
        std::shared_lock<std::shared_mutex> lock(programMutex_);
        const auto it = weights_.find(name);
        if (it != weights_.end()
            && (it->second.rows != w.rows() || it->second.cols != w.cols()))
            return {CompileFailure::ShapeMismatch,
                    "shape of " + name + " ("
                        + std::to_string(w.rows()) + "x"
                        + std::to_string(w.cols())
                        + ") does not match the compiled plan ("
                        + std::to_string(it->second.rows) + "x"
                        + std::to_string(it->second.cols) + ")"};
    }

    // Seeds are pure in (runSeed, name, tile), never in call order, so AOT
    // programming here is bitwise-equal to lazy first-matmul programming.
    const MappedWeight& mw = mapped(name, w);
    std::unique_lock<std::shared_mutex> lock(programMutex_);
    if (plan_.weights.emplace(name, &mw.plan).second) // idempotent
        plan_.totalTiles += mw.plan.ops.size();
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
    finishCompile();
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

void
CrossbarVmmBackend::finishCompile()
{
    // Release pairs with the acquire in weightPlan(): a thread that sees
    // planReady_ sees the fully-built plan. Compile sweeps run between
    // evaluations, never concurrently with matmuls.
    planReady_.store(true, std::memory_order_release);
}

} // namespace swordfish::core
