/**
 * @file
 * The VMM Model Generator (Swordfish module 2, paper Section 3.3) realized
 * as a VmmBackend: every named weight matrix of the basecaller is split
 * into crossbar tiles, programmed with the configured non-idealities, and
 * every matmul routes through those tiles (with digital accumulation of
 * partial sums across column tiles, as in PUMA/ISAAC).
 *
 * Supports both modeling approaches:
 *  - analytical (approach #2): CrossbarTile with NoiseToggles;
 *  - measurement library (approach #1): per-tile transfer profiles sampled
 *    from the MeasurementLibrary.
 *
 * It also implements the RSA remap (Section 3.4.4): before programming,
 * a fraction of cells per tile — the most error-prone ones when the error
 * profile is known (analytical and measured modes both expose it), or a
 * random subset otherwise — is redirected to ideal SRAM storage.
 */

#ifndef SWORDFISH_CORE_VMM_BACKEND_H
#define SWORDFISH_CORE_VMM_BACKEND_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/partition.h"
#include "core/health.h"
#include "core/noise_model.h"
#include "core/nonideality.h"
#include "core/plan.h"
#include "nn/module.h"
#include "util/fault.h"
#include "util/logging.h"

namespace swordfish::nn {
class SequenceModel;
}

namespace swordfish::core {

/** RSA remap policy. */
struct SramRemapConfig
{
    double fraction = 0.0;      ///< fraction of weights held in SRAM
    bool useErrorKnowledge = true; ///< top-error cells vs. random cells
};

/** Upper bound on ensemble replicas per layer (area sanity limit). */
inline constexpr std::size_t kMaxEnsembleReplicas = 16;

/** Seed-stream tag for ensemble replica j: replica seeds are
 *  hashSeed({tile_seed, kEnsembleTag, j}) both at initial programming and
 *  at health-monitor re-programming, so refresh reproduces the same
 *  hardware sampling convention. */
inline constexpr std::uint64_t kEnsembleTag = 0xe75e3b1eULL;

/**
 * Layer ensemble averaging (the mitigation from PAPERS.md): selected
 * layers are programmed onto K tile replicas with independent noise
 * draws; at read time the replica currents are averaged in the analog
 * domain and one shared ADC quantizes the mean. K=1 is exactly the
 * plain single-tile path, bitwise.
 */
struct EnsembleConfig
{
    std::size_t k = 1;  ///< replicas per selected layer, in [1, 16]
    std::string layers; ///< substring filter on weight names; empty = all

    bool enabled() const { return k > 1; }

    /** Whether this weight gets replicated under the config. */
    bool
    applies(const std::string& name) const
    {
        return enabled()
            && (layers.empty() || name.find(layers) != std::string::npos);
    }
};

/** Typed validation of an ensemble config (registry admission). */
inline CompileError
validateEnsembleConfig(const EnsembleConfig& ensemble)
{
    if (ensemble.k == 0 || ensemble.k > kMaxEnsembleReplicas)
        return {CompileFailure::InvalidEnsemble,
                "ensemble replica count must be within [1, "
                    + std::to_string(kMaxEnsembleReplicas) + "], got "
                    + std::to_string(ensemble.k)};
    return {};
}

/**
 * Typed validation of an RSA remap config, for the places that read it
 * (registry initialization, enhancer technique configs): a fraction
 * outside [0, 1] is a configuration error, not a clamp — 1.05 of the
 * cells cannot be remapped, and silently saturating would hide the typo.
 */
inline CompileError
validateRemapConfig(const SramRemapConfig& remap)
{
    if (remap.fraction < 0.0 || remap.fraction > 1.0)
        return {CompileFailure::InvalidRemapFraction,
                "SRAM remap fraction must be within [0, 1], got "
                    + std::to_string(remap.fraction)};
    return {};
}

/**
 * One weight matrix as a CrossbarVmmBackend holds it: its tiling, its
 * programmed tiles (or, in the measured mode, its effective matrix) and,
 * when healing is on, each tile's healing state and truth.
 */
struct MappedWeight
{
    MappedWeight(const arch::TileGrid& g, float abs_max)
        : grid(g), absMax(abs_max)
    {
    }

    arch::TileGrid grid;
    float absMax;
    // Analytical tiles in grid order (rt * grid.colTiles + ct).
    std::vector<crossbar::CrossbarTile> tiles;
    // Ensemble replicas 1..K-1 of each tile, in grid order (each empty
    // when the ensemble is off for this weight). `tiles` is replica 0
    // and owns the shared ADC pass.
    std::vector<std::vector<crossbar::CrossbarTile>> extras;
    // Measured mode: one effective weight matrix (profile applied),
    // per-output gain, and per-output offset * absMax. The fold
    // offset[o] * absMax * x_max evaluates left to right, so folding
    // the first product once at programming is bitwise neutral.
    Matrix measuredWeights;
    std::vector<float> measuredGain;
    std::vector<float> measuredOffsetFold;
    // The health monitor's state of each tile in grid order, its truth
    // included; empty when healing is off.
    WeightHealth health;
};

/** Crossbar-backed implementation of nn::VmmBackend. */
class CrossbarVmmBackend : public nn::VmmBackend
{
  public:
    /**
     * @param config   the non-ideality scenario; its refresh policy (or
     *                 the SWORDFISH_REFRESH one) is resolved here, once
     * @param run_seed instance seed: one seed per evaluation run; controls
     *                 programming noise, die profiles and library draws
     * @param faults   this backend's fault campaign (tile programming,
     *                 VMM poisoning, the health monitor's probes)
     */
    CrossbarVmmBackend(const NonIdealityConfig& config,
                       std::uint64_t run_seed,
                       const FaultConfig& faults = envFaultConfig());

    /**
     * Configure the RSA remap applied to tiles programmed later. The
     * fraction must be within [0, 1]; config readers validate first with
     * validateRemapConfig() and surface the typed error, so an
     * out-of-range value reaching this setter panics.
     */
    void
    setSramRemap(const SramRemapConfig& remap)
    {
        if (const CompileError err = validateRemapConfig(remap))
            panic("CrossbarVmmBackend::setSramRemap: ", err.message);
        remap_ = remap;
    }

    /**
     * Configure layer ensemble averaging for weights programmed later.
     * Config readers validate with validateEnsembleConfig() first; an
     * out-of-range replica count reaching this setter panics.
     */
    void
    setEnsemble(const EnsembleConfig& ensemble)
    {
        if (const CompileError err = validateEnsembleConfig(ensemble))
            panic("CrossbarVmmBackend::setEnsemble: ", err.message);
        ensemble_ = ensemble;
    }

    const EnsembleConfig& ensemble() const { return ensemble_; }

    /** The resolved noise composition this backend programs tiles with
     *  (explicit spec > SWORDFISH_NOISE override > kind preset). */
    const NoiseModel& noiseModel() const { return noise_; }

    /**
     * Program every crossbar-mapped weight of the model (see
     * compileWeight()). The evaluation entry points compile before the
     * first read; compiling must not run concurrently with matmuls.
     */
    CompileError compile(nn::SequenceModel& model);

    /**
     * The one place a weight is programmed: tile it (arch::TileGrid),
     * program its tiles (or its measured matrix) into its MappedWeight,
     * and register that record with the health monitor. Compiling a known
     * name again with the same shape does nothing; another shape is a
     * typed ShapeMismatch, not a panic.
     */
    CompileError compileWeight(const std::string& name, const Matrix& w);

    /** nn-layer compile hook: compileWeight() for the crossbar-mapped
     *  weights, panicking on a typed error. */
    void prepareWeight(const std::string& name, const Matrix& w) override;

    /**
     * matmulBatched() over the one-lane layout {{0, x.rows()}}: lane 0 of
     * the calling thread's batch, which beginRead() opens (read 0 when
     * none is open). The weight must have been compiled: a matmul on an
     * uncompiled weight, or on a compiled one whose shape changed,
     * panics. Concurrent calls only read the compiled weight map.
     */
    void matmul(const std::string& name, const Matrix& w, const Matrix& x,
                Matrix& y) override;

    void onActivations(Matrix& activations) override;

    /**
     * beginBatch({read_stream}): open a one-lane batch for one read on the
     * calling thread. Every serial matmul of that read then draws ADC
     * noise from the lane's stream, hash(runSeed, read_stream), so a
     * read's result depends only on (runSeed, read index) — never on
     * which thread executes it or how reads are interleaved.
     */
    void beginRead(std::uint64_t read_stream) override;

    /**
     * Open a batch on the calling thread: one conversion stream per lane,
     * seeded hash(runSeed, stream, tag) and keyed by the stream id for
     * execution faults. Batched matmuls interleave draws from the lane
     * streams so each lane reproduces its one-lane noise sequence bitwise.
     */
    void beginBatch(const std::vector<std::uint64_t>& streams) override;

    void endBatch() override;

    /**
     * Batched tiled VMM: executes the stacked operand as one multi-column
     * pass per tile — one trace span, one conversion pass, and one
     * gain/offset fold per batch — while normalizing inputs and drawing
     * conversion noise per lane. A thread with no batch open on this
     * backend first opens the read-0 lane; a lane outside the open batch
     * panics.
     */
    void matmulBatched(const std::string& name, const Matrix& w,
                       const Matrix& x, Matrix& y,
                       const BatchLayout& layout) override;

    void onActivationsRows(Matrix& m, std::size_t row_begin,
                           std::size_t row_end) override;

    /**
     * Per-parameter SRAM masks recorded while programming (1 = weight is
     * SRAM-resident). Used by RSA online retraining to restrict updates.
     */
    const std::map<std::string, std::vector<std::uint8_t>>&
    sramMasks() const
    {
        return sramMasks_;
    }

    /** Number of tiles programmed so far. */
    std::size_t programmedTiles() const { return tileCount_; }

    const NonIdealityConfig& config() const { return config_; }

    /**
     * The self-healing maintenance loop (see core/health.h), created when
     * the resolved RefreshConfig is enabled. Only the analytical modes have
     * live tiles to age/refresh; the measured mode snapshots chip
     * characterization data and has no healing runtime.
     */
    std::size_t
    healthEpochReads() const override
    {
        return health_ != nullptr ? health_->epochReads() : 0;
    }

    void
    healthEpochAdvance() override
    {
        if (health_ != nullptr)
            health_->advanceEpoch();
    }

    bool
    healthDegraded() const override
    {
        return health_ != nullptr && health_->degraded();
    }

    /** The monitor, or nullptr when healing is off. */
    const TileHealthMonitor* health() const { return health_.get(); }

  private:
    friend class TileHealthMonitor;

    /** The execution body of each modeling approach. */
    void runAnalytical(const MappedWeight& mw, const Matrix& x, Matrix& y,
                       const BatchLayout& layout, Rng* const* rngs);
    void runMeasured(const MappedWeight& mw, const Matrix& x, Matrix& y,
                     const BatchLayout& layout);
    /**
     * When healing is on it writes each tile's pre-fault digital
     * sub-matrix and its mapped conductance pair into mw.health (the
     * health monitor's ground truth for probes and re-programming).
     */
    void programAnalytical(MappedWeight& mw, const std::string& name,
                           const Matrix& w);
    void programMeasured(MappedWeight& mw, const std::string& name,
                         const Matrix& w);
    /** `sub` with its ideal conductance pair under the resolved toggles
     *  (CrossbarTile::mapConductances). */
    TileTruth mapTile(Matrix sub, float abs_max) const;
    /**
     * Program one tile of `truth` = mapTile(weights, abs_max) under the
     * resolved noise model; initial programming and the health monitor's
     * refresh both build tiles here.
     */
    crossbar::CrossbarTile programTile(const TileTruth& truth, float abs_max,
                                       std::uint64_t seed) const;
    /**
     * Program `count` ensemble replicas of the tile programmed from
     * `truth` with `seed`: replica j (1-based) is seeded hashSeed({seed,
     * kEnsembleTag, j}) and shares the tile's SRAM `mask` (SRAM cells are
     * one digital store, not re-programmed per replica).
     */
    std::vector<crossbar::CrossbarTile>
    programReplicas(const TileTruth& truth, float abs_max, std::uint64_t seed,
                    const std::vector<std::uint8_t>& mask,
                    std::size_t count) const;
    std::vector<std::uint8_t> selectSramCells(const Matrix& error,
                                              const std::string& name,
                                              std::size_t tile_index) const;

    NonIdealityConfig config_;
    NoiseModel noise_; ///< resolved composition (see noiseModel())
    FaultInjector faults_;
    EnsembleConfig ensemble_;
    std::uint64_t runSeed_;
    std::uint64_t instanceId_; ///< process-unique; keys the tls streams
    Quantizer activationQuant_;
    std::optional<crossbar::MeasurementLibrary> library_;
    SramRemapConfig remap_;
    // Written only by compileWeight(), before the first read; matmuls only
    // read it, so it needs no lock.
    std::map<std::string, MappedWeight> weights_;
    std::map<std::string, std::vector<std::uint8_t>> sramMasks_;
    std::size_t tileCount_ = 0;
    std::unique_ptr<TileHealthMonitor> health_; ///< null = healing off
};

} // namespace swordfish::core

#endif // SWORDFISH_CORE_VMM_BACKEND_H
