/**
 * @file
 * Self-healing crossbar runtime: online tile-health probes, drift-aware
 * refresh with bounded backoff, and spare-tile failover.
 *
 * Deployed memristor parts age: conductances drift toward HRS, so a tile
 * that was programmed accurately slowly stops computing the matrix it was
 * given. Real accelerators counter this with a maintenance loop — probe
 * tiles with known test vectors, re-program (R-V-W refresh) the ones whose
 * error crossed a threshold, and map persistently-failing tiles onto spare
 * arrays. The TileHealthMonitor implements that loop on top of the
 * analytical crossbar backend.
 *
 * Determinism contract (the same one the parallel evaluator keeps):
 *  - Time is simulated, not measured: reads are grouped into fixed-size
 *    *epochs* (RefreshConfig::epochReads()), each advancing simulated time
 *    by epochReads * ageHoursPerRead. Tiles are frozen while an epoch's
 *    reads are in flight; aging + probing + refresh happen serially at the
 *    epoch boundary. Results therefore depend only on (runSeed, refresh
 *    config, read index) — never on wall clock, thread count, or batching.
 *  - Every random draw of the maintenance loop (drift exponents, fresh
 *    programming noise, fault re-draws) is keyed by a pure function of
 *    (runSeed, weight name, tile position, epoch/generation/attempt), so a
 *    resumed run replays the exact healing history of an uninterrupted one.
 *  - With the config disabled the monitor is never constructed and the
 *    backend is bitwise identical to a build without this layer.
 *
 * Healing state machine per tile:
 *  - Each epoch the tile ages, then is probed: a fixed probe matrix P is
 *    pushed through the tile and the response is compared per output
 *    column against the reference captured right after the last successful
 *    (re)programming (drift error), while that reference itself is
 *    compared against the digital truth (programming error). A cheap
 *    checksum-column estimator (per-output weight sums) backs the probe.
 *  - When the error crosses RefreshConfig::thresholdError — or the
 *    interval-based schedule comes due — the tile is re-programmed with
 *    fresh programming noise and verified by a post-refresh probe. Failed
 *    attempts retry under exponential backoff (2^attempts epochs, capped).
 *  - After RefreshConfig::retries failed attempts the tile fails over to a
 *    spare array (fresh hardware generation, per-weight spare pool). When
 *    the pool is exhausted the tile is marked dead and the backend reports
 *    healthDegraded(): the evaluation loops then degrade subsequent reads
 *    to ReadOutcome::VmmFault instead of trusting poisoned outputs.
 *
 * Each backend gets its policy when it is built: the scenario's
 * NonIdealityConfig::refresh when set (even all-off), else
 * envRefreshConfig(), the SWORDFISH_REFRESH spec, e.g.
 *   SWORDFISH_REFRESH="age_h_per_read=2,threshold=0.25,spares=2,retries=2"
 * Nothing changes a backend's policy afterwards.
 */

#ifndef SWORDFISH_CORE_HEALTH_H
#define SWORDFISH_CORE_HEALTH_H

#include <cstdint>
#include <string>
#include <vector>

#include "crossbar/crossbar.h"
#include "tensor/matrix.h"

namespace swordfish::core {

class CrossbarVmmBackend;
struct MappedWeight;

/**
 * The refresh / self-healing policy. All fields default to "off"; the
 * monitor only runs when enabled() is true.
 */
struct RefreshConfig
{
    /**
     * Probe-error threshold triggering a refresh (relative per-column
     * error). 0 disables threshold-based refresh; interval-only configs
     * then accept any re-programming result without a verify gate.
     */
    double thresholdError = 0.0;

    /** Scheduled refresh period in simulated hours (0 = no schedule). */
    double intervalHours = 0.0;

    /**
     * Simulated aging per read in hours: the bridge between read count and
     * device time. 0 = tiles do not age (probes still run when threshold
     * is set, catching programming faults).
     */
    double ageHoursPerRead = 0.0;

    /** Spare tiles per weight matrix available for failover. */
    std::size_t spares = 0;

    /** Refresh attempts on one physical tile before failing over. */
    std::size_t retries = 2;

    /** Epoch length in reads (used when probeHours is 0). */
    std::size_t probeReads = 32;

    /**
     * Epoch length in simulated hours; when > 0 (requires aging) it
     * overrides probeReads: epochReads() = probeHours / ageHoursPerRead.
     */
    double probeHours = 0.0;

    /** Drift law applied by the aging step (overridable for tests). */
    crossbar::DriftConfig drift;

    /** True when the maintenance loop should run at all. */
    bool
    enabled() const
    {
        return thresholdError > 0.0 || intervalHours > 0.0
            || ageHoursPerRead > 0.0;
    }

    /** Reads per epoch (>= 1), derived from probeHours when set. */
    std::size_t epochReads() const;

    /** Simulated hours one epoch advances time by. */
    double
    epochHours() const
    {
        return static_cast<double>(epochReads()) * ageHoursPerRead;
    }

    /**
     * Parse an "age_h_per_read=2,threshold=0.25,spares=2" spec (commas,
     * semicolons, or spaces separate tokens; keys: interval_h, threshold,
     * age_h_per_read, spares, retries, probe_reads, probe_h, nu, nu_sigma,
     * t0_h). On failure returns false and sets `error`; `out` is left
     * untouched.
     */
    static bool parse(const std::string& spec, RefreshConfig& out,
                      std::string& error);

    /** One-line JSON dump (embedded in bench output / metrics context). */
    std::string toJson() const;
};

/**
 * SWORDFISH_REFRESH, parsed once: the policy of every backend whose
 * scenario sets none. A malformed spec is fatal.
 */
const RefreshConfig& envRefreshConfig();

/** Env var naming the refresh spec ("" / unset disables healing). */
inline constexpr const char* kRefreshEnv = "SWORDFISH_REFRESH";

/**
 * What a tile was meant to hold: its pre-fault digital sub-matrix and that
 * sub-matrix's ideal conductance pair, from which a refresh re-programs
 * the tile and its ensemble replicas without mapping it again.
 */
struct TileTruth
{
    Matrix weights;
    crossbar::ConductancePair mapped;
};

/** Probe-side healing state of one tile. */
struct TileHealth
{
    TileTruth truth;   ///< pre-fault sub-weights and conductances
    Matrix probe;      ///< fixed probe matrix P [kProbeRows x in]
    Matrix truthRef;   ///< P * truth^T: the ideal probe response
    Matrix reference;  ///< P * eff^T captured at last (re)program
    std::vector<float> checksumRef; ///< per-output column sums of eff
    double progError = 0.0;     ///< reference-vs-truth probe error
    std::size_t attempts = 0;   ///< failed refreshes since last success
    std::uint64_t nextAttemptEpoch = 0; ///< backoff gate
    std::uint64_t generation = 0;       ///< physical array instance
    double lastRefreshHours = 0.0;      ///< schedule anchor
    bool dead = false;
};

/** Healing state of one weight matrix (owns its spare pool). */
struct WeightHealth
{
    std::size_t sparesLeft = 0;
    std::vector<TileHealth> tiles; ///< grid order, as the weight's tiles
};

/** Cumulative healing activity of one monitor (also exported as metrics). */
struct HealthStats
{
    std::uint64_t epochs = 0;           ///< advanceEpoch() calls (+ replays)
    std::uint64_t probes = 0;           ///< tile probes run
    std::uint64_t unhealthy = 0;        ///< probes that flagged a tile
    std::uint64_t refreshAttempts = 0;  ///< re-programming attempts
    std::uint64_t refreshSuccesses = 0; ///< attempts that passed verify
    std::uint64_t refreshFailures = 0;  ///< attempts that failed verify
    std::uint64_t failovers = 0;        ///< spares consumed
    std::uint64_t deadTiles = 0;        ///< tiles beyond repair (current)
    double worstError = 0.0;            ///< max probe error, last epoch
};

/**
 * The maintenance loop over one backend's programmed tiles. Owned by the
 * backend; all entry points run serially with respect to matmuls (the
 * backend's compile calls registerWeight() before the first read, and the
 * evaluation loops call healthEpochAdvance() only between read blocks).
 */
class TileHealthMonitor
{
  public:
    TileHealthMonitor(CrossbarVmmBackend& backend,
                      const RefreshConfig& config);

    /**
     * Track a freshly-programmed weight. `mw.health.tiles` holds the
     * pre-fault truth of each tile in grid order — the ground truth the
     * probes compare against (a tile killed by a programming fault is
     * detected precisely because its truth is *not* zero) and the mapping
     * its refreshes start from; this fills in the rest of each tile's
     * healing state. Weights register at compile, before the first
     * epoch; a resumed run replays its elapsed epochs afterwards, over
     * every weight at once.
     */
    void registerWeight(const std::string& name, MappedWeight& mw);

    /**
     * Close the current epoch: age every tile by epochHours(), probe tile
     * health, refresh / fail over unhealthy tiles, export metrics. Walks
     * the backend's weights in name order. Must not run concurrently
     * with matmuls on this backend. Ensemble replicas age only when their
     * tile is not re-programmed this epoch: a refresh replaces them, and
     * nothing reads them in between.
     */
    void advanceEpoch();

    /** True once any tile is dead (spares exhausted). */
    bool degraded() const { return deadTiles_ > 0; }

    /** Epoch length in reads (>= 1). */
    std::size_t epochReads() const { return config_.epochReads(); }

    /** Epochs advanced so far. */
    std::uint64_t epoch() const { return epoch_; }

    const HealthStats& stats() const { return stats_; }
    const RefreshConfig& config() const { return config_; }

    TileHealthMonitor(const TileHealthMonitor&) = delete;
    TileHealthMonitor& operator=(const TileHealthMonitor&) = delete;

  private:
    /** Run epoch `e` (aging + probe + refresh) over one weight. */
    void advanceWeight(const std::string& name, MappedWeight& mw,
                       std::uint64_t e);

    /** Age one tile by epochHours() with a per-(tile, epoch) stream. */
    void ageTile(const std::string& name, MappedWeight& mw, std::size_t idx,
                 std::uint64_t e);

    /** Age the tile's ensemble replicas likewise, each on its own
     *  replica-keyed stream. */
    void ageReplicas(const std::string& name, MappedWeight& mw,
                     std::size_t idx, std::uint64_t e);

    /**
     * Probe error of the tile's current state against its reference:
     * max over output columns of the relative response error, with a
     * persistently-stuck column (FaultSite::VmmStuck keyed per hardware
     * generation) emulated on the probe response.
     */
    double driftError(const std::string& name, const MappedWeight& mw,
                      std::size_t idx) const;

    /**
     * Re-program the tile and its ensemble replicas from the mapped probe
     * truth (fresh noise + fault re-draw for the current
     * generation/attempt, through the backend's tile-programming path),
     * re-apply its SRAM remap, capture the new reference, and verify it
     * against the threshold. True on success.
     */
    bool attemptRefresh(const std::string& name, MappedWeight& mw,
                        std::size_t idx, std::uint64_t e);

    CrossbarVmmBackend& backend_;
    RefreshConfig config_;
    std::uint64_t epoch_ = 0;
    std::size_t deadTiles_ = 0;
    HealthStats stats_;
};

} // namespace swordfish::core

#endif // SWORDFISH_CORE_HEALTH_H
