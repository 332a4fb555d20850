#include "health.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/vmm_backend.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/spec.h"

namespace swordfish::core {

namespace {

/** Probe vectors per tile: enough rows to average programming noise while
 *  keeping the per-epoch probe cost negligible next to one read. */
constexpr std::size_t kProbeRows = 4;

// Distinct hash tags so every maintenance-loop draw is its own stream.
constexpr std::uint64_t kProbeTag = 0x9e417bULL;      ///< probe matrix
constexpr std::uint64_t kAgeTag = 0xa9e7a9ULL;        ///< drift exponents
constexpr std::uint64_t kReprogramTag = 0x3ef3e54ULL; ///< fresh prog noise
constexpr std::uint64_t kRebuildTag = 0x3b171dULL;    ///< fault re-draw
constexpr std::uint64_t kStuckTag = 0x57c4c01ULL;     ///< stuck-column key

/**
 * Relative response error per output column, max over columns. The
 * denominator mixes the column's own magnitude with a full-tile floor
 * (`floor_scale`, ~the response of a healthy tile at absMax) so all-zero
 * or near-zero columns don't divide programming noise by nothing.
 */
double
columnError(const Matrix& got, const Matrix& want, double floor_scale)
{
    if (want.size() == 0 || got.rows() != want.rows()
        || got.cols() != want.cols())
        return 0.0;
    double all = 0.0;
    for (const float v : want.raw())
        all += static_cast<double>(v) * v;
    const double rms_all =
        std::sqrt(all / static_cast<double>(want.size()));
    const auto rows = static_cast<double>(want.rows());
    double worst = 0.0;
    for (std::size_t o = 0; o < want.cols(); ++o) {
        double num = 0.0, den = 0.0;
        for (std::size_t r = 0; r < want.rows(); ++r) {
            const double d = static_cast<double>(got(r, o)) - want(r, o);
            num += d * d;
            den += static_cast<double>(want(r, o)) * want(r, o);
        }
        const double denom = std::sqrt(den / rows) + 0.05 * rms_all
            + floor_scale + 1e-12;
        worst = std::max(worst, std::sqrt(num / rows) / denom);
    }
    return worst;
}

} // namespace

std::size_t
RefreshConfig::epochReads() const
{
    if (probeHours > 0.0 && ageHoursPerRead > 0.0) {
        const double n = probeHours / ageHoursPerRead;
        return n < 1.0 ? 1 : static_cast<std::size_t>(n + 0.5);
    }
    return probeReads > 0 ? probeReads : 1;
}

bool
RefreshConfig::parse(const std::string& spec, RefreshConfig& out,
                     std::string& error)
{
    RefreshConfig cfg;
    auto non_negative = [&](const std::string& key,
                            const std::string& value,
                            double& field) -> bool {
        double v = 0.0;
        if (!parseFiniteDouble(value, v) || v < 0.0) {
            error = "refresh spec: '" + key
                + "' must be a non-negative number, got '" + value + "'";
            return false;
        }
        field = v;
        return true;
    };
    auto count = [&](const std::string& key, const std::string& value,
                     std::size_t& field, std::uint64_t max) -> bool {
        std::uint64_t n = 0;
        if (!parseU64(value, n) || n > max) {
            error = "refresh spec: bad '" + key + "' value '" + value + "'";
            return false;
        }
        field = static_cast<std::size_t>(n);
        return true;
    };
    const auto on_pair = [&](const std::string& key,
                             const std::string& value) -> bool {
        if (key == "threshold")
            return non_negative(key, value, cfg.thresholdError);
        if (key == "interval_h")
            return non_negative(key, value, cfg.intervalHours);
        if (key == "age_h_per_read")
            return non_negative(key, value, cfg.ageHoursPerRead);
        if (key == "probe_h")
            return non_negative(key, value, cfg.probeHours);
        if (key == "nu")
            return non_negative(key, value, cfg.drift.nu);
        if (key == "nu_sigma")
            return non_negative(key, value, cfg.drift.nuSigma);
        if (key == "t0_h") {
            if (!non_negative(key, value, cfg.drift.t0Hours))
                return false;
            if (cfg.drift.t0Hours <= 0.0) {
                error = "refresh spec: 't0_h' must be > 0";
                return false;
            }
            return true;
        }
        if (key == "spares")
            return count(key, value, cfg.spares, 1000000);
        if (key == "retries")
            return count(key, value, cfg.retries, 1000);
        if (key == "probe_reads") {
            if (!count(key, value, cfg.probeReads, 1000000000))
                return false;
            if (cfg.probeReads == 0) {
                error = "refresh spec: 'probe_reads' must be >= 1";
                return false;
            }
            return true;
        }
        error = "refresh spec: unknown key '" + key + "'";
        return false;
    };
    if (!parseKeyValueSpec(spec, "refresh", error, on_pair))
        return false;
    if ((cfg.intervalHours > 0.0 || cfg.probeHours > 0.0)
        && cfg.ageHoursPerRead == 0.0) {
        error = "refresh spec: 'interval_h'/'probe_h' need "
                "'age_h_per_read' > 0 to map reads onto simulated time";
        return false;
    }
    out = cfg;
    return true;
}

std::string
RefreshConfig::toJson() const
{
    std::ostringstream os;
    os << "{\"threshold\":" << thresholdError
       << ",\"interval_h\":" << intervalHours
       << ",\"age_h_per_read\":" << ageHoursPerRead
       << ",\"spares\":" << spares << ",\"retries\":" << retries
       << ",\"probe_reads\":" << probeReads << ",\"probe_h\":" << probeHours
       << ",\"nu\":" << drift.nu << ",\"nu_sigma\":" << drift.nuSigma
       << ",\"t0_h\":" << drift.t0Hours << "}";
    return os.str();
}

const RefreshConfig&
envRefreshConfig()
{
    static const RefreshConfig cfg = [] {
        RefreshConfig parsed;
        std::string error;
        if (!RefreshConfig::parse(runtimeConfig().refresh, parsed, error))
            fatal("SWORDFISH_REFRESH: ", error);
        return parsed;
    }();
    return cfg;
}

TileHealthMonitor::TileHealthMonitor(CrossbarVmmBackend& backend,
                                     const RefreshConfig& config)
    : backend_(backend), config_(config)
{
}

crossbar::CrossbarTile&
TileHealthMonitor::liveTile(const std::string& name, std::size_t idx) const
{
    auto it = backend_.weights_.find(name);
    if (it == backend_.weights_.end())
        panic("TileHealthMonitor: weight ", name, " vanished");
    return it->second.tiles[idx];
}

void
TileHealthMonitor::captureReference(const std::string& name,
                                    WeightState& ws, std::size_t idx)
{
    TileState& ts = ws.tiles[idx];
    const Matrix& eff = liveTile(name, idx).effectiveWeights();
    gemmBT(ts.probe, eff, ts.reference);
    ts.checksumRef.assign(eff.rows(), 0.0f);
    for (std::size_t o = 0; o < eff.rows(); ++o) {
        double sum = 0.0;
        for (std::size_t i = 0; i < eff.cols(); ++i)
            sum += eff(o, i);
        ts.checksumRef[o] = static_cast<float>(sum);
    }
    const double floor_scale = 0.2
        * static_cast<double>(backend_.weights_.find(name)->second.absMax)
        * std::sqrt(static_cast<double>(ts.truth.cols()));
    ts.progError = columnError(ts.reference, ts.truthRef, floor_scale);
}

void
TileHealthMonitor::registerWeight(const std::string& name,
                                  std::vector<Matrix> truths)
{
    auto it = backend_.weights_.find(name);
    if (it == backend_.weights_.end())
        panic("TileHealthMonitor::registerWeight: ", name,
              " not programmed");
    WeightState ws;
    ws.sparesLeft = config_.spares;
    const std::size_t n = it->second.tiles.size();
    if (truths.size() != n)
        panic("TileHealthMonitor::registerWeight: ", name, " has ", n,
              " tiles but ", truths.size(), " truth blocks");
    ws.tiles.resize(n);
    const std::uint64_t name_hash = std::hash<std::string>{}(name);
    for (std::size_t idx = 0; idx < n; ++idx) {
        TileState& ts = ws.tiles[idx];
        ts.truth = std::move(truths[idx]);
        // The probe matrix is keyed by tile position only (not the run
        // seed): probing strategy is part of the maintenance procedure,
        // not of the sampled hardware instance.
        Rng pr(hashSeed({kProbeTag, name_hash, idx}));
        ts.probe = Matrix(kProbeRows, ts.truth.cols());
        for (float& v : ts.probe.raw())
            v = static_cast<float>(pr.uniform(-1.0, 1.0));
        gemmBT(ts.probe, ts.truth, ts.truthRef);
    }
    WeightState& slot = states_[name] = std::move(ws);
    for (std::size_t idx = 0; idx < n; ++idx)
        captureReference(name, slot, idx);
}

void
TileHealthMonitor::ageTile(const std::string& name, std::size_t idx,
                           std::uint64_t e)
{
    const double hours = config_.epochHours();
    if (hours <= 0.0)
        return;
    const std::uint64_t name_hash = std::hash<std::string>{}(name);
    Rng rng(hashSeed({backend_.runSeed_, name_hash, idx, e, kAgeTag}));
    liveTile(name, idx).applyDrift(hours, config_.drift, rng);
    // Ensemble replicas age alongside the primary, each on its own
    // replica-keyed stream (independent hardware, independent drift).
    auto& reps = backend_.weights_.find(name)->second.extras[idx];
    for (std::size_t j = 0; j < reps.size(); ++j) {
        Rng rep_rng(hashSeed({backend_.runSeed_, name_hash, idx, e,
                              kAgeTag, kEnsembleTag, j + 1}));
        reps[j].applyDrift(hours, config_.drift, rep_rng);
    }
}

double
TileHealthMonitor::driftError(const std::string& name,
                              const WeightState& ws, std::size_t idx) const
{
    const TileState& ts = ws.tiles[idx];
    Matrix cur;
    gemmBT(ts.probe, liveTile(name, idx).effectiveWeights(), cur);
    // Persistently-stuck output column (a defective sense amp on this
    // physical array): keyed per hardware generation, so only failover —
    // not re-programming — can clear it.
    const FaultInjector& inj = backend_.faults_;
    if (inj.enabled() && cur.cols() > 0) {
        const std::uint64_t key = hashSeed({std::hash<std::string>{}(name),
                                            idx, ts.generation, kStuckTag});
        if (inj.fires(FaultSite::VmmStuck, key)) {
            const std::size_t col = static_cast<std::size_t>(
                inj.draw(FaultSite::VmmStuck, key, cur.cols()));
            for (std::size_t r = 0; r < cur.rows(); ++r)
                cur(r, col) = 0.0f;
        }
    }
    const double floor_scale = 0.2
        * static_cast<double>(backend_.weights_.find(name)->second.absMax)
        * std::sqrt(static_cast<double>(ts.truth.cols()));
    return columnError(cur, ts.reference, floor_scale);
}

double
TileHealthMonitor::checksumError(const std::string& name,
                                 const WeightState& ws,
                                 std::size_t idx) const
{
    const TileState& ts = ws.tiles[idx];
    const Matrix& eff = liveTile(name, idx).effectiveWeights();
    if (ts.checksumRef.size() != eff.rows())
        return 0.0;
    float max_ref = 0.0f;
    for (const float v : ts.checksumRef)
        max_ref = std::max(max_ref, std::fabs(v));
    const double floor_scale = 0.2
        * static_cast<double>(backend_.weights_.find(name)->second.absMax)
        * std::sqrt(static_cast<double>(ts.truth.cols()));
    double worst = 0.0;
    for (std::size_t o = 0; o < eff.rows(); ++o) {
        double sum = 0.0;
        for (std::size_t i = 0; i < eff.cols(); ++i)
            sum += eff(o, i);
        worst = std::max(worst,
                         std::fabs(sum - ts.checksumRef[o])
                             / (max_ref + floor_scale + 1e-12));
    }
    return worst;
}

bool
TileHealthMonitor::attemptRefresh(const std::string& name, WeightState& ws,
                                  std::size_t idx, std::uint64_t e)
{
    static const Counter kAttempts =
        metrics().counter("health.refresh.attempts");
    kAttempts.add();
    ++stats_.refreshAttempts;

    TileState& ts = ws.tiles[idx];
    auto& mw = backend_.weights_.find(name)->second;
    const std::uint64_t name_hash = std::hash<std::string>{}(name);

    // The rebuild starts from the probe truth, not the tile's own weights,
    // which a programming fault may have zeroed. Each attempt is an
    // independent R-V-W pass (on fresh hardware after a failover), so the
    // programming fault re-draws per (generation, attempt, epoch) instead
    // of replaying the original outcome.
    Matrix sub = ts.truth;
    const FaultInjector& inj = backend_.faults_;
    if (inj.enabled()
        && inj.fires(FaultSite::TileProgram,
                     hashSeed({name_hash, idx, ts.generation, ts.attempts,
                               e, kRebuildTag})))
        sub.zero();

    const std::uint64_t seed = hashSeed({backend_.runSeed_, name_hash, idx,
                                         ts.generation, ts.attempts, e,
                                         kReprogramTag});
    // SRAM cells are one digital store: the fresh tile and every replica
    // keep the remap. A refresh re-programs the whole replica group.
    const std::vector<std::uint8_t> mask = mw.tiles[idx].sramMask();
    crossbar::CrossbarTile fresh = backend_.programTile(sub, mw.absMax, seed);
    if (!mask.empty())
        fresh.remapCellsToSram(mask);
    mw.tiles[idx] = std::move(fresh);
    mw.extras[idx] = backend_.programReplicas(sub, mw.absMax, seed, mask,
                                              mw.extras[idx].size());
    captureReference(name, ws, idx);

    // Post-refresh verify probe: threshold-less (interval-only) configs
    // accept any re-programming result.
    const double verify_threshold = config_.thresholdError > 0.0
        ? config_.thresholdError
        : std::numeric_limits<double>::infinity();
    const double err = std::max(ts.progError, driftError(name, ws, idx));
    return err <= verify_threshold;
}

void
TileHealthMonitor::advanceWeight(const std::string& name, WeightState& ws,
                                 std::uint64_t e)
{
    static const Counter kProbes = metrics().counter("health.probe.count");
    static const Counter kUnhealthy =
        metrics().counter("health.probe.unhealthy");
    static const Counter kSuccess =
        metrics().counter("health.refresh.success");
    static const Counter kFailure =
        metrics().counter("health.refresh.failure");
    static const Counter kFailover =
        metrics().counter("health.failover.count");
    static const Counter kDead = metrics().counter("health.tile.died");

    const double sim_h = static_cast<double>(e) * config_.epochHours();
    const std::size_t n = ws.tiles.size();
    for (std::size_t idx = 0; idx < n; ++idx)
        ageTile(name, idx, e);

    for (std::size_t idx = 0; idx < n; ++idx) {
        TileState& ts = ws.tiles[idx];
        if (ts.dead)
            continue;
        kProbes.add();
        ++stats_.probes;
        // Full probe plus the cheap checksum estimator: either crossing
        // the threshold flags the tile.
        const double err = std::max({ts.progError,
                                     driftError(name, ws, idx),
                                     checksumError(name, ws, idx)});
        stats_.worstError = std::max(stats_.worstError, err);
        const bool unhealthy = config_.thresholdError > 0.0
            && err > config_.thresholdError;
        const bool due = config_.intervalHours > 0.0
            && sim_h - ts.lastRefreshHours >= config_.intervalHours;
        if (unhealthy) {
            kUnhealthy.add();
            ++stats_.unhealthy;
        }
        if (!(unhealthy || due) || e < ts.nextAttemptEpoch)
            continue;

        if (attemptRefresh(name, ws, idx, e)) {
            kSuccess.add();
            ++stats_.refreshSuccesses;
            ts.attempts = 0;
            ts.lastRefreshHours = sim_h;
            continue;
        }
        kFailure.add();
        ++stats_.refreshFailures;
        ++ts.attempts;
        if (ts.attempts < config_.retries) {
            // Bounded exponential backoff: 2, 4, ... up to 64 epochs.
            ts.nextAttemptEpoch = e
                + (std::uint64_t{1}
                   << std::min<std::size_t>(ts.attempts, 6));
            continue;
        }
        // Retries exhausted on this physical array: fail over to a spare.
        if (ws.sparesLeft == 0) {
            ts.dead = true;
            ++deadTiles_;
            kDead.add();
            continue;
        }
        --ws.sparesLeft;
        ++ts.generation;
        ts.attempts = 0;
        kFailover.add();
        ++stats_.failovers;
        if (attemptRefresh(name, ws, idx, e)) {
            kSuccess.add();
            ++stats_.refreshSuccesses;
            ts.lastRefreshHours = sim_h;
        } else {
            kFailure.add();
            ++stats_.refreshFailures;
            ts.attempts = 1;
            ts.nextAttemptEpoch = e + 2;
        }
    }
}

void
TileHealthMonitor::advanceEpoch()
{
    static const Gauge kErrGauge = metrics().gauge("health.tile.error");
    static const Gauge kEpochGauge = metrics().gauge("health.epoch");
    static const Gauge kDeadGauge = metrics().gauge("health.tile.dead");
    static const Gauge kSparesGauge =
        metrics().gauge("health.spares.left");

    ++epoch_;
    simHours_ = static_cast<double>(epoch_) * config_.epochHours();
    ++stats_.epochs;
    stats_.worstError = 0.0;
    std::size_t spares_left = 0;
    for (auto& [name, ws] : states_) {
        advanceWeight(name, ws, epoch_);
        spares_left += ws.sparesLeft;
    }
    stats_.deadTiles = deadTiles_;
    kErrGauge.set(stats_.worstError);
    kEpochGauge.set(static_cast<double>(epoch_));
    kDeadGauge.set(static_cast<double>(deadTiles_));
    kSparesGauge.set(static_cast<double>(spares_left));
}

} // namespace swordfish::core
