/**
 * @file
 * Deterministic, seed-driven fault injection for the evaluation stack.
 *
 * Swordfish evaluates *non-ideal* hardware, and PUMA-style accelerators
 * treat per-tile failure as an expected operating condition — so the
 * framework degrades gracefully instead of aborting a whole Monte-Carlo
 * campaign on the first bad read or poisoned VMM. Every fault site
 * consults a FaultInjector.
 *
 * Design rules (mirroring the per-read noise streams of the parallel
 * evaluator):
 *  - Pure firing schedule: whether a fault fires at (site, key) is a pure
 *    function of (fault seed, site, key) — never of call order, thread
 *    interleaving, or batch grouping. With a fixed fault seed, outcomes are
 *    bitwise identical across any thread x batch grid.
 *  - Zero overhead when disabled: every site checks one cached flag and
 *    bails, so with no fault config the binary behaves exactly as a build
 *    without this layer.
 *  - Off the noise streams: fault decisions hash their own tag and never
 *    draw from the conversion-noise RNGs, so enabling a site with
 *    probability 0 is also bitwise-invisible.
 *
 * Sites (env spec name in parentheses):
 *  - ReadDecode (decode): read fails to decode; skipped, ReadOutcome::DecodeError.
 *  - Chunk (chunk): signal chunking/normalization fails; same handling.
 *  - TileProgram (program): a crossbar tile fails to program; the tile comes
 *    up dead (all-zero weights) and execution continues.
 *  - VmmNan (vmm.nan): the VMM output of a read is NaN/Inf-poisoned; the
 *    read is skipped as ReadOutcome::VmmFault.
 *  - VmmStuck (vmm.stuck): one output column of every VMM of a read sticks
 *    at zero; silent accuracy degradation, the read still counts.
 *  - WorkerTask (task): transient worker failure; the attempt is discarded
 *    and retried (bounded) with a fresh noise stream.
 *
 * Service (swordfishd) chaos sites, keyed on (seed, site, job id) so a
 * chaos schedule is replayable run to run:
 *  - SpoolWrite (service.spool.write): a spool record write is dropped.
 *  - SpoolRead (service.spool.read): a spool record reads as corrupt at
 *    restart and is quarantined.
 *  - JobThrow (service.job.throw): job execution throws a transient error
 *    before running; exercises retry/backoff.
 *  - JobStall (service.job.stall): the job stalls at block boundaries;
 *    exercises deadline enforcement.
 *  - ConnDrop (service.conn.drop): the daemon side of a connection drops
 *    without replying.
 *
 * Ownership: an injector is an immutable value, and each owner gets its
 * config when it is built — an evaluation from EvalRequest::faults, a
 * crossbar backend from its constructor (BackendSpec::faults through the
 * registry), swordfishd from JobManagerConfig::chaos — so jobs with
 * different campaigns run side by side. Evaluations and backends consult
 * only the evaluation sites; the daemon consults only the service.* sites.
 * An owner given no config takes envFaultConfig(): SWORDFISH_FAULTS, e.g.
 *   SWORDFISH_FAULTS="seed=42,retries=2,decode=0.05,vmm.nan=0.1,task=0.2"
 * with SWORDFISH_CHAOS (same grammar) appended after it (later tokens
 * win), so a service chaos drill composes with — or stands apart from — an
 * evaluation fault campaign.
 */

#ifndef SWORDFISH_UTIL_FAULT_H
#define SWORDFISH_UTIL_FAULT_H

#include <array>
#include <cstdint>
#include <string>

#include "util/rng.h"

namespace swordfish {

/** Named fault sites; values index FaultConfig::probability. */
enum class FaultSite : std::size_t {
    ReadDecode = 0,
    Chunk,
    TileProgram,
    VmmNan,
    VmmStuck,
    WorkerTask,
    // Service-layer chaos sites (swordfishd supervision drills).
    SpoolWrite,
    SpoolRead,
    JobThrow,
    JobStall,
    ConnDrop,
};

inline constexpr std::size_t kFaultSiteCount = 11;

/** The env-spec name of a site ("decode", "vmm.nan", ...). */
const char* faultSiteName(FaultSite site);

/** One injection campaign: seed, retry budget, per-site probabilities. */
struct FaultConfig
{
    std::uint64_t seed = 1;   ///< firing-schedule seed
    std::size_t maxRetries = 2; ///< retry budget for transient faults
    std::array<double, kFaultSiteCount> probability{}; ///< all 0 = off

    double
    p(FaultSite site) const
    {
        return probability[static_cast<std::size_t>(site)];
    }

    void
    setP(FaultSite site, double prob)
    {
        probability[static_cast<std::size_t>(site)] = prob;
    }

    /** True when any site can fire. */
    bool anyEnabled() const;

    /**
     * Parse a "seed=42,decode=0.1,vmm.nan=0.05,retries=1" spec (commas,
     * semicolons, or spaces separate tokens). On failure returns false and
     * sets `error`; `out` is left untouched.
     */
    static bool parse(const std::string& spec, FaultConfig& out,
                      std::string& error);

    /** One-line JSON dump (embedded in bench output / metrics context). */
    std::string toJson() const;
};

/**
 * The firing schedule of one FaultConfig. Immutable once built: owners
 * (an evaluation, a backend, the daemon) hold their own by value.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig& cfg = {});

    /** True when at least one site has a nonzero probability. */
    bool enabled() const { return enabled_; }

    std::size_t maxRetries() const { return cfg_.maxRetries; }

    /**
     * Whether the fault at (site, key) fires: a pure function of
     * (seed, site, key). p=0 never fires, p=1 always fires.
     */
    bool fires(FaultSite site, std::uint64_t key) const;

    /**
     * Deterministic pick in [0, n) for a fired fault (e.g. which output
     * column sticks). Pure function of (seed, site, key). n must be > 0.
     */
    std::uint64_t draw(FaultSite site, std::uint64_t key,
                       std::uint64_t n) const;

    /**
     * Key for retry attempt `attempt` (>= 1) of a transient fault on
     * `read_stream`; also used as the fresh conversion-noise stream of the
     * retried attempt, so a retry re-executes with new noise.
     */
    static std::uint64_t retryStream(std::uint64_t read_stream,
                                     std::size_t attempt);

    /**
     * Stable key for a service entity named by a string (job id, spool
     * file name): FNV-1a over the bytes, so a chaos schedule keyed on it
     * replays identically across daemon restarts and machines.
     */
    static std::uint64_t serviceKey(const std::string& name);

  private:
    FaultConfig cfg_;
    bool enabled_;
};

/**
 * SWORDFISH_FAULTS followed by SWORDFISH_CHAOS, parsed once: the config
 * of every owner not given one. A malformed spec is fatal.
 */
const FaultConfig& envFaultConfig();

/** Env var naming the fault spec ("" / unset disables injection). */
inline constexpr const char* kFaultsEnv = "SWORDFISH_FAULTS";

/** Env var naming the service chaos spec, appended after SWORDFISH_FAULTS
 *  (same grammar; later tokens win). */
inline constexpr const char* kChaosEnv = "SWORDFISH_CHAOS";

} // namespace swordfish

#endif // SWORDFISH_UTIL_FAULT_H
