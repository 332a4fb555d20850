/**
 * @file
 * Environment-variable helpers and the consolidated runtime configuration.
 *
 * All process-wide SWORDFISH_* knobs are gathered into one RuntimeConfig
 * snapshot read once at first use; subsystems query runtimeConfig() instead
 * of scattering getenv() calls. The raw envFlag/envLong helpers remain for
 * bench-local knobs that are not part of the shared configuration surface.
 */

#ifndef SWORDFISH_UTIL_ENV_H
#define SWORDFISH_UTIL_ENV_H

#include <cstdlib>
#include <string>

namespace swordfish {

/** True when the named environment variable is set to a truthy value. */
inline bool
envFlag(const char* name)
{
    const char* v = std::getenv(name);
    if (v == nullptr)
        return false;
    const std::string s(v);
    return !(s.empty() || s == "0" || s == "false" || s == "off");
}

/** Integer environment variable with fallback. */
inline long
envLong(const char* name, long fallback)
{
    const char* v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    return (end == v) ? fallback : parsed;
}

/**
 * Process-wide runtime knobs, captured from the environment exactly once.
 *
 * Numeric fields use -1 as the "unset" sentinel so that explicit zeros
 * (e.g. SWORDFISH_THREADS=0 for a serial pool) stay distinguishable from
 * absent variables. Consumers that need a resolved value use the accessor
 * helpers below the raw fields.
 */
struct RuntimeConfig
{
    long threads = -1;       ///< SWORDFISH_THREADS; -1 = hardware concurrency
    long batch = -1;         ///< SWORDFISH_BATCH; -1 = 1 (no batching)
    bool fast = false;       ///< SWORDFISH_FAST
    long evalReads = -1;     ///< SWORDFISH_EVAL_READS; -1 = caller default
    long evalRuns = -1;      ///< SWORDFISH_EVAL_RUNS; -1 = caller default
    long retrainEpochs = -1; ///< SWORDFISH_RETRAIN_EPOCHS; -1 = caller default
    std::string metricsOut;  ///< SWORDFISH_METRICS_OUT; empty = no dump
    std::string artifacts;   ///< SWORDFISH_ARTIFACTS; empty = caller default
    std::string faults;      ///< SWORDFISH_FAULTS; empty = no injection
    std::string chaos;       ///< SWORDFISH_CHAOS; empty = no service chaos
    std::string refresh;     ///< SWORDFISH_REFRESH; empty = healing off
    std::string simd;        ///< SWORDFISH_SIMD; empty = auto-detect
    std::string noise;       ///< SWORDFISH_NOISE; empty = per-scenario presets

    /** Pool width: the env override, else hardware concurrency (min 1). */
    std::size_t poolThreads() const;

    /** Evaluation batch capacity: the env override, else 1. */
    std::size_t
    batchSize() const
    {
        return batch > 0 ? static_cast<std::size_t>(batch) : 1;
    }

    /** One-line JSON dump of the knobs (embedded in metrics snapshots). */
    std::string toJson() const;

    /** Capture a fresh snapshot from the current environment. */
    static RuntimeConfig fromEnvironment();
};

/**
 * The process-wide configuration snapshot, captured on first call.
 * Later environment mutations are intentionally not observed.
 */
const RuntimeConfig& runtimeConfig();

/**
 * Fast-mode switch: benches shrink run counts / dataset sizes when
 * SWORDFISH_FAST=1 so the whole suite can be smoke-tested quickly.
 */
inline bool
fastMode()
{
    return runtimeConfig().fast;
}

} // namespace swordfish

#endif // SWORDFISH_UTIL_ENV_H
