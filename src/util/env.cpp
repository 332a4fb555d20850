#include "env.h"

#include <thread>

#include "util/json.h"

namespace swordfish {

namespace {

std::string
envString(const char* name)
{
    const char* v = std::getenv(name);
    return v == nullptr ? std::string() : std::string(v);
}

} // namespace

std::size_t
RuntimeConfig::poolThreads() const
{
    if (threads >= 0)
        return static_cast<std::size_t>(threads);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::string
RuntimeConfig::toJson() const
{
    // Shared JSON writer so metrics snapshots, JobSpecs, and wire frames
    // all escape and format identically.
    return JsonWriter()
        .field("threads", static_cast<std::int64_t>(threads))
        .field("batch", static_cast<std::int64_t>(batch))
        .field("fast", fast)
        .field("eval_reads", static_cast<std::int64_t>(evalReads))
        .field("eval_runs", static_cast<std::int64_t>(evalRuns))
        .field("retrain_epochs", static_cast<std::int64_t>(retrainEpochs))
        .field("metrics_out", metricsOut)
        .field("artifacts", artifacts)
        .field("faults", faults)
        .field("chaos", chaos)
        .field("refresh", refresh)
        .field("simd", simd)
        .field("noise", noise)
        .str();
}

RuntimeConfig
RuntimeConfig::fromEnvironment()
{
    RuntimeConfig cfg;
    cfg.threads = envLong("SWORDFISH_THREADS", -1);
    cfg.batch = envLong("SWORDFISH_BATCH", -1);
    cfg.fast = envFlag("SWORDFISH_FAST");
    cfg.evalReads = envLong("SWORDFISH_EVAL_READS", -1);
    cfg.evalRuns = envLong("SWORDFISH_EVAL_RUNS", -1);
    cfg.retrainEpochs = envLong("SWORDFISH_RETRAIN_EPOCHS", -1);
    cfg.metricsOut = envString("SWORDFISH_METRICS_OUT");
    cfg.artifacts = envString("SWORDFISH_ARTIFACTS");
    cfg.faults = envString("SWORDFISH_FAULTS");
    cfg.chaos = envString("SWORDFISH_CHAOS");
    cfg.refresh = envString("SWORDFISH_REFRESH");
    cfg.simd = envString("SWORDFISH_SIMD");
    cfg.noise = envString("SWORDFISH_NOISE");
    return cfg;
}

const RuntimeConfig&
runtimeConfig()
{
    static const RuntimeConfig cfg = RuntimeConfig::fromEnvironment();
    return cfg;
}

} // namespace swordfish
