/**
 * @file
 * Extension experiment (paper Section 6 future work): basecalling accuracy
 * under conductance retention drift, swept across self-healing policies.
 * Each point deploys the model for a simulated number of hours (aging
 * spread evenly over the read stream) under one refresh mode:
 *
 *   off        aging only — the no-maintenance baseline
 *   interval   scheduled R-V-W refresh every deployment quarter
 *   threshold  probe-driven refresh (error > 0.25) with spare failover
 *
 * and prints one JSON line per (mode, aged hours) point, micro_evaluator
 * style, so a sweep driver can diff policies directly.
 *
 * Usage: ext_drift_retention [--checkpoint PREFIX]
 *
 * With --checkpoint, every Monte-Carlo run checkpoints its progress to
 * PREFIX.<mode>.<hours>h.run<r> and a SIGINT/SIGTERM finishes the
 * in-flight read block, flushes the checkpoint, and stops the sweep;
 * re-running the same command resumes and reproduces the uninterrupted
 * output bit for bit.
 *
 * Knobs: SWORDFISH_THREADS, SWORDFISH_EVAL_RUNS / SWORDFISH_EVAL_READS,
 * SWORDFISH_FAST=1 (smoke-run sizes).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "basecall/bonito_lite.h"
#include "core/evaluator.h"
#include "core/health.h"
#include "core/nonideality.h"
#include "genomics/dataset.h"
#include "util/env.h"
#include "util/shutdown.h"
#include "util/thread_pool.h"

using namespace swordfish;
using namespace swordfish::core;

int
main(int argc, char** argv)
{
    std::string checkpoint_prefix;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc)
            checkpoint_prefix = argv[++i];
    }
    installShutdownHandler();

    const RuntimeConfig& env = runtimeConfig();
    const bool fast = env.fast;
    const std::size_t runs = env.evalRuns > 0
        ? static_cast<std::size_t>(env.evalRuns) : 2;
    const std::size_t reads = env.evalReads >= 0
        ? static_cast<std::size_t>(env.evalReads) : (fast ? 4 : 8);

    basecall::BonitoLiteConfig cfg;
    cfg.convChannels = fast ? 8 : 16;
    cfg.lstmHidden = fast ? 8 : 16;
    cfg.lstmLayers = fast ? 1 : 2;
    nn::SequenceModel model = basecall::buildBonitoLite(cfg);

    const genomics::PoreModel pore;
    const genomics::Dataset dataset =
        genomics::makeDataset(genomics::specById("D1"), pore, reads);

    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 64;

    const std::vector<double> hours_points =
        fast ? std::vector<double>{24.0, 168.0}
             : std::vector<double>{24.0, 168.0, 720.0};
    const char* modes[] = {"off", "interval", "threshold"};

    bool interrupted = false;
    for (double hours : hours_points) {
        for (const char* mode : modes) {
            if (interrupted)
                break;
            // Spread the full deployment over the read stream; two reads
            // per epoch keeps the maintenance loop busy at smoke sizes.
            RefreshConfig refresh;
            refresh.ageHoursPerRead =
                hours / static_cast<double>(reads);
            refresh.probeReads = 2;
            if (std::strcmp(mode, "interval") == 0) {
                refresh.intervalHours = hours / 4.0;
                refresh.spares = 1;
            } else if (std::strcmp(mode, "threshold") == 0) {
                refresh.thresholdError = 0.25;
                refresh.spares = 2;
            }
            scenario.refresh = refresh;

            EvalOptions opts(dataset);
            opts.runs(runs).maxReads(reads).seedBase(42);
            if (!checkpoint_prefix.empty())
                opts.checkpoint(checkpoint_prefix + "." + mode + "."
                                + std::to_string(
                                      static_cast<long>(hours))
                                + "h");
            const AccuracySummary s =
                evaluateNonIdealAccuracy(model, scenario, opts);
            interrupted = s.interrupted;

            std::printf("{\"bench\":\"ext_refresh_sweep\","
                        "\"mode\":\"%s\",\"aged_hours\":%.1f,"
                        "\"runs\":%zu,\"reads\":%zu,"
                        "\"accuracy_mean\":%.6f,"
                        "\"accuracy_stddev\":%.6f,"
                        "\"accuracy_min\":%.6f,\"accuracy_max\":%.6f,"
                        "\"vmm_faults\":%zu,"
                        "\"interrupted\":%s,\"refresh\":%s}\n",
                        mode, hours, s.runs, reads, s.mean, s.stddev,
                        s.min, s.max, s.degraded.vmmFaults,
                        s.interrupted ? "true" : "false",
                        refresh.toJson().c_str());
            std::fflush(stdout);
        }
        if (interrupted)
            break;
    }
    if (interrupted)
        std::fprintf(stderr, "sweep interrupted — re-run with the same "
                             "--checkpoint to resume\n");
    return 0;
}
