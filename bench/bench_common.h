/**
 * @file
 * Shared scaffolding for the table/figure reproduction benches: one
 * ExperimentContext per process, paper-style number formatting, and
 * environment-tunable evaluation sizes.
 *
 * Environment knobs (read once at startup into util::RuntimeConfig; also
 * see core/context.h):
 *   SWORDFISH_FAST=1            shrink everything for a smoke run
 *   SWORDFISH_EVAL_READS=N      reads per accuracy measurement
 *   SWORDFISH_EVAL_RUNS=N       noisy instantiations per error bar
 *   SWORDFISH_RETRAIN_EPOCHS=N  enhancer fine-tune epochs
 *   SWORDFISH_ARTIFACTS=dir     artifact cache directory
 *   SWORDFISH_THREADS=N         evaluation pool workers (0 = serial;
 *                               default: hardware concurrency)
 *   SWORDFISH_BATCH=N           reads batched per crossbar VMM (default 1)
 */

#ifndef SWORDFISH_BENCH_COMMON_H
#define SWORDFISH_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/swordfish.h"
#include "util/env.h"
#include "util/table.h"
#include "util/timer.h"

namespace swordfish::bench {

/** Percentage string with paper-style two decimals ("97.32%"). */
inline std::string
pct(double fraction)
{
    return TextTable::num(fraction * 100.0, 2) + "%";
}

/** Mean +- stddev percentage cell. */
inline std::string
pctErr(const core::AccuracySummary& s)
{
    return TextTable::num(s.mean * 100.0, 2) + "+-"
        + TextTable::num(s.stddev * 100.0, 2) + "%";
}

/** Enhancer fine-tune epochs (env-tunable; benches default to 1). */
inline std::size_t
retrainEpochs()
{
    const long n = runtimeConfig().retrainEpochs;
    return n >= 0 ? static_cast<std::size_t>(n) : 1;
}

/**
 * The standard bench evaluation request over one dataset: env-sized runs
 * and reads (optionally capped), batch capacity from SWORDFISH_BATCH.
 * Chain further knobs onto the returned builder as needed.
 */
inline core::EvalOptions
benchEval(const genomics::Dataset& ds, std::size_t runs_default = 5,
          std::size_t reads_cap = 0)
{
    std::size_t reads = core::ExperimentContext::evalReads();
    if (reads_cap > 0)
        reads = std::min(reads, reads_cap);
    return core::EvalOptions(ds)
        .runs(core::ExperimentContext::evalRuns(runs_default))
        .maxReads(reads);
}

/**
 * Dataset-averaged non-ideal accuracy: the evaluation-loop boilerplate the
 * figure drivers share. `proto` carries every knob except the dataset,
 * which is overridden per iteration.
 */
inline double
meanNonIdealAccuracy(nn::SequenceModel& model,
                     const core::NonIdealSetup& setup,
                     const std::vector<genomics::Dataset>& datasets,
                     core::EvalRequest proto)
{
    double sum = 0.0;
    for (const auto& ds : datasets) {
        proto.dataset = &ds;
        sum += core::evaluateNonIdealAccuracy(model, setup, proto).mean;
    }
    return datasets.empty()
        ? 0.0 : sum / static_cast<double>(datasets.size());
}

/** Dataset-averaged digital fixed-point accuracy (Fig. 10 loops). */
inline double
meanQuantizedAccuracy(const nn::SequenceModel& model,
                      const QuantConfig& quant,
                      const std::vector<genomics::Dataset>& datasets,
                      core::EvalRequest proto)
{
    double sum = 0.0;
    for (const auto& ds : datasets) {
        proto.dataset = &ds;
        sum += core::evaluateQuantizedAccuracy(model, quant, proto)
                   .meanIdentity;
    }
    return datasets.empty()
        ? 0.0 : sum / static_cast<double>(datasets.size());
}

/** FP32 baseline accuracy averaged over the context's datasets. */
inline double
meanBaselineAccuracy(core::ExperimentContext& ctx)
{
    double sum = 0.0;
    for (std::size_t d = 0; d < ctx.datasets().size(); ++d)
        sum += ctx.baselineAccuracy(d);
    return ctx.datasets().empty()
        ? 0.0 : sum / static_cast<double>(ctx.datasets().size());
}

/**
 * Pure write-variation scenario (Figs. 7 and 11): synaptic variation only,
 * wire and sneak effects disabled so the sweep isolates programming noise.
 */
inline core::NonIdealityConfig
writeVariationScenario(double rate, std::size_t size = 64)
{
    core::NonIdealityConfig cfg;
    cfg.kind = core::NonIdealityKind::SynapticWires;
    cfg.crossbar.size = size;
    cfg.crossbar.writeVariationRate = rate;
    cfg.crossbar.wire.segmentResistanceRatio = 0.0;
    cfg.crossbar.wire.sneakCoefficient = 0.0;
    return cfg;
}

/** The write-variation rates swept in Figs. 7 and 11. */
inline std::vector<double>
writeVariationSweep()
{
    return {0.0, 0.05, 0.10, 0.15, 0.25, 0.40};
}

/** Print the standard bench header naming the experiment. */
inline void
banner(const std::string& what)
{
    std::printf("==============================================\n");
    std::printf("Swordfish reproduction: %s\n", what.c_str());
    std::printf("==============================================\n");
}

} // namespace swordfish::bench

#endif // SWORDFISH_BENCH_COMMON_H
