/**
 * @file
 * The System Evaluator (Swordfish module 4, paper Section 3.5): end-to-end
 * basecalling accuracy under a non-ideality scenario (with error bars over
 * repeated noisy instantiations), basecalling throughput in Kbp/s, and
 * accelerator area.
 *
 * Entry points take at most three positional arguments: the model, what to
 * run it on (scenario / quantization), and one core::EvalRequest carrying
 * every remaining knob (dataset, runs, read budget, seeds, batch capacity,
 * thread count, decoder). Build requests with core::EvalOptions.
 */

#ifndef SWORDFISH_CORE_EVALUATOR_H
#define SWORDFISH_CORE_EVALUATOR_H

#include "arch/area.h"
#include "arch/throughput.h"
#include "basecall/basecaller.h"
#include "core/nonideality.h"
#include "core/vmm_backend.h"
#include "genomics/dataset.h"
#include "nn/model.h"
#include "util/stats.h"

namespace swordfish::core {

// The consolidated request types live in basecall/ next to the evaluation
// loops they parameterize; re-export them so evaluator call sites only
// reason about swordfish::core.
using basecall::Decoder;
using basecall::DegradedResult;
using basecall::EvalOptions;
using basecall::EvalRequest;
using basecall::kInheritThreads;
using basecall::ReadOutcome;

/** Accuracy distribution over repeated noisy runs (figure error bars). */
struct AccuracySummary
{
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t runs = 0;
    DegradedResult degraded; ///< fault breakdown folded over all runs
                             ///< (in run order); all-Ok when injection is
                             ///< off
    /**
     * True when a sweep stopped early (graceful shutdown or req.stopFlag):
     * only complete runs are folded into the summary, and a checkpointed
     * sweep can resume from the per-run checkpoints.
     */
    bool interrupted = false;
};

/**
 * What to deploy onto the crossbars: the non-ideality scenario plus the
 * (optional) RSA SRAM remap applied while programming. Converts implicitly
 * from a bare NonIdealityConfig so plain-scenario call sites stay terse:
 *
 *   evaluateNonIdealAccuracy(model, scenario, EvalOptions(ds).runs(5));
 *   evaluateNonIdealAccuracy(model, {scenario, remap}, opts);
 */
struct NonIdealSetup
{
    NonIdealityConfig scenario;
    SramRemapConfig remap;

    NonIdealSetup(const NonIdealityConfig& s,
                  const SramRemapConfig& r = SramRemapConfig{})
        : scenario(s), remap(r)
    {}
};

/**
 * Evaluate basecalling accuracy of a model executed on non-ideal crossbars.
 *
 * Each run programs a fresh set of tiles (new programming noise, die
 * profiles, and library draws) with seed req.seedBase + r and basecalls
 * req.maxReads reads of req.dataset through the batched inference path —
 * mirroring the paper's methodology of 1000 model instantiations per
 * configuration (scaled down via req.runs). Results are bitwise identical
 * for any batch size and worker count. The scenario implies the backend
 * family: "measured" when it uses the library, else "analytical".
 *
 * @param model deployed (quantized) model; each run installs its backend
 *              on its own copy, so `model` is never modified
 * @param setup scenario (+ optional SRAM remap) to program
 * @param req   everything else — see core::EvalOptions
 */
AccuracySummary evaluateNonIdealAccuracy(const nn::SequenceModel& model,
                                         const NonIdealSetup& setup,
                                         const EvalRequest& req);

/**
 * Digital fixed-point accuracy (quantization only, no crossbar) — the
 * Table 3 evaluation path, always the "digital" family. Honors every
 * basecall::evaluateAccuracy knob (read budget, batch, threads, hooks,
 * checkpoint) and returns its result; req.runs is moot (the path is
 * noise-free).
 */
basecall::AccuracyResult evaluateQuantizedAccuracy(
    const nn::SequenceModel& model, const QuantConfig& quant,
    const EvalRequest& req);

} // namespace swordfish::core

#endif // SWORDFISH_CORE_EVALUATOR_H
