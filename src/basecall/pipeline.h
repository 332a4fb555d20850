/**
 * @file
 * The nanopore genome analysis pipeline used for the Fig. 1 experiment:
 * basecalling -> read mapping -> consensus/polishing, with wall-clock
 * timing per stage to reproduce the paper's observation that basecalling
 * dominates (>40% of) end-to-end execution time.
 */

#ifndef SWORDFISH_BASECALL_PIPELINE_H
#define SWORDFISH_BASECALL_PIPELINE_H

#include <string>
#include <vector>

#include "basecall/basecaller.h"
#include "genomics/dataset.h"
#include "nn/model.h"

namespace swordfish::basecall {

/** Timing and quality of one pipeline stage. */
struct StageReport
{
    std::string name;
    double seconds = 0.0;
    double fractionOfTotal = 0.0;
};

/** Full pipeline output. */
struct PipelineReport
{
    std::vector<StageReport> stages;
    double totalSeconds = 0.0;
    double mappedFraction = 0.0;   ///< surviving reads the mapper placed
    double meanMapIdentity = 0.0;  ///< identity at mapped locations
    DegradedResult degraded;       ///< stage-1 failure breakdown; reads it
                                   ///< skips bypass mapping and polishing
    /** True when a stop (shutdown or req.stopFlag) ended stage 1 early:
     *  every stage then covers only the first completedReads reads. */
    bool interrupted = false;
    std::size_t completedReads = 0; ///< reads stage 1 processed
};

/**
 * Run basecalling, mapping, and consensus over a dataset, timing each
 * stage. The basecalling stage is basecallReads(), the evaluation read
 * loop, keeping each call instead of aligning it: calls are
 * bitwise-identical to the serial per-read loop for any batch size and
 * thread count, and the loop's block events (meanIdentity 0: the
 * pipeline's metric is map identity), stop flag and shutdown stop apply.
 * The pipeline never checkpoints (req.checkpointPath is ignored), so an
 * interrupted run reruns from read 0.
 *
 * Under fault injection (resolvedFaults(req)) stage 1 degrades gracefully:
 * faulted reads are skipped or retried per the injector's policy, the
 * breakdown lands in report.degraded, and skipped reads are excluded from
 * the mapping and polishing stages (and from mappedFraction's
 * denominator).
 *
 * @param model trained basecaller
 * @param req   dataset + read budget + batch/thread/decoder knobs and
 *              hooks (req.runs is moot here)
 */
PipelineReport runPipeline(nn::SequenceModel& model, const EvalRequest& req);

} // namespace swordfish::basecall

#endif // SWORDFISH_BASECALL_PIPELINE_H
