/**
 * @file
 * End-to-end basecalling and read-accuracy evaluation (the paper's primary
 * metric, Section 3.5: matches / alignment length against the reference).
 */

#ifndef SWORDFISH_BASECALL_BASECALLER_H
#define SWORDFISH_BASECALL_BASECALLER_H

#include <string>
#include <vector>

#include "basecall/eval_request.h"
#include "genomics/align.h"
#include "genomics/dataset.h"
#include "nn/model.h"

namespace swordfish::basecall {

/** Basecall one read: whole-signal forward pass + CTC decode. */
genomics::Sequence basecallRead(nn::SequenceModel& model,
                                const genomics::Read& read,
                                Decoder decoder = Decoder::Greedy,
                                std::size_t beam_width = 8);

/**
 * Basecall a group of reads through the batched forward path: the reads'
 * signals stack into one SequenceBatch (noise streams keyed by read index)
 * and every layer processes the whole group per backend call. Per-read
 * results are bitwise-identical to beginRead(i) + basecallRead() per read.
 */
std::vector<genomics::Sequence>
basecallBatch(nn::SequenceModel& model, const genomics::Dataset& dataset,
              const std::vector<std::size_t>& reads,
              Decoder decoder = Decoder::Greedy, std::size_t beam_width = 8);

/**
 * Basecall the read group [begin, end) with fault classification — the
 * shared stage-1 primitive of evaluateAccuracy and runPipeline. Reads
 * whose decode/chunk fault fires in `faults` are skipped; transient
 * worker-task faults retry serially on fresh noise streams (bounded by the
 * injector's retry budget); poisoned (non-finite) outputs are detected and
 * skipped. Surviving reads flow through the batched forward path together.
 *
 * outcomes/calls address the group's local slots: outcomes[i - begin] and
 * calls[i - begin] are written for every read i in [begin, end); calls
 * stay empty for non-surviving reads. With fault injection off every
 * outcome is Ok and the calls are bitwise-identical to basecallBatch over
 * the whole group.
 */
void basecallGroupDegraded(nn::SequenceModel& model,
                           const genomics::Dataset& dataset,
                           std::size_t begin, std::size_t end,
                           Decoder decoder, std::size_t beam_width,
                           const FaultInjector& faults,
                           ReadOutcome* outcomes,
                           genomics::Sequence* calls);

/**
 * Deep-copy `count` worker replicas of a model, each wired to the
 * original's VMM backend. Forward passes cache per-layer state, so every
 * read-sharding worker basecalls through its own replica while sharing the
 * one set of programmed tiles (safe: CrossbarVmmBackend::matmul is
 * thread-safe after programming).
 */
std::vector<nn::SequenceModel> makeWorkerReplicas(nn::SequenceModel& model,
                                                  std::size_t count);

/** Accuracy evaluation result over a dataset. */
struct AccuracyResult
{
    double meanIdentity = 0.0;    ///< mean identity over surviving reads
    double minIdentity = 1.0;
    std::size_t readsEvaluated = 0; ///< surviving reads only
    std::size_t basesCalled = 0;  ///< total bases emitted by the decoder
    DegradedResult degraded;      ///< per-class failure breakdown; with
                                  ///< fault injection off every read is Ok
    /**
     * True when the run stopped early (shutdown request or
     * req.stopAfterReads): the metrics above cover completedReads reads
     * only, and a checkpointed run can be resumed from there.
     */
    bool interrupted = false;
    std::size_t completedReads = 0; ///< reads processed (all outcomes)
};

/**
 * Basecall up to max_reads reads of a dataset and align each call against
 * its ground-truth bases. Equivalent to the request form with batch(1).
 */
AccuracyResult evaluateAccuracy(nn::SequenceModel& model,
                                const genomics::Dataset& dataset,
                                std::size_t max_reads = 0,
                                Decoder decoder = Decoder::Greedy);

/**
 * Request-driven accuracy evaluation: the reads split into one contiguous
 * slice per pool worker (one slice when called from a worker), and each
 * slice runs through the batched forward path in groups of at most
 * req.batch. Results are bitwise-identical to the serial per-read loop for
 * any batch size and thread count. req.runs is ignored here — Monte-Carlo
 * repetition lives in core::evaluateNonIdealAccuracy.
 *
 * When fault injection is active (resolvedFaults(req)) the evaluation
 * degrades gracefully instead of aborting: decode/chunk faults skip the
 * read, transient worker faults retry it (bounded, fresh noise stream),
 * poisoned VMM outputs are detected and skipped, and accuracy is computed
 * over the survivors. The per-class breakdown lands in result.degraded and
 * is bitwise reproducible for a fixed fault seed on any thread x batch
 * grid.
 */
AccuracyResult evaluateAccuracy(nn::SequenceModel& model,
                                const EvalRequest& req);

} // namespace swordfish::basecall

#endif // SWORDFISH_BASECALL_BASECALLER_H
