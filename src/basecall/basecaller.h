/**
 * @file
 * End-to-end basecalling and read-accuracy evaluation (the paper's primary
 * metric, Section 3.5: matches / alignment length against the reference).
 */

#ifndef SWORDFISH_BASECALL_BASECALLER_H
#define SWORDFISH_BASECALL_BASECALLER_H

#include <functional>
#include <string>
#include <vector>

#include "basecall/eval_request.h"
#include "genomics/align.h"
#include "genomics/dataset.h"
#include "nn/model.h"

namespace swordfish::basecall {

/**
 * Basecall one read through the serial (training) forward pass + CTC
 * decode, on the noise stream the caller last announced with beginRead().
 * The reference the batched path is tested against: no evaluation loop
 * calls it, they run every read through basecallBatch's path.
 */
genomics::Sequence basecallRead(nn::SequenceModel& model,
                                const genomics::Read& read,
                                Decoder decoder = Decoder::Greedy,
                                std::size_t beam_width = 8);

/**
 * Basecall a group of reads through the batched forward path: the reads'
 * signals stack into one SequenceBatch (noise streams keyed by read index)
 * and every layer processes the whole group per backend call. Per-read
 * results are bitwise-identical to beginRead(i) + basecallRead() per read,
 * a one-read group included.
 */
std::vector<genomics::Sequence>
basecallBatch(nn::SequenceModel& model, const genomics::Dataset& dataset,
              const std::vector<std::size_t>& reads,
              Decoder decoder = Decoder::Greedy, std::size_t beam_width = 8);

/**
 * Deep-copy `count` replicas of a model, each wired to the original's VMM
 * backend. The library no longer needs them (read slices share one model,
 * see forEachShard()); the benchmark's traced replay still shards through
 * them.
 */
std::vector<nn::SequenceModel> makeWorkerReplicas(nn::SequenceModel& model,
                                                  std::size_t count);

/**
 * Split [0, count) into one contiguous range per pool worker and run
 * body(begin, end) on each. When the count yields one shard (a zero-worker
 * pool, a call from a pool worker, count <= 1) the body runs inline as
 * body(0, count). The read loop's slices all basecall through the caller's
 * model: the batched forward pass writes no layer state.
 */
void forEachShard(std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& body);

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
     * True when the run stopped early (shutdown request or req.stopFlag):
     * the metrics above cover completedReads reads only, and a
     * checkpointed run can be resumed from there.
     */
    bool interrupted = false;
    std::size_t completedReads = 0; ///< reads processed (all outcomes)
};

/**
 * Validate `req`, apply its pool width and compile the model's installed
 * backend: the setup, and the one AOT compile, of a basecallReads() run.
 */
void prepareReads(nn::SequenceModel& model, const EvalRequest& req,
                  const char* where);

/**
 * What a surviving read contributes: called once per surviving read, on
 * the worker that basecalled it, with the read index and its call (which
 * the scorer may keep). Returns the read's identity, or 0 when the
 * caller's metric is not per-read identity.
 */
using ReadScorer =
    std::function<double(std::size_t read, genomics::Sequence& call)>;

/**
 * The read loop every evaluation runs, after prepareReads(): the reads
 * split into one contiguous slice per pool worker (one slice when called
 * from a worker), all sharing `model`, and each slice basecalls in lane
 * groups of at most req.batch through SequenceModel::forwardBatch (a lone
 * read or a retry is a one-lane group) and scores each surviving call.
 * Block mode — needed by a healing backend (epoch-aligned blocks; dead
 * tiles degrade the rest of the reads), a checkpoint, a block sink or a
 * stop flag — adds block events, the checkpoint write and resume (with
 * epoch replay), and a stop on shutdown or on req.stopFlag after each
 * block. Results are bitwise-identical for any batch size, thread count
 * and block length.
 */
AccuracyResult basecallReads(nn::SequenceModel& model,
                             const EvalRequest& req,
                             const ReadScorer& score);

/**
 * Basecall up to max_reads reads of a dataset and align each call against
 * its ground-truth bases: the request form with batch(1), so it ignores
 * SWORDFISH_BATCH (the results are the same at any batch size).
 */
AccuracyResult evaluateAccuracy(nn::SequenceModel& model,
                                const genomics::Dataset& dataset,
                                std::size_t max_reads = 0,
                                Decoder decoder = Decoder::Greedy);

/**
 * Request-driven accuracy evaluation: basecallReads() scoring each call by
 * its global alignment against the read's ground-truth bases. Results are
 * bitwise-identical to the serial per-read loop for any batch size and
 * thread count. req.runs is ignored here — Monte-Carlo repetition lives in
 * core::evaluateNonIdealAccuracy.
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
