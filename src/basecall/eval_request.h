/**
 * @file
 * The consolidated evaluation request: one value object carrying every knob
 * an accuracy-evaluation entry point needs (dataset, Monte-Carlo runs, read
 * budget, seeding, batch capacity, thread count, decoder), plus the fluent
 * EvalOptions builder that call sites use instead of long positional
 * argument lists.
 *
 * Lives in basecall/ because the evaluation loops it parameterizes live
 * here; core/evaluator.h re-exports the types under swordfish::core.
 */

#ifndef SWORDFISH_BASECALL_EVAL_REQUEST_H
#define SWORDFISH_BASECALL_EVAL_REQUEST_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/fault.h"

namespace swordfish::genomics {
struct Dataset;
}

namespace swordfish::basecall {

// ---------------------------------------------------------------------------
// Typed request/job errors (shared by CLI validation and daemon admission)
// ---------------------------------------------------------------------------

/**
 * Why a request, JobSpec, or service operation was rejected. One enum for
 * the whole request surface so the CLI panic path, the daemon admission
 * path, and the wire protocol all speak the same typed vocabulary.
 */
enum class JobErrorKind
{
    None,          ///< success
    // JSON / schema layer
    BadJson,       ///< document does not parse
    BadVersion,    ///< unsupported schema version
    MissingField,  ///< required field absent
    UnknownField,  ///< field not in the schema (strict rejection)
    BadValue,      ///< field present but semantically invalid
    // request validation
    NoDataset,     ///< EvalRequest has no dataset
    BadRuns,       ///< zero Monte-Carlo runs
    BadBatch,      ///< batch capacity out of range
    BadThreads,    ///< thread override out of range / not allowed here
    BadBeamWidth,  ///< beam decoder with zero beam width
    BadBackend,    ///< malformed backend selector
    BadCheckpoint, ///< checkpoint knobs inconsistent
    BadFaultSpec,  ///< malformed fault-injection spec
    BadRefreshSpec,///< malformed refresh/healing spec
    BadNoiseSpec,  ///< malformed composable-noise spec
    BadEnsemble,   ///< ensemble replica count out of range
    BadDeadline,   ///< negative / non-finite job deadline
    BadAttempts,   ///< attempt budget out of range
    // service admission / operations
    QueueFull,     ///< admission queue at capacity
    QuotaExceeded, ///< tenant already at its in-flight quota
    Overloaded,    ///< queue above the shedding high-watermark; the error
                   ///< carries retryAfterMs as a client backoff hint
    UnknownJob,    ///< no such job id
    Draining,      ///< daemon is draining; no new admissions
    BadRequest,    ///< malformed wire request (op/frame level)
};

/** Stable label for an error kind (wire protocol, test assertions). */
const char* jobErrorName(JobErrorKind kind);

/** A typed request error: kind, offending field, readable message. */
struct JobError
{
    JobErrorKind kind = JobErrorKind::None;
    std::string field;   ///< dotted path of the offending field ("" = whole)
    std::string message;
    std::size_t retryAfterMs = 0; ///< Overloaded only: when to retry

    bool ok() const { return kind == JobErrorKind::None; }
    explicit operator bool() const { return !ok(); } ///< true on *error*
};

/**
 * Check a backend selector: tokens separated by ':', ',' or '+'. Each
 * evaluation entry point implies its backend family, so the only accepted
 * token is "compiled" (the one engine), which selects nothing; empty is
 * fine too. The removed family tokens ("digital", "int8", "analytical",
 * "measured") and interpreter tokens ("interpreter", "interpreted") are
 * BadBackend errors saying so, as is any unknown token.
 */
JobError checkBackendTokens(const std::string& text);

/**
 * Per-block progress snapshot streamed out of a block-mode evaluation.
 * Observe-only: emitting events never changes what is computed, so a
 * streaming run stays bitwise identical to a silent one.
 */
struct BlockEvent
{
    std::size_t run = 0;       ///< Monte-Carlo run index (0 outside MC)
    std::size_t done = 0;      ///< reads completed so far
    std::size_t total = 0;     ///< reads in this evaluation
    std::size_t survivors = 0; ///< completed reads contributing to accuracy
    std::size_t skipped = 0;   ///< completed reads excluded by degradation
    double meanIdentity = 0.0; ///< running mean identity over survivors
};

/** Decoder selection for turning logits into bases. */
enum class Decoder { Greedy, Beam };

/**
 * Per-read failure taxonomy of the degraded evaluation path. A read ends
 * in exactly one outcome; Ok and Retried reads survive and contribute to
 * accuracy, the rest are skipped and recorded.
 */
enum class ReadOutcome {
    Ok,          ///< basecalled normally
    DecodeError, ///< read decode / chunking failed; skipped
    NanOutput,   ///< non-finite model output of unknown origin; skipped
    VmmFault,    ///< VMM-level fault (poisoned output or exhausted
                 ///< transient retries); skipped
    Retried,     ///< transient failure recovered by a bounded retry with a
                 ///< fresh noise stream; survives
};

/** True when a read with this outcome contributes to accuracy. */
inline bool
survives(ReadOutcome outcome)
{
    return outcome == ReadOutcome::Ok || outcome == ReadOutcome::Retried;
}

/**
 * Per-class failure breakdown of one evaluation (the DegradedResult
 * section of accuracy results, pipeline reports, and Monte-Carlo
 * summaries). All counters are exact: with a fixed fault seed the
 * breakdown is bitwise reproducible for any thread x batch grid.
 */
struct DegradedResult
{
    std::size_t okReads = 0;      ///< basecalled on the first attempt
    std::size_t retriedReads = 0; ///< survived via retry (fresh noise)
    std::size_t decodeErrors = 0; ///< skipped: decode/chunk fault
    std::size_t nanOutputs = 0;   ///< skipped: unattributed NaN/Inf output
    std::size_t vmmFaults = 0;    ///< skipped: VMM fault or retries exhausted

    /** Reads excluded from accuracy. */
    std::size_t
    skippedReads() const
    {
        return decodeErrors + nanOutputs + vmmFaults;
    }

    /** Reads that contribute to accuracy. */
    std::size_t survivors() const { return okReads + retriedReads; }

    /** Tally one read's outcome. */
    void
    record(ReadOutcome outcome)
    {
        switch (outcome) {
          case ReadOutcome::Ok: ++okReads; break;
          case ReadOutcome::Retried: ++retriedReads; break;
          case ReadOutcome::DecodeError: ++decodeErrors; break;
          case ReadOutcome::NanOutput: ++nanOutputs; break;
          case ReadOutcome::VmmFault: ++vmmFaults; break;
        }
    }

    /** Fold another breakdown in (e.g. across Monte-Carlo runs). */
    void
    merge(const DegradedResult& other)
    {
        okReads += other.okReads;
        retriedReads += other.retriedReads;
        decodeErrors += other.decodeErrors;
        nanOutputs += other.nanOutputs;
        vmmFaults += other.vmmFaults;
    }
};

/** Sentinel: keep whatever global thread-pool width is already in effect. */
inline constexpr std::size_t kInheritThreads = static_cast<std::size_t>(-1);

/** Largest batch capacity validate() accepts (sanity bound, not a tuning
 *  limit — real batches are two to three orders of magnitude smaller). */
inline constexpr std::size_t kMaxBatchCapacity = 1u << 16;

/** Largest explicit thread override validate() accepts. */
inline constexpr std::size_t kMaxRequestThreads = 4096;

/**
 * Everything an evaluation entry point needs, in one value object.
 * Build it with EvalOptions; entry points take it as the last argument so
 * no call site needs more than three positional arguments.
 */
struct EvalRequest
{
    const genomics::Dataset* dataset = nullptr; ///< required
    std::size_t runs = 1;        ///< Monte-Carlo repetitions
    std::size_t maxReads = 0;    ///< 0 = every read in the dataset
    std::uint64_t seedBase = 1;  ///< run r uses seed seedBase + r
    /** Lane-group capacity, 0 = env default: a cap, not a group size. A
     *  call from outside the pool first slices its reads across the
     *  workers, so 8 reads at batch 8 on 4 workers run as four 2-lane
     *  groups; on a pool worker (a Monte-Carlo run) groups fill to it. */
    std::size_t batch = 0;
    std::size_t threads = kInheritThreads; ///< pool width for this call
    Decoder decoder = Decoder::Greedy;
    std::size_t beamWidth = 8;   ///< only used with Decoder::Beam

    /**
     * Checkpoint file for long runs: completed-read state is written there
     * atomically after every block, and an existing compatible checkpoint
     * is resumed from (bitwise identical to the uninterrupted run). Empty
     * = no checkpointing.
     */
    std::string checkpointPath;

    /**
     * Block length in reads between checkpoints when no health epoch
     * dictates one (0 = default block size). With a healing backend the
     * epoch length wins so checkpoints land on epoch boundaries.
     */
    std::size_t checkpointEvery = 0;

    /**
     * Backend selector, checked by checkBackendTokens(): empty or
     * "compiled", both of which select nothing. Each entry point implies
     * its family (digital for quantized, measured or analytical by the
     * scenario's modeling approach); the field stays so spooled and
     * scripted requests that name "compiled" remain valid, and a removed
     * token fails validate() with BadBackend instead of being ignored.
     */
    std::string backend;

    /**
     * Layer ensemble averaging: program K tile replicas per selected
     * crossbar layer and average their analog outputs before the shared
     * ADC (core::EnsembleConfig). 1 = off (bitwise the single-tile path);
     * validate() bounds K to [1, 16]. Only crossbar families read it.
     */
    std::size_t ensembleK = 1;

    /**
     * Substring filter selecting which layers get ensemble replicas
     * (empty = all crossbar-mapped layers when ensembleK > 1).
     */
    std::string ensembleLayers;

    /**
     * This evaluation's fault campaign (util/fault.h). Unset = the
     * SWORDFISH_FAULTS campaign (envFaultConfig()); a set value wins even
     * when all-off. The Monte-Carlo entry point hands it to each run's
     * backend too. Runtime-only, like the dataset: a JobSpec carries its
     * own "faults" spec. Not serialized.
     */
    std::optional<FaultConfig> faults;

    /**
     * Per-block progress sink (observe-only). Setting it engages block
     * mode so events fire at block boundaries; results stay bitwise
     * identical to a silent run. Concurrent Monte-Carlo runs may invoke
     * the sink from different workers (events within one run arrive in
     * order), so the sink must be thread-safe. Not serialized.
     */
    std::function<void(const BlockEvent&)> onBlock;

    /**
     * Cooperative stop signal scoped to this request: when it reads true
     * at a block boundary the evaluation checkpoints (if configured) and
     * returns with `interrupted = true`, exactly like a process-wide
     * graceful shutdown — but without affecting sibling requests. The
     * daemon drives per-job cancellation through this. Not serialized.
     */
    const std::atomic<bool>* stopFlag = nullptr;

    /** True when this request's cooperative stop signal is raised. */
    bool
    stopRequested() const
    {
        return stopFlag != nullptr
            && stopFlag->load(std::memory_order_relaxed);
    }

    /**
     * Validate every knob, returning all violations (empty = valid):
     * missing dataset, zero runs, beam decoder without a beam, malformed
     * or removed backend selector, out-of-range batch/thread overrides.
     * The CLI entry points panic on the first error via requireValid();
     * daemon admission returns them typed — one validator, two failure
     * styles.
     */
    std::vector<JobError> validate() const;

    /**
     * Serialize the scalar knobs (schema-versioned; the dataset pointer
     * and runtime-only hooks are excluded — a JobSpec names the dataset
     * declaratively instead).
     */
    std::string toJson() const;

    /**
     * Parse a toJson() document back into `out`. Strict: unknown fields,
     * a missing/unsupported version, and type mismatches are typed
     * errors, and `out` is left untouched on failure.
     */
    static JobError fromJson(const std::string& text, EvalRequest& out);
};

/**
 * Panic on the first validation error, prefixed with the entry-point name
 * — the one-shot CLI failure style. Daemon admission calls validate()
 * directly instead; a test asserts the two paths agree.
 */
void requireValid(const EvalRequest& req, const char* where);

/** The effective batch capacity of a request (>= 1). */
inline std::size_t
resolvedBatch(const EvalRequest& req)
{
    return req.batch > 0 ? req.batch : runtimeConfig().batchSize();
}

/** The effective fault campaign of a request. */
inline const FaultConfig&
resolvedFaults(const EvalRequest& req)
{
    return req.faults ? *req.faults : envFaultConfig();
}

/**
 * Resize the global thread pool to req.threads when the request pins a
 * width and the caller is a top-level thread (no-op inside pool workers,
 * where nested constructs run inline anyway).
 */
void applyRequestThreads(const EvalRequest& req);

/**
 * Fluent builder for EvalRequest:
 *
 *   evaluateNonIdealAccuracy(model, scenario,
 *                            EvalOptions(dataset).runs(5).maxReads(16)
 *                                .batch(8));
 *
 * Converts implicitly to const EvalRequest& so entry points only declare
 * the request type.
 */
class EvalOptions
{
  public:
    EvalOptions() = default;

    explicit EvalOptions(const genomics::Dataset& dataset)
    {
        req_.dataset = &dataset;
    }

    EvalOptions&
    dataset(const genomics::Dataset& ds)
    {
        req_.dataset = &ds;
        return *this;
    }

    EvalOptions&
    runs(std::size_t n)
    {
        req_.runs = n;
        return *this;
    }

    EvalOptions&
    maxReads(std::size_t n)
    {
        req_.maxReads = n;
        return *this;
    }

    EvalOptions&
    seedBase(std::uint64_t seed)
    {
        req_.seedBase = seed;
        return *this;
    }

    EvalOptions&
    batch(std::size_t capacity)
    {
        req_.batch = capacity;
        return *this;
    }

    EvalOptions&
    threads(std::size_t n)
    {
        req_.threads = n;
        return *this;
    }

    EvalOptions&
    decoder(Decoder d)
    {
        req_.decoder = d;
        return *this;
    }

    EvalOptions&
    beamWidth(std::size_t w)
    {
        req_.beamWidth = w;
        return *this;
    }

    EvalOptions&
    checkpoint(std::string path)
    {
        req_.checkpointPath = std::move(path);
        return *this;
    }

    EvalOptions&
    checkpointEvery(std::size_t reads)
    {
        req_.checkpointEvery = reads;
        return *this;
    }

    EvalOptions&
    ensembleK(std::size_t k)
    {
        req_.ensembleK = k;
        return *this;
    }

    EvalOptions&
    ensembleLayers(std::string filter)
    {
        req_.ensembleLayers = std::move(filter);
        return *this;
    }

    EvalOptions&
    faults(const FaultConfig& cfg)
    {
        req_.faults = cfg;
        return *this;
    }

    EvalOptions&
    onBlock(std::function<void(const BlockEvent&)> sink)
    {
        req_.onBlock = std::move(sink);
        return *this;
    }

    EvalOptions&
    stopFlag(const std::atomic<bool>* flag)
    {
        req_.stopFlag = flag;
        return *this;
    }

    operator const EvalRequest&() const { return req_; }

    const EvalRequest& request() const { return req_; }

  private:
    EvalRequest req_;
};

} // namespace swordfish::basecall

#endif // SWORDFISH_BASECALL_EVAL_REQUEST_H
