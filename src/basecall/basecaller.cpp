#include "basecaller.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "basecall/chunker.h"
#include "nn/ctc.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/shutdown.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace swordfish::basecall {

namespace {

/** Block length when checkpointing without a health epoch to align to. */
constexpr std::size_t kDefaultBlockReads = 64;

/**
 * Bumped whenever a completed read's result can change for the same
 * request, so a checkpoint from an older build is ignored rather than
 * spliced onto new results. 2: the ADC noise stream became the
 * word-per-two-conversions float Box-Muller of kernels::adcConvertRows.
 */
constexpr std::uint64_t kCheckpointVersion = 2;
constexpr std::uint64_t kCheckpointTag = 0xc8ec9017ULL;

/**
 * Compatibility fingerprint of a checkpoint: resuming under a different
 * read budget, decoder, or block length would splice incompatible halves,
 * so such checkpoints are ignored and the run starts over.
 */
std::uint64_t
checkpointFingerprint(std::size_t n, Decoder decoder, std::size_t beam,
                      std::size_t block)
{
    return hashSeed({kCheckpointTag, n,
                     static_cast<std::uint64_t>(decoder), beam, block});
}

/**
 * Restore the completed-read prefix from `path` into the per-read slots.
 * Returns false (leaving the slots untouched up to caller semantics: the
 * caller only trusts indices < done) on any mismatch — missing file, bad
 * magic/version, wrong fingerprint, torn payload, or a prefix that is not
 * block-aligned.
 */
bool
loadCheckpoint(const std::string& path, std::uint64_t fingerprint,
               std::size_t n, std::size_t block, double* identity,
               std::size_t* bases, ReadOutcome* outcomes,
               std::size_t& done)
{
    BinaryReader in(path);
    if (!in.ok())
        return false;
    if (in.getU64() != kCheckpointVersion
        || in.getU64() != fingerprint)
        return false;
    const std::uint64_t prefix = in.getU64();
    if (!in.ok() || prefix > n
        || (prefix % block != 0 && prefix != n))
        return false;
    for (std::size_t i = 0; i < prefix; ++i) {
        const std::int64_t outcome = in.getI64();
        const double ident = in.getF64();
        const std::uint64_t base_count = in.getU64();
        if (outcome < 0
            || outcome > static_cast<std::int64_t>(ReadOutcome::Retried))
            return false;
        outcomes[i] = static_cast<ReadOutcome>(outcome);
        identity[i] = ident;
        bases[i] = static_cast<std::size_t>(base_count);
    }
    if (!in.ok())
        return false;
    done = static_cast<std::size_t>(prefix);
    return true;
}

/** Atomically persist the completed prefix [0, done). True on success. */
bool
writeCheckpoint(const std::string& path, std::uint64_t fingerprint,
                std::size_t done, const double* identity,
                const std::size_t* bases, const ReadOutcome* outcomes)
{
    AtomicBinaryWriter out(path);
    out.writer().putU64(kCheckpointVersion);
    out.writer().putU64(fingerprint);
    out.writer().putU64(done);
    for (std::size_t i = 0; i < done; ++i) {
        out.writer().putI64(static_cast<std::int64_t>(outcomes[i]));
        out.writer().putF64(identity[i]);
        out.writer().putU64(bases[i]);
    }
    return out.commit();
}

/** CTC-decode one lane of logits (shared tail of every basecall path). */
genomics::Sequence
decodeLogits(const Matrix& logits, Decoder decoder, std::size_t beam_width)
{
    static const SpanStat kCtcSpan = metrics().span("ctc");
    static const Counter kCtcDecodes = metrics().counter("ctc.decodes");
    TraceSpan trace(kCtcSpan);
    kCtcDecodes.add();
    const std::vector<int> labels = decoder == Decoder::Greedy
        ? nn::ctcGreedyDecode(logits)
        : nn::ctcBeamDecode(logits, beam_width);
    return genomics::fromCtcLabels(labels);
}

bool
allFinite(const Matrix& m)
{
    for (const float v : m.raw()) {
        if (!std::isfinite(v))
            return false;
    }
    return true;
}

/**
 * basecallRead with poisoned-output detection: when `check` is set (fault
 * injection active) and the model emits non-finite logits, skips the
 * decode and reports finite=false (the caller records the read as
 * degraded). Without `check` the scan is skipped entirely: that is
 * basecallRead.
 */
genomics::Sequence
basecallReadChecked(nn::SequenceModel& model, const genomics::Read& read,
                    Decoder decoder, std::size_t beam_width, bool check,
                    bool& finite)
{
    const Matrix signal = normalizeSignal(read.signal);
    const Matrix logits = model.forward(signal);
    finite = !check || allFinite(logits);
    if (!finite)
        return {};
    return decodeLogits(logits, decoder, beam_width);
}

/** Batched counterpart: finite[k] mirrors reads[k]; without `check`
 *  this is basecallBatch. */
std::vector<genomics::Sequence>
basecallBatchChecked(nn::SequenceModel& model,
                     const genomics::Dataset& dataset,
                     const std::vector<std::size_t>& reads, Decoder decoder,
                     std::size_t beam_width, bool check,
                     std::vector<bool>& finite)
{
    finite.assign(reads.size(), true);
    std::vector<genomics::Sequence> out;
    out.reserve(reads.size());
    if (reads.empty())
        return out;
    if (reads.size() == 1) {
        // A group of one takes the serial path verbatim.
        model.beginRead(reads[0]);
        bool ok = true;
        out.push_back(basecallReadChecked(model, dataset.reads[reads[0]],
                                          decoder, beam_width, check, ok));
        finite[0] = ok;
        return out;
    }

    nn::SequenceBatch batch =
        gatherSignalBatch(dataset, reads.data(), reads.size());
    model.forwardBatch(batch);
    for (std::size_t l = 0; l < batch.laneCount(); ++l) {
        const Matrix logits = batch.laneMatrix(l);
        if (check && !allFinite(logits)) {
            finite[l] = false;
            out.emplace_back();
            continue;
        }
        out.push_back(decodeLogits(logits, decoder, beam_width));
    }
    return out;
}

/**
 * Basecall the read group [begin, end) with fault classification — the
 * per-group step of basecallReads. Reads whose decode/chunk fault fires in
 * `inj` are skipped; transient worker-task faults retry serially on fresh
 * noise streams (bounded by the injector's retry budget); poisoned
 * (non-finite) outputs are detected and skipped. Surviving reads flow
 * through the batched forward path together.
 *
 * outcomes/calls address the group's local slots: outcomes[i - begin] and
 * calls[i - begin] are written for every read i in [begin, end); calls
 * stay empty for non-surviving reads. With fault injection off every
 * outcome is Ok and the calls are bitwise-identical to basecallBatch over
 * the whole group.
 */
void
basecallGroupDegraded(nn::SequenceModel& model,
                      const genomics::Dataset& dataset, std::size_t begin,
                      std::size_t end, Decoder decoder,
                      std::size_t beam_width, const FaultInjector& inj,
                      ReadOutcome* outcomes, genomics::Sequence* calls)
{
    static const Counter kRetryAttempts =
        metrics().counter("fault.retry.attempts");
    static const Counter kRetryExhausted =
        metrics().counter("fault.retry.exhausted");

    const bool faults = inj.enabled();
    for (std::size_t k = 0; k < end - begin; ++k) {
        outcomes[k] = ReadOutcome::Ok;
        calls[k] = {};
    }

    // A poisoned output is an injected VMM fault when the NaN site fired
    // on this noise stream; anything else is an unattributed NaN.
    auto classify_nan = [&](std::uint64_t stream) {
        return inj.fires(FaultSite::VmmNan, stream)
            ? ReadOutcome::VmmFault
            : ReadOutcome::NanOutput;
    };

    // Classification keys on the read index (= its noise stream), so the
    // partition into {skipped, transient, batched} is a pure function of
    // the fault seed — independent of grouping and sharding.
    std::vector<std::size_t> idx;
    idx.reserve(end - begin);
    std::vector<std::size_t> transient;
    for (std::size_t i = begin; i < end; ++i) {
        if (faults
            && (inj.fires(FaultSite::ReadDecode, i)
                || inj.fires(FaultSite::Chunk, i))) {
            outcomes[i - begin] = ReadOutcome::DecodeError;
            continue;
        }
        if (faults && inj.fires(FaultSite::WorkerTask, i)) {
            transient.push_back(i);
            continue;
        }
        idx.push_back(i);
    }

    std::vector<bool> finite;
    auto group_calls = basecallBatchChecked(model, dataset, idx, decoder,
                                            beam_width, faults, finite);
    for (std::size_t k = 0; k < group_calls.size(); ++k) {
        const std::size_t slot = idx[k] - begin;
        if (!finite[k]) {
            outcomes[slot] = classify_nan(idx[k]);
            continue;
        }
        calls[slot] = std::move(group_calls[k]);
    }

    // Bounded serial retries: attempt k >= 1 reruns the read on a fresh
    // conversion-noise stream; the attempt itself may hit another
    // transient fault (keyed on the retry stream) or come back poisoned.
    for (const std::size_t i : transient) {
        ReadOutcome outcome = ReadOutcome::VmmFault;
        bool exhausted = true;
        for (std::size_t k = 1; k <= inj.maxRetries(); ++k) {
            kRetryAttempts.add();
            const std::uint64_t stream = FaultInjector::retryStream(i, k);
            if (inj.fires(FaultSite::WorkerTask, stream))
                continue;
            exhausted = false;
            model.beginRead(stream);
            bool ok = true;
            genomics::Sequence called = basecallReadChecked(
                model, dataset.reads[i], decoder, beam_width, faults, ok);
            if (ok) {
                outcome = ReadOutcome::Retried;
                calls[i - begin] = std::move(called);
            } else {
                outcome = classify_nan(stream);
            }
            break;
        }
        if (exhausted)
            kRetryExhausted.add();
        outcomes[i - begin] = outcome;
    }
}

} // namespace

void
applyRequestThreads(const EvalRequest& req)
{
    if (req.threads == kInheritThreads || ThreadPool::inWorker())
        return;
    if (globalPool().threadCount() != req.threads)
        setGlobalPoolThreads(req.threads);
}

genomics::Sequence
basecallRead(nn::SequenceModel& model, const genomics::Read& read,
             Decoder decoder, std::size_t beam_width)
{
    bool finite = true;
    return basecallReadChecked(model, read, decoder, beam_width, false,
                               finite);
}

std::vector<genomics::Sequence>
basecallBatch(nn::SequenceModel& model, const genomics::Dataset& dataset,
              const std::vector<std::size_t>& reads, Decoder decoder,
              std::size_t beam_width)
{
    std::vector<bool> finite;
    return basecallBatchChecked(model, dataset, reads, decoder, beam_width,
                                false, finite);
}

std::vector<nn::SequenceModel>
makeWorkerReplicas(nn::SequenceModel& model, std::size_t count)
{
    std::vector<nn::SequenceModel> replicas;
    replicas.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
        replicas.emplace_back(model);
        // Cloned layers reset to the ideal backend; shards must share the
        // original's (thread-safe) backend so they hit the same programmed
        // tiles.
        replicas.back().setBackend(&model.backend());
    }
    return replicas;
}

void
forEachShard(
    nn::SequenceModel& model, std::size_t count,
    std::vector<nn::SequenceModel>& replicas,
    const std::function<void(nn::SequenceModel&, std::size_t, std::size_t)>&
        body)
{
    ThreadPool& pool = globalPool();
    const std::size_t shards = pool.shardCount(count);
    if (shards <= 1) {
        body(model, 0, count);
        return;
    }
    if (replicas.size() < shards)
        replicas = makeWorkerReplicas(model, shards);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        tasks.push_back([&, s] {
            const auto [begin, end] = ThreadPool::shardRange(count, shards, s);
            body(replicas[s], begin, end);
        });
    }
    pool.runTasks(std::move(tasks));
}

AccuracyResult
evaluateAccuracy(nn::SequenceModel& model, const genomics::Dataset& dataset,
                 std::size_t max_reads, Decoder decoder)
{
    // batch(1) routes every group through the serial beginRead(i) +
    // basecallRead path, so this stays bitwise identical to the historic
    // per-read loop while sharing the degraded-evaluation machinery.
    return evaluateAccuracy(model, EvalOptions(dataset)
                                       .maxReads(max_reads)
                                       .decoder(decoder)
                                       .batch(1));
}

AccuracyResult
evaluateAccuracy(nn::SequenceModel& model, const EvalRequest& req)
{
    static const Counter kEvalReads = metrics().counter("eval.reads");
    static const Histogram kIdentityHist = metrics().histogram(
        "read.identity",
        {0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99});

    prepareReads(model, req, "evaluateAccuracy");
    const genomics::Dataset& dataset = *req.dataset;
    return basecallReads(
        model, req, [&](std::size_t i, genomics::Sequence& call) {
            const double identity =
                genomics::alignGlobal(call, dataset.reads[i].bases)
                    .identity();
            kEvalReads.add();
            kIdentityHist.observe(identity);
            return identity;
        });
}

void
prepareReads(nn::SequenceModel& model, const EvalRequest& req,
             const char* where)
{
    requireValid(req, where);
    applyRequestThreads(req);
    // Offer every weight to the installed backend before the first read:
    // a crossbar backend programs its tiles only here, so the read loop's
    // matmuls only read them.
    model.compileBackend();
}

AccuracyResult
basecallReads(nn::SequenceModel& model, const EvalRequest& req,
              const ReadScorer& score)
{
    static const Counter kOutcomeDecode =
        metrics().counter("fault.outcome.decode_error");
    static const Counter kOutcomeNan =
        metrics().counter("fault.outcome.nan_output");
    static const Counter kOutcomeVmm =
        metrics().counter("fault.outcome.vmm_fault");
    static const Counter kOutcomeRetried =
        metrics().counter("fault.outcome.retried");

    const genomics::Dataset& dataset = *req.dataset;
    AccuracyResult res;
    const std::size_t n = req.maxReads == 0
        ? dataset.reads.size()
        : std::min(dataset.reads.size(), req.maxReads);
    const std::size_t batch = resolvedBatch(req);

    const FaultInjector inj(resolvedFaults(req));

    // Per-read slots, reduced in index order: results are bitwise
    // identical no matter how groups are sized or sharded across workers.
    // Fault classification keys on the read index (= its noise stream), so
    // the outcome taxonomy inherits the same grid-independence.
    std::vector<double> identity(n, 0.0);
    std::vector<std::size_t> bases(n, 0);
    std::vector<ReadOutcome> outcomes(n, ReadOutcome::Ok);

    // Worker replicas are grown lazily and reused across blocks so a
    // block-mode run pays the model copies once, like the single-pass run.
    std::vector<nn::SequenceModel> replicas;

    // One block of reads [r0, r1): the reads split into one contiguous
    // slice per pool worker, and each slice basecalls in lane groups of at
    // most req.batch. A small job thus keeps every idle core busy, while a
    // block on a pool worker (a Monte-Carlo run) is one slice whose groups
    // start at r0, batch apart. Lanes are independent, so any split gives
    // the same bits.
    auto run_block = [&](std::size_t r0, std::size_t r1) {
        forEachShard(model, r1 - r0, replicas,
                     [&](nn::SequenceModel& m, std::size_t s0,
                         std::size_t s1) {
            std::vector<genomics::Sequence> calls;
            for (std::size_t begin = r0 + s0; begin < r0 + s1;
                 begin += batch) {
                const std::size_t end = std::min(r0 + s1, begin + batch);
                calls.resize(end - begin);
                basecallGroupDegraded(m, dataset, begin, end, req.decoder,
                                      req.beamWidth, inj,
                                      outcomes.data() + begin, calls.data());
                for (std::size_t i = begin; i < end; ++i) {
                    if (!survives(outcomes[i]))
                        continue;
                    bases[i] = calls[i - begin].size();
                    identity[i] = score(i, calls[i - begin]);
                }
            }
        });
    };

    // Block mode engages only when something needs boundaries between
    // reads: a healing backend (epoch-aligned blocks), checkpointing, a
    // streaming sink or a stop flag. Otherwise the whole range runs as one
    // pass. Without healing the blocks are observe-only: the results are
    // bitwise those of the single pass.
    const std::size_t epoch_reads = model.backend().healthEpochReads();
    const bool block_mode = epoch_reads > 0 || !req.checkpointPath.empty()
        || req.onBlock != nullptr || req.stopFlag != nullptr;

    // Running progress snapshot over the completed prefix [0, done).
    auto emit_block = [&](std::size_t done) {
        if (!req.onBlock)
            return;
        BlockEvent ev;
        ev.done = done;
        ev.total = n;
        double sum = 0.0;
        for (std::size_t i = 0; i < done; ++i) {
            if (survives(outcomes[i])) {
                ++ev.survivors;
                sum += identity[i];
            } else {
                ++ev.skipped;
            }
        }
        ev.meanIdentity = ev.survivors > 0
            ? sum / static_cast<double>(ev.survivors) : 0.0;
        req.onBlock(ev);
    };

    std::size_t done = 0;
    if (!block_mode) {
        run_block(0, n);
        done = n;
    } else {
        const std::size_t block = epoch_reads > 0
            ? epoch_reads
            : (req.checkpointEvery > 0 ? req.checkpointEvery
                                       : kDefaultBlockReads);
        const std::uint64_t fp = checkpointFingerprint(
            n, req.decoder, req.beamWidth, block);
        nn::VmmBackend& backend = model.backend();
        if (!req.checkpointPath.empty()
            && loadCheckpoint(req.checkpointPath, fp, n, block,
                              identity.data(), bases.data(),
                              outcomes.data(), done)) {
            // Replay the healing history of the restored prefix: the
            // backend's per-epoch draws are pure in (tile, epoch), so the
            // resumed run continues bitwise from where the original left
            // off. A complete checkpoint needs no replay — nothing runs.
            if (done < n) {
                for (std::size_t e = 0; e < done / block; ++e)
                    backend.healthEpochAdvance();
            }
            // A restored prefix is progress too — announce it so a
            // streaming consumer sees the resume point immediately.
            emit_block(done);
        }
        while (done < n) {
            const std::size_t r1 = std::min(n, done + block);
            if (backend.healthDegraded()) {
                // Healing exhausted its spares: results from dead tiles
                // would be silent garbage, so the remaining reads degrade
                // explicitly instead of poisoning accuracy.
                for (std::size_t i = done; i < r1; ++i) {
                    outcomes[i] = ReadOutcome::VmmFault;
                    identity[i] = 0.0;
                    bases[i] = 0;
                }
            } else {
                run_block(done, r1);
            }
            done = r1;
            if (!req.checkpointPath.empty())
                writeCheckpoint(req.checkpointPath, fp, done,
                                identity.data(), bases.data(),
                                outcomes.data());
            // The event fires after the checkpoint write, so a consumer
            // that saw progress knows it is durable.
            emit_block(done);
            if (shutdownRequested() || req.stopRequested()) {
                res.interrupted = done < n;
                break;
            }
            if (done < n)
                backend.healthEpochAdvance();
        }
        if (res.interrupted)
            writeMetricsIfConfigured();
    }
    res.completedReads = done;

    double identity_sum = 0.0;
    for (std::size_t i = 0; i < done; ++i) {
        res.degraded.record(outcomes[i]);
        if (!survives(outcomes[i]))
            continue;
        identity_sum += identity[i];
        res.minIdentity = std::min(res.minIdentity, identity[i]);
        res.basesCalled += bases[i];
        ++res.readsEvaluated;
    }
    res.meanIdentity = res.readsEvaluated > 0
        ? identity_sum / static_cast<double>(res.readsEvaluated) : 0.0;
    if (inj.enabled()) {
        kOutcomeDecode.add(res.degraded.decodeErrors);
        kOutcomeNan.add(res.degraded.nanOutputs);
        kOutcomeVmm.add(res.degraded.vmmFaults);
        kOutcomeRetried.add(res.degraded.retriedReads);
    }
    return res;
}

} // namespace swordfish::basecall
