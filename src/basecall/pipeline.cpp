#include "pipeline.h"

#include <algorithm>

#include "genomics/mapper.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace swordfish::basecall {

PipelineReport
runPipeline(nn::SequenceModel& model, const EvalRequest& req)
{
    static const SpanStat kBasecallSpan =
        metrics().span("pipeline.basecall");
    static const SpanStat kMapSpan = metrics().span("pipeline.map");
    static const SpanStat kPolishSpan = metrics().span("pipeline.polish");
    static const Counter kReads = metrics().counter("pipeline.reads");
    static const Counter kSkippedReads =
        metrics().counter("pipeline.skipped_reads");

    requireValid(req, "runPipeline");
    const genomics::Dataset& dataset = *req.dataset;
    applyRequestThreads(req);
    // AOT setup, as in evaluateAccuracy (idempotent per backend).
    model.compileBackend();

    PipelineReport report;
    const std::size_t n = req.maxReads == 0
        ? dataset.reads.size()
        : std::min(dataset.reads.size(), req.maxReads);
    kReads.add(n);

    ThreadPool& pool = globalPool();

    // Stage 1: basecalling — reads gather into groups of the requested
    // batch capacity and the groups shard across workers, each worker
    // basecalling through its own model replica (per-read noise streams
    // keep the calls independent of grouping and sharding).
    Stopwatch watch;
    std::vector<genomics::Sequence> calls(n);
    std::vector<ReadOutcome> outcomes(n, ReadOutcome::Ok);
    const std::size_t batch = resolvedBatch(req);
    const FaultInjector faults(resolvedFaults(req));
    std::vector<nn::SequenceModel> replicas;
    auto call_block = [&](std::size_t r0, std::size_t r1) {
        const std::size_t span = r1 - r0;
        const std::size_t block_groups =
            span == 0 ? 0 : (span + batch - 1) / batch;
        auto call_group = [&](nn::SequenceModel& m, std::size_t g) {
            const std::size_t begin = r0 + g * batch;
            const std::size_t end = std::min(r1, begin + batch);
            basecallGroupDegraded(m, dataset, begin, end, req.decoder,
                                  req.beamWidth, faults,
                                  outcomes.data() + begin,
                                  calls.data() + begin);
        };
        const std::size_t shards = pool.shardCount(block_groups);
        if (shards <= 1) {
            for (std::size_t g = 0; g < block_groups; ++g)
                call_group(model, g);
            return;
        }
        if (replicas.size() < shards)
            replicas = makeWorkerReplicas(model, shards);
        std::vector<std::function<void()>> tasks;
        tasks.reserve(shards);
        for (std::size_t s = 0; s < shards; ++s) {
            tasks.push_back([&, s] {
                const auto [begin, end] =
                    ThreadPool::shardRange(block_groups, shards, s);
                for (std::size_t g = begin; g < end; ++g)
                    call_group(replicas[s], g);
            });
        }
        pool.runTasks(std::move(tasks));
    };
    {
        TraceSpan trace(kBasecallSpan);
        // With a self-healing backend, basecalling proceeds in epoch-sized
        // blocks so tiles stay frozen while reads are in flight; without
        // one the whole range is a single block (the historic pass).
        const std::size_t epoch_reads = model.backend().healthEpochReads();
        if (epoch_reads == 0) {
            call_block(0, n);
        } else {
            std::size_t done = 0;
            while (done < n) {
                const std::size_t r1 = std::min(n, done + epoch_reads);
                if (model.backend().healthDegraded()) {
                    for (std::size_t i = done; i < r1; ++i)
                        outcomes[i] = ReadOutcome::VmmFault;
                } else {
                    call_block(done, r1);
                }
                done = r1;
                if (done < n)
                    model.backend().healthEpochAdvance();
            }
        }
    }
    report.stages.push_back({"Basecalling", watch.seconds(), 0.0});

    // Reads stage 1 skipped bypass the rest of the pipeline.
    for (std::size_t i = 0; i < n; ++i)
        report.degraded.record(outcomes[i]);
    kSkippedReads.add(report.degraded.skippedReads());
    const std::size_t survivors = report.degraded.survivors();

    // Stage 2: read mapping (index construction counts as mapping work,
    // as it does in minimap2). The index builds once; queries are const
    // and shard freely.
    watch.restart();
    genomics::ReadMapper mapper(dataset.reference);
    std::vector<genomics::MappingResult> mappings(n);
    {
        TraceSpan trace(kMapSpan);
        pool.parallelFor(n, [&](std::size_t i) {
            if (survives(outcomes[i]))
                mappings[i] = mapper.map(calls[i]);
        });
    }
    double identity_sum = 0.0;
    std::size_t mapped = 0;
    for (const genomics::MappingResult& m : mappings) {
        if (m.mapped) {
            ++mapped;
            identity_sum += m.identity;
        }
    }
    report.stages.push_back({"Read mapping", watch.seconds(), 0.0});

    // Stage 3: consensus/polishing — per mapped read, realign against its
    // window and tally agreement (a pileup-style polish pass).
    watch.restart();
    std::vector<std::size_t> columns(n, 0);
    {
        TraceSpan trace(kPolishSpan);
        pool.parallelFor(n, [&](std::size_t i) {
            if (!mappings[i].mapped)
                return;
            const std::size_t start = mappings[i].refStart;
            const std::size_t end = std::min(dataset.reference.size(),
                                             start + calls[i].size() + 64);
            const genomics::Sequence window(
                dataset.reference.begin()
                    + static_cast<std::ptrdiff_t>(start),
                dataset.reference.begin()
                    + static_cast<std::ptrdiff_t>(end));
            const genomics::AlignmentResult aln =
                genomics::alignGlocal(calls[i], window, 96);
            columns[i] = aln.alignmentLength;
        });
    }
    std::size_t polish_columns = 0;
    for (std::size_t c : columns)
        polish_columns += c;
    (void)polish_columns;
    report.stages.push_back({"Consensus/polish", watch.seconds(), 0.0});

    for (const StageReport& s : report.stages)
        report.totalSeconds += s.seconds;
    for (StageReport& s : report.stages)
        s.fractionOfTotal = report.totalSeconds > 0.0
            ? s.seconds / report.totalSeconds : 0.0;

    report.mappedFraction = survivors > 0
        ? static_cast<double>(mapped) / static_cast<double>(survivors)
        : 0.0;
    report.meanMapIdentity = mapped > 0
        ? identity_sum / static_cast<double>(mapped) : 0.0;
    return report;
}

} // namespace swordfish::basecall
