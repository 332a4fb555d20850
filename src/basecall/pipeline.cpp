#include "pipeline.h"

#include <algorithm>
#include <cstdint>

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

    prepareReads(model, req, "runPipeline");
    const genomics::Dataset& dataset = *req.dataset;
    // A restored checkpoint prefix would carry no calls, so the pipeline
    // never checkpoints: an interrupted run reruns from read 0.
    EvalRequest stage1 = req;
    stage1.checkpointPath.clear();

    PipelineReport report;
    ThreadPool& pool = globalPool();

    // Stage 1: basecalling through the evaluation read loop, whose scorer
    // keeps each surviving call for the later stages.
    Stopwatch watch;
    std::vector<genomics::Sequence> calls(dataset.reads.size());
    std::vector<std::uint8_t> called(dataset.reads.size(), 0);
    AccuracyResult basecalled;
    {
        TraceSpan trace(kBasecallSpan);
        basecalled = basecallReads(
            model, stage1, [&](std::size_t i, genomics::Sequence& call) {
                calls[i] = std::move(call);
                called[i] = 1;
                return 0.0;
            });
    }
    report.stages.push_back({"Basecalling", watch.seconds(), 0.0});

    // Reads stage 1 skipped, and reads a stop left uncalled, bypass the
    // rest of the pipeline.
    const std::size_t n = basecalled.completedReads;
    report.completedReads = n;
    report.interrupted = basecalled.interrupted;
    report.degraded = basecalled.degraded;
    kReads.add(n);
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
            if (called[i])
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
