#include "evaluator.h"

#include "core/deploy.h"
#include "core/registry.h"
#include "util/shutdown.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace swordfish::core {

namespace {

/**
 * Create + initialize a registry backend for one evaluation, panicking on
 * typed failures — the evaluation entry points have no error channel, and
 * a misconfigured scenario should stop the experiment loudly. Tests
 * exercise the typed paths through BackendRegistry directly.
 */
std::unique_ptr<BackendApi>
makeBackend(const char* where, const std::string& family,
            const BackendSpec& spec)
{
    CompileError err;
    auto api = BackendRegistry::instance().create(family, spec, &err);
    if (api == nullptr)
        panic(where, ": ", err.message);
    if (const CompileError init = api->initialize())
        panic(where, ": ", init.message);
    return api;
}

} // namespace

AccuracySummary
evaluateNonIdealAccuracy(const nn::SequenceModel& model,
                         const NonIdealSetup& setup, const EvalRequest& req)
{
    // One Monte-Carlo run = program a fresh backend (req.seedBase + r) and
    // basecall the dataset through it on a copy of the model. Runs are
    // independent, so they fan out across the pool; per-run accuracies
    // land in indexed slots and reduce in run order, so the summary is
    // bitwise identical for any worker count.
    static const SpanStat kMcRunSpan = metrics().span("mc_run");
    static const Counter kMcRuns = metrics().counter("mc.runs");

    basecall::requireValid(req, "evaluateNonIdealAccuracy");
    basecall::applyRequestThreads(req);
    const std::size_t runs = req.runs;

    // The per-run evaluation inherits everything except the thread width
    // (already applied above; re-applying inside a worker is a no-op).
    // Its fault campaign resolves once and is shared with each run's
    // backend, so the read loop classifies what the backend injects.
    EvalRequest per_run = req;
    per_run.runs = 1;
    per_run.faults = basecall::resolvedFaults(req);

    // The scenario's modeling approach implies the family: the measured
    // library (approach #1) or the analytical crossbar model (#2).
    const char* family =
        setup.scenario.usesLibrary() ? "measured" : "analytical";

    std::vector<double> run_mean(runs, 0.0);
    std::vector<DegradedResult> run_degraded(runs);
    std::vector<std::uint8_t> run_complete(runs, 0);
    const bool checkpointing = !req.checkpointPath.empty();
    auto run_one = [&](std::size_t r) {
        // A graceful-shutdown request stops a checkpointed sweep before
        // starting further runs; the in-flight ones checkpoint themselves.
        // A per-request stop flag (daemon cancellation) skips further runs
        // unconditionally — a cancelled sweep's summary is discarded.
        if ((checkpointing && shutdownRequested()) || req.stopRequested())
            return;
        TraceSpan trace(kMcRunSpan);
        kMcRuns.add();
        BackendSpec spec;
        spec.scenario = setup.scenario;
        spec.remap = setup.remap;
        spec.quant = setup.scenario.quant;
        spec.seed = req.seedBase + r;
        spec.ensemble.k = req.ensembleK;
        spec.ensemble.layers = req.ensembleLayers;
        spec.faults = *per_run.faults;
        auto api = makeBackend("evaluateNonIdealAccuracy", family, spec);
        EvalRequest this_run = per_run;
        if (checkpointing)
            this_run.checkpointPath =
                req.checkpointPath + ".run" + std::to_string(r);
        if (req.onBlock) {
            // Stamp the Monte-Carlo run index onto each event. Runs may
            // stream concurrently; the sink contract is thread-safe.
            this_run.onBlock = [&req, r](const basecall::BlockEvent& ev) {
                basecall::BlockEvent stamped = ev;
                stamped.run = r;
                req.onBlock(stamped);
            };
        }
        // The run's backend goes on its own copy; `model` stays as given.
        nn::SequenceModel instance = model;
        const auto acc = api->runProgram(instance, this_run);
        run_mean[r] = acc.meanIdentity;
        run_degraded[r] = acc.degraded;
        run_complete[r] = acc.interrupted ? 0 : 1;
    };

    // One shard of runs per worker. A single shard runs serially on the
    // caller, and then each run's read loop slices its reads across the
    // workers instead.
    globalPool().parallelFor(runs, run_one);

    // Fold complete runs only, in run order — an interrupted sweep reports
    // what finished and flags itself; resuming it completes the remaining
    // runs from their checkpoints and reproduces the uninterrupted summary.
    RunningStat stat;
    AccuracySummary summary;
    for (std::size_t r = 0; r < runs; ++r) {
        if (!run_complete[r]) {
            summary.interrupted = true;
            continue;
        }
        stat.add(run_mean[r]);
        summary.degraded.merge(run_degraded[r]);
    }

    summary.mean = stat.mean();
    summary.stddev = stat.stddev();
    summary.min = stat.min();
    summary.max = stat.max();
    summary.runs = stat.count();
    return summary;
}

basecall::AccuracyResult
evaluateQuantizedAccuracy(const nn::SequenceModel& model,
                          const QuantConfig& quant, const EvalRequest& req)
{
    basecall::requireValid(req, "evaluateQuantizedAccuracy");

    // Digital fixed-point execution: the family deploys a weight-quantized
    // copy and executes exact float GEMMs on quantized activations.
    BackendSpec spec;
    spec.quant = quant;
    spec.seed = req.seedBase;
    auto api = makeBackend("evaluateQuantizedAccuracy", "digital", spec);
    nn::SequenceModel deployed = api->deployModel(model);
    return api->runProgram(deployed, req);
}

} // namespace swordfish::core
