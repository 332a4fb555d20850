/**
 * @file
 * Micro-benchmark for the parallel, batched Monte-Carlo evaluation engine:
 * wall time of evaluateNonIdealAccuracy with the global pool disabled vs.
 * pooled, and with the crossbar batch at 1 vs. --batch N (plus the
 * one-time compile cost), reported as reads/s and emitted as one JSON
 * object so future PRs can track the trajectory.
 *
 * Usage: micro_evaluator [--batch N]   (default N = 8)
 *
 * Knobs: SWORDFISH_THREADS (pooled worker count; default hardware
 * concurrency), SWORDFISH_EVAL_RUNS / SWORDFISH_EVAL_READS (work size),
 * SWORDFISH_FAST=1 (smoke-run sizes).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "basecall/bonito_lite.h"
#include "core/evaluator.h"
#include "core/nonideality.h"
#include "core/registry.h"
#include "core/vmm_backend.h"
#include "genomics/dataset.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace swordfish;
using namespace swordfish::core;

int
main(int argc, char** argv)
{
    std::size_t batch_n = 8;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc)
            batch_n = static_cast<std::size_t>(std::atol(argv[++i]));
    }
    if (batch_n == 0)
        batch_n = 1;

    const RuntimeConfig& env = runtimeConfig();
    const bool fast = env.fast;
    const std::size_t runs = env.evalRuns > 0
        ? static_cast<std::size_t>(env.evalRuns) : (fast ? 2 : 4);
    const std::size_t reads = env.evalReads >= 0
        ? static_cast<std::size_t>(env.evalReads) : (fast ? 2 : 6);
    const std::size_t hw = std::thread::hardware_concurrency() > 0
        ? std::thread::hardware_concurrency() : 1;
    const std::size_t pooled_threads = env.threads >= 0
        ? static_cast<std::size_t>(env.threads) : hw;

    basecall::BonitoLiteConfig cfg;
    cfg.convChannels = fast ? 8 : 16;
    cfg.lstmHidden = fast ? 8 : 16;
    cfg.lstmLayers = fast ? 1 : 2;
    nn::SequenceModel model = basecall::buildBonitoLite(cfg);

    // The batch sweep needs at least batch_n reads to fill one group.
    const std::size_t batch_reads = std::max(reads, batch_n);
    const genomics::PoreModel pore;
    const genomics::Dataset dataset =
        genomics::makeDataset(genomics::specById("D1"), pore, batch_reads);

    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 64;

    // Reads/s of one full Monte-Carlo evaluation at the given pool size
    // (0 = fully serial) and batch capacity. The first call warms
    // allocators and code paths. `degraded` keeps the per-read outcome
    // breakdown of the last measured evaluation, so fault sweeps driven by
    // SWORDFISH_FAULTS land in the JSON output below.
    DegradedResult degraded;
    auto measure = [&](std::size_t threads, std::size_t batch,
                       std::size_t n_reads) {
        setGlobalPoolThreads(threads);
        evaluateNonIdealAccuracy(model, scenario,
                                 EvalOptions(dataset).runs(1)
                                     .maxReads(n_reads).seedBase(42)
                                     .batch(batch));
        Stopwatch watch;
        const AccuracySummary summary = evaluateNonIdealAccuracy(
            model, scenario,
            EvalOptions(dataset).runs(runs).maxReads(n_reads).seedBase(42)
                .batch(batch));
        const double secs = watch.seconds();
        degraded = summary.degraded;
        return secs > 0.0
            ? static_cast<double>(runs * n_reads) / secs : 0.0;
    };

    const double serial = measure(0, 1, reads);
    const double pooled = measure(pooled_threads, 1, reads);
    const double speedup = serial > 0.0 ? pooled / serial : 0.0;

    // Batch sweep at the pooled thread count: serial-vs-batched crossbar
    // execution over the same reads.
    const double batch1 = measure(pooled_threads, 1, batch_reads);
    const double batched = measure(pooled_threads, batch_n, batch_reads);
    const double batch_speedup = batch1 > 0.0 ? batched / batch1 : 0.0;

    // One-time compile cost: AOT programming and plan lowering on a
    // fresh registry backend.
    auto compile_seconds = [&] {
        BackendSpec spec;
        spec.scenario = scenario;
        spec.seed = 42;
        auto api = BackendRegistry::instance().create("analytical", spec);
        if (api == nullptr || !api->initialize().ok())
            return -1.0;
        auto& crossbar = dynamic_cast<CrossbarVmmBackend&>(api->execution());
        Stopwatch watch;
        if (crossbar.compile(model))
            return -1.0;
        return watch.seconds();
    };
    const double compile_s = compile_seconds();

    // Active fault-injection config (from SWORDFISH_FAULTS) and the
    // outcome breakdown of the last measured evaluation, so a fault sweep
    // can parse accuracy degradation straight from this output.
    const FaultConfig& faults = envFaultConfig();
    const std::string faults_json =
        faults.anyEnabled() ? faults.toJson() : "null";
    char degraded_json[256];
    std::snprintf(degraded_json, sizeof(degraded_json),
                  "{\"ok\":%zu,\"retried\":%zu,\"decode_errors\":%zu,"
                  "\"nan_outputs\":%zu,\"vmm_faults\":%zu,"
                  "\"skipped\":%zu}",
                  degraded.okReads, degraded.retriedReads,
                  degraded.decodeErrors, degraded.nanOutputs,
                  degraded.vmmFaults, degraded.skippedReads());

    // Per-stage counters/spans accumulated over all measurements (the
    // instrumentation is observe-only, so it cannot perturb the results).
    const std::string metrics_json = metrics().snapshot().toJson();
    std::printf("{\"bench\":\"micro_evaluator\",\"runs\":%zu,"
                "\"reads\":%zu,\"pooled_threads\":%zu,"
                "\"serial_reads_per_s\":%.3f,"
                "\"pooled_reads_per_s\":%.3f,\"speedup\":%.3f,"
                "\"batch\":%zu,\"batch_reads\":%zu,"
                "\"batch1_reads_per_s\":%.3f,"
                "\"batch%zu_reads_per_s\":%.3f,"
                "\"batch_speedup\":%.3f,"
                "\"compile_s\":%.6f,"
                "\"faults\":%s,\"degraded\":%s,"
                "\"metrics\":%s}\n",
                runs, reads, pooled_threads, serial, pooled, speedup,
                batch_n, batch_reads, batch1, batch_n, batched,
                batch_speedup, compile_s, faults_json.c_str(),
                degraded_json, metrics_json.c_str());
    return 0;
}
