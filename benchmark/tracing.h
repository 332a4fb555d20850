/**
 * @file
 * Outside-in tracing for the benchmark's per-layer numbers.
 *
 * Nothing here edits the simulator: spans are recorded around the public
 * calls the benchmark makes into each layer, through three wrappers:
 *  - TimedVmm, an nn::VmmBackend decorator that forwards every virtual to
 *    the real crossbar backend and times the VMMs (per weight name), the
 *    activation quantization and the health epochs;
 *  - TimedModule, a wrapper around a clone of one model layer that hands its
 *    backend to the wrapped layer before forwarding, so the layer's own time
 *    and the VMMs it issues are both seen;
 *  - replayEvaluation(), which re-runs core::evaluateNonIdealAccuracy from
 *    the same public pieces (registry backend, CrossbarVmmBackend::compile,
 *    basecall::basecallBatch on the global pool, genomics::alignGlobal) and
 *    must reproduce its mean identity bit for bit.
 *
 * Spans (name, start, end, parent, tag) stay in per-thread memory and are
 * written out once, at the end of the run. VMM and activation calls are far
 * too many for one span each; their time is summed per weight name and
 * charged to the enclosing span, so self time = span - children - calls.
 */

#ifndef SWORDFISH_BENCHMARK_TRACING_H
#define SWORDFISH_BENCHMARK_TRACING_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/nonideality.h"
#include "genomics/dataset.h"
#include "nn/model.h"
#include "report.h"
#include "util/metrics.h"

namespace swordfish::benchmark {

/** Monotonic clock in nanoseconds. */
std::int64_t nowNs();

/** Drop every recorded span. Only call while no traced work runs. */
void clearTrace();

/**
 * Write every recorded span as one JSON line (thread, index, parent, name,
 * tag, start_ns, end_ns, self_ns) plus the per-thread call sums; false on
 * I/O failure.
 */
bool writeTrace(const std::string& path);

/**
 * Wrap every layer of `model` (cloned) in a TimedModule labelled by its
 * weight prefix ("conv0", "lstm1", "head") or its type ("silu").
 */
nn::SequenceModel makeTracedModel(const nn::SequenceModel& model);

/** What one Monte-Carlo evaluation runs on. */
struct McSetup
{
    const genomics::Dataset* dataset = nullptr;
    core::NonIdealityConfig scenario;
    std::size_t maxReads = 0;
    std::size_t batch = 1;
    std::size_t ensembleK = 1;
};

/**
 * Re-run evaluateNonIdealAccuracy(model, setup.scenario, runs, seedBase)
 * from public pieces with every layer traced; returns its summary mean,
 * which must be bitwise the library's. `model` comes from
 * makeTracedModel().
 */
double replayEvaluation(nn::SequenceModel& model, const McSetup& setup,
                        std::size_t runs, std::uint64_t seedBase);

/**
 * globalPool().runTasks with every task under a span and its start delay
 * recorded, so pool occupancy and start wait can be read off the log.
 */
void runTimedTasks(std::vector<std::function<void()>> tasks);

/**
 * Bookkeeping of a traced run, which does each unit of work twice, plain
 * then traced, back to back so host drift hits both alike.
 */
struct TraceTally
{
    double plainS = 0.0;
    double tracedS = 0.0;
    /** Deltas of the program's own vmm.* and program.tiles counters over
     *  the traced work only. */
    std::map<std::string, double> counts;
    bool same = true;     ///< every traced result bitwise the plain one
    std::string mismatch; ///< the first difference, if any

    /**
     * Time `traced` (which returns its mean identity), collect its counter
     * deltas, and compare its result with the plain one, `what` naming the
     * unit of work in a mismatch report.
     */
    void add(double plain_s, double plain_mean,
             const std::function<double()>& traced, const std::string& what);
};

/**
 * Print the trace_identity_bitwise gate and the per-layer metrics: span
 * and call sums from the log, the counts in `tally`, and the tracing
 * overhead traced / plain - 1 of the same work.
 */
void reportLayerMetrics(Reporter& report, const TraceTally& tally);

} // namespace swordfish::benchmark

#endif // SWORDFISH_BENCHMARK_TRACING_H
