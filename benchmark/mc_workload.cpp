/**
 * @file
 * The Monte-Carlo workloads: core::evaluateNonIdealAccuracy of the trained
 * BonitoLite model on the 45 reads of dataset D1. The seed picks the
 * Monte-Carlo seeds, i.e. which simulated chips are programmed.
 *
 * The unit of work is one repetition: R Monte-Carlo runs over the 45 reads,
 * one evaluateNonIdealAccuracy call. A timed run repeats it until the
 * window closes and reports the median repetition; a traced run does a
 * fixed number of repetitions, each plain and then traced.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "basecall/bonito_lite.h"
#include "core/context.h"
#include "core/deploy.h"
#include "core/evaluator.h"
#include "report.h"
#include "tracing.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace swordfish::benchmark {

namespace {

/** One Monte-Carlo workload. */
struct McConfig
{
    const char* name;
    core::NonIdealityKind kind;
    std::size_t runsPerRep;  ///< Monte-Carlo runs per repetition (a
                             ///< multiple of the pool width)
    std::size_t ensembleK;   ///< layer-ensemble replicas (1 = off)
    /**
     * Repetitions every run makes, whatever the window: identity_mean is
     * over them (so it is a pure function of the seed) and a traced run
     * does exactly these. Sized so they take about a 10 s window.
     */
    std::size_t minReps;
};

constexpr std::size_t kReads = 45;    ///< reads per run (all of D1)
constexpr std::size_t kBatch = 8;     ///< reads per crossbar batch
constexpr std::size_t kCrossbar = 64; ///< crossbar rows and columns
constexpr std::size_t kWarmupReads = 8;
constexpr std::size_t kMaxThreads = 4; ///< pool threads at most
constexpr int kSetupReps = 5;          ///< setup_s is their median

const McConfig kConfigs[] = {
    {"mc_combined", core::NonIdealityKind::Combined, 4, 1, 3},
    {"mc_measured", core::NonIdealityKind::Measured, 16, 1, 3},
    {"mc_ensemble_refresh", core::NonIdealityKind::Combined, 4, 4, 2},
};

/** The first Monte-Carlo seed of a workload, derived from the run seed. */
std::uint64_t
seedBaseFor(std::uint64_t seed, const std::string& workload)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a of the name
    for (const unsigned char c : workload)
        h = (h ^ c) * 1099511628211ULL;
    return hashSeed({seed, h}) % 1000000000ULL;
}

const McConfig&
configFor(const std::string& name)
{
    for (const McConfig& c : kConfigs)
        if (name == c.name)
            return c;
    fatal("unknown Monte-Carlo workload ", name);
}

/** Everything one repetition needs, built by setUp(). */
struct McState
{
    genomics::Dataset dataset;
    nn::SequenceModel model; ///< quantized for deployment
    core::NonIdealityConfig scenario;
};

/** Timing and outcome of one repetition. */
struct RepResult
{
    double seconds = 0.0;
    double mean = 0.0;
    std::size_t reads = 0;
    std::size_t failed = 0;
};

class McWorkload
{
  public:
    McWorkload(const McConfig& cfg, const ChildOptions& opts)
        : cfg_(cfg), opts_(opts), report_(cfg.name),
          threads_(std::min<std::size_t>(
              kMaxThreads,
              std::max(1u, std::thread::hardware_concurrency()))),
          runs_(opts.smoke ? 1 : cfg.runsPerRep),
          reads_(opts.smoke ? kBatch : kReads),
          minReps_(opts.smoke ? 1 : cfg.minReps),
          seedBase_(seedBaseFor(opts.seed, cfg.name))
    {}

    int run();

  private:
    void setUp();
    core::EvalOptions options(std::size_t runs, std::size_t reads,
                              std::uint64_t seed_base) const;
    RepResult rep(std::size_t k);
    void batchGate();
    std::vector<RepResult> tracedReps();
    void emitEndToEnd(const std::vector<RepResult>& reps,
                      const std::vector<double>& setup_s,
                      const std::vector<double>& setup_rss_mb);

    const McConfig& cfg_;
    const ChildOptions& opts_;
    Reporter report_;
    const std::size_t threads_;
    const std::size_t runs_;
    const std::size_t reads_;
    const std::size_t minReps_;
    const std::uint64_t seedBase_;
    McState state_;
    TraceTally tally_;
};

void
McWorkload::setUp()
{
    McState s;
    s.dataset = genomics::makeDataset(genomics::specById("D1"),
                                      genomics::PoreModel(), reads_);

    nn::SequenceModel teacher = basecall::buildBonitoLite();
    if (!teacher.load(opts_.fixture))
        fatal("cannot load the model fixture ", opts_.fixture);
    s.model = core::quantizeModel(teacher, QuantConfig::deployment());

    s.scenario.kind = cfg_.kind;
    s.scenario.crossbar.size = kCrossbar;
    state_ = std::move(s);

    // Warm-up: one run per pool thread over a few reads creates,
    // initializes and compiles the backends and warms every worker's
    // allocator arena and caches, as the timed repetitions use them all.
    // A one-run warm-up leaves three workers cold, and its single-threaded
    // time depends on which vCPU it lands on: one vCPU of a shared host ran
    // it 35 % slower than another, which made setup_s bimodal.
    core::evaluateNonIdealAccuracy(
        state_.model, state_.scenario,
        options(threads_, std::min(kWarmupReads, reads_), seedBase_));
}

core::EvalOptions
McWorkload::options(std::size_t runs, std::size_t reads,
                    std::uint64_t seed_base) const
{
    return core::EvalOptions(state_.dataset)
        .runs(runs)
        .maxReads(reads)
        .seedBase(seed_base)
        .batch(kBatch)
        .threads(threads_)
        .ensembleK(cfg_.ensembleK);
}

RepResult
McWorkload::rep(std::size_t k)
{
    RepResult res;
    const std::int64_t start = nowNs();
    const core::AccuracySummary summary = core::evaluateNonIdealAccuracy(
        state_.model, state_.scenario,
        options(runs_, reads_, seedBase_ + k * runs_));
    res.seconds = static_cast<double>(nowNs() - start) * 1e-9;
    res.mean = summary.mean;
    res.reads = runs_ * reads_;
    res.failed = summary.degraded.skippedReads()
        + summary.degraded.retriedReads;
    return res;
}

void
McWorkload::batchGate()
{
    // A batched, pooled evaluation must be bitwise the serial one.
    const std::size_t n = std::min(kWarmupReads, reads_);
    const core::AccuracySummary pooled = core::evaluateNonIdealAccuracy(
        state_.model, state_.scenario, options(1, n, seedBase_));
    const core::AccuracySummary serial = core::evaluateNonIdealAccuracy(
        state_.model, state_.scenario,
        options(1, n, seedBase_).threads(0).batch(1));
    report_.gate("batch_threads_bitwise",
                 sameBits(pooled.mean, serial.mean),
                 "pooled " + exact(pooled.mean) + " serial "
                     + exact(serial.mean));
    setGlobalPoolThreads(threads_);
}

std::vector<RepResult>
McWorkload::tracedReps()
{
    nn::SequenceModel traced = makeTracedModel(state_.model);
    McSetup setup;
    setup.dataset = &state_.dataset;
    setup.scenario = state_.scenario;
    setup.maxReads = reads_;
    setup.batch = kBatch;
    setup.ensembleK = cfg_.ensembleK;

    clearTrace();
    std::vector<RepResult> reps;
    for (std::size_t k = 0; k < minReps_; ++k) {
        reps.push_back(rep(k));
        const std::uint64_t seed_base = seedBase_ + k * runs_;
        tally_.add(reps.back().seconds, reps.back().mean, [&] {
            return replayEvaluation(traced, setup, runs_, seed_base);
        }, "rep " + std::to_string(k));
    }
    return reps;
}

void
McWorkload::emitEndToEnd(const std::vector<RepResult>& reps,
                         const std::vector<double>& setup_s,
                         const std::vector<double>& setup_rss_mb)
{
    std::vector<double> rates;
    std::size_t reads = 0, failed = 0;
    double identity = 0.0;
    for (std::size_t k = 0; k < reps.size(); ++k) {
        const RepResult& r = reps[k];
        rates.push_back(static_cast<double>(r.reads) / r.seconds);
        reads += r.reads;
        failed += r.failed;
        if (k < minReps_)
            identity += r.mean / static_cast<double>(minReps_);
    }
    report_.gate("identity_in_range", identity > 0.0 && identity <= 1.0,
                 exact(identity));
    report_.metric("reads_per_s", percentile(rates, 0.5), "reads/s");
    report_.metric("identity_mean", identity, "fraction");
    report_.metric("setup_s", percentile(setup_s, 0.5), "s");
    report_.metric("peak_rss_mb", percentile(setup_rss_mb, 0.5), "MiB");
    report_.metric("run_peak_rss_mb", peakRssMb(), "MiB");
    report_.metric("failed_frac",
                   static_cast<double>(failed) / static_cast<double>(reads),
                   "fraction");
    report_.metric("attempted", static_cast<double>(reads), "count");
    report_.metric("failed", static_cast<double>(failed), "count");
    report_.metric("repetitions", static_cast<double>(reps.size()), "count");
}

int
McWorkload::run()
{
    // Peak memory of each set-up: one warm-up run per worker. The peak
    // over a whole run, after many runs per worker, depends on how the
    // workers' frees and allocations interleave and is reported ungated
    // as run_peak_rss_mb.
    std::vector<double> setup_s, setup_rss_mb;
    for (int i = 0; i < kSetupReps; ++i) {
        resetPeakRss();
        const std::int64_t t0 = i == 0 ? opts_.startNs : nowNs();
        setUp();
        setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        setup_rss_mb.push_back(peakRssMb());
    }

    // A timed run repeats until the window closes; a traced run does a
    // fixed amount of work so its per-layer totals compare across commits.
    const bool tracing = !opts_.trace.empty();
    std::vector<RepResult> reps;
    if (tracing) {
        reps = tracedReps();
    } else {
        const std::int64_t window = nowNs();
        while (reps.size() < minReps_
               || static_cast<double>(nowNs() - window) * 1e-9
                   < opts_.seconds)
            reps.push_back(rep(reps.size()));
    }
    emitEndToEnd(reps, setup_s, setup_rss_mb);
    batchGate();
    if (tracing) {
        reportLayerMetrics(report_, tally_);
        if (!writeTrace(opts_.trace))
            report_.gate("trace_written", false,
                         "cannot write " + opts_.trace);
    }
    return report_.allPassed() ? 0 : 1;
}

} // namespace

int
runMcWorkload(const ChildOptions& opts)
{
    McWorkload w(configFor(opts.workload), opts);
    return w.run();
}

int
trainFixture(const std::string& path, std::size_t epochs)
{
    // ExperimentContext trains the default BonitoLite teacher with CTC on
    // its synthetic corpus and caches it as bonito_lite_teacher.bin in its
    // artifact directory.
    const std::filesystem::path file(path);
    if (file.filename() != "bonito_lite_teacher.bin")
        fatal("fixture must be named bonito_lite_teacher.bin: ", path);
    ::setenv("SWORDFISH_TEACHER_EPOCHS", std::to_string(epochs).c_str(), 1);
    core::ExperimentContext ctx(file.parent_path().string());
    ctx.teacher();
    return std::filesystem::exists(file) ? 0 : 1;
}

} // namespace swordfish::benchmark
