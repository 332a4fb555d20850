#include "tracing.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <memory>
#include <set>

#include "basecall/basecaller.h"
#include "core/registry.h"
#include "core/vmm_backend.h"
#include "genomics/align.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace swordfish::benchmark {

namespace {

// Span names; the per-layer metrics are sums over them.
constexpr const char* kMcRun = "core.mc_run";
constexpr const char* kCompile = "core.compile";
constexpr const char* kHealthEpoch = "core.health_epoch";
constexpr const char* kGroup = "basecall.group";
constexpr const char* kAlign = "genomics.align";
constexpr const char* kPoolTask = "util.pool_task";

/** One recorded span on one thread. */
struct Span
{
    const char* name = "";    ///< interned; stable for the process lifetime
    std::int64_t start = 0;   ///< ns, steady clock
    std::int64_t end = 0;
    std::int32_t parent = -1; ///< index on the same thread; -1 = root
    std::uint64_t tag = 0;    ///< run seed, read group, read or job
    std::int64_t childNs = 0; ///< covered by child spans and timed calls
};

/** Summed time and count of one kind of high-rate call. */
struct CallStat
{
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
};

/** Per-thread span buffer; owned by the log so it outlives its thread. */
struct ThreadTrace
{
    std::size_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::int32_t> open; ///< stack of open span indices
    std::map<std::string, CallStat> vmm; ///< keyed by weight name
    CallStat act;                        ///< activation quantization
    std::vector<std::int64_t> poolWaitNs; ///< task start - batch submit
};

/**
 * Process-wide span log. Threads append only to their own buffer; reading
 * the buffers (clear, write, reportLayerMetrics) happens while no traced
 * work runs.
 */
class SpanLog
{
  public:
    static SpanLog&
    instance()
    {
        // Leaked: pool threads may touch it during static destruction.
        static SpanLog* log = new SpanLog();
        return *log;
    }

    /** The calling thread's buffer, registered on first use. */
    ThreadTrace&
    local()
    {
        thread_local ThreadTrace* mine = nullptr;
        if (mine == nullptr) {
            std::lock_guard<std::mutex> lock(mutex_);
            threads_.push_back(std::make_unique<ThreadTrace>());
            threads_.back()->thread = threads_.size() - 1;
            mine = threads_.back().get();
        }
        return *mine;
    }

    const std::vector<std::unique_ptr<ThreadTrace>>& threads() const
    {
        return threads_;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& t : threads_)
            *t = ThreadTrace{t->thread, {}, {}, {}, {}, {}};
        poolCapacityNs = 0;
    }

    /** Summed wall time x pool threads of runTimedTasks() batches. */
    std::int64_t poolCapacityNs = 0;

  private:
    SpanLog() = default;
    std::mutex mutex_; ///< guards threads_ growth
    std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/** RAII span on the calling thread. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char* name, std::uint64_t tag = 0)
        : trace_(SpanLog::instance().local()),
          index_(static_cast<std::int32_t>(trace_.spans.size()))
    {
        Span s;
        s.name = name;
        s.tag = tag;
        s.parent = trace_.open.empty() ? -1 : trace_.open.back();
        trace_.spans.push_back(s);
        trace_.open.push_back(index_);
        trace_.spans.back().start = nowNs();
    }

    ~ScopedSpan()
    {
        Span& s = trace_.spans[static_cast<std::size_t>(index_)];
        s.end = nowNs();
        trace_.open.pop_back();
        if (s.parent >= 0)
            trace_.spans[static_cast<std::size_t>(s.parent)].childNs +=
                s.end - s.start;
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    ThreadTrace& trace_;
    std::int32_t index_;
};

/** Unit of a timing metric from its name ("_ms", "_frac", else s). */
inline std::string
unitFromName(const std::string& name)
{
    if (name.find("_ms") != std::string::npos)
        return "ms";
    if (name.find("_frac") != std::string::npos)
        return "fraction";
    return "s";
}

/** Charge `ns` of timed calls to the innermost open span. */
void
chargeOpenSpan(ThreadTrace& t, std::int64_t ns)
{
    if (!t.open.empty())
        t.spans[static_cast<std::size_t>(t.open.back())].childNs += ns;
}

/**
 * nn::VmmBackend decorator: forwards every virtual to the real backend and
 * times the VMMs, the activation quantization and the health epochs. Every
 * call runs on the caller's thread, so the backend's per-thread noise
 * streams are exactly those of an undecorated run.
 */
class TimedVmm : public nn::VmmBackend
{
  public:
    explicit TimedVmm(nn::VmmBackend& inner) : inner_(inner) {}

    void
    matmul(const std::string& name, const Matrix& w, const Matrix& x,
           Matrix& y) override
    {
        const std::int64_t t0 = nowNs();
        inner_.matmul(name, w, x, y);
        recordVmm(name, nowNs() - t0);
    }

    void
    matmulBatched(const std::string& name, const Matrix& w, const Matrix& x,
                  Matrix& y, const nn::BatchLayout& layout) override
    {
        const std::int64_t t0 = nowNs();
        inner_.matmulBatched(name, w, x, y, layout);
        recordVmm(name, nowNs() - t0);
    }

    void
    onActivations(Matrix& activations) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onActivations(activations);
        recordAct(nowNs() - t0);
    }

    void
    onActivationsRows(Matrix& m, std::size_t row_begin,
                      std::size_t row_end) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onActivationsRows(m, row_begin, row_end);
        recordAct(nowNs() - t0);
    }

    void beginRead(std::uint64_t stream) override { inner_.beginRead(stream); }

    void
    beginBatch(const std::vector<std::uint64_t>& streams) override
    {
        inner_.beginBatch(streams);
    }

    void endBatch() override { inner_.endBatch(); }

    void selectBatchLane(std::size_t lane) override
    {
        inner_.selectBatchLane(lane);
    }

    void
    prepareWeight(const std::string& name, const Matrix& w) override
    {
        inner_.prepareWeight(name, w);
    }

    void finishCompile() override { inner_.finishCompile(); }

    std::size_t healthEpochReads() const override
    {
        return inner_.healthEpochReads();
    }

    void
    healthEpochAdvance() override
    {
        ScopedSpan span(kHealthEpoch);
        inner_.healthEpochAdvance();
    }

    bool healthDegraded() const override { return inner_.healthDegraded(); }

  private:
    static void
    recordVmm(const std::string& name, std::int64_t ns)
    {
        ThreadTrace& t = SpanLog::instance().local();
        CallStat& stat = t.vmm[name];
        stat.ns += ns;
        ++stat.calls;
        chargeOpenSpan(t, ns);
    }

    static void
    recordAct(std::int64_t ns)
    {
        ThreadTrace& t = SpanLog::instance().local();
        t.act.ns += ns;
        ++t.act.calls;
        chargeOpenSpan(t, ns);
    }

    nn::VmmBackend& inner_;
};

/**
 * One model layer (a clone) under a span. Module::setBackend is not
 * virtual, so the wrapper hands its own backend to the wrapped layer before
 * every call; the VMMs the layer issues then reach the TimedVmm.
 */
class TimedModule : public nn::Module
{
  public:
    TimedModule(std::unique_ptr<nn::Module> inner, const char* span)
        : inner_(std::move(inner)), span_(span)
    {}

    Matrix
    forward(const Matrix& x) override
    {
        inner_->setBackend(&backend());
        ScopedSpan span(span_);
        return inner_->forward(x);
    }

    Matrix
    backward(const Matrix& dy) override
    {
        inner_->setBackend(&backend());
        return inner_->backward(dy);
    }

    void
    forwardBatch(nn::SequenceBatch& batch) override
    {
        inner_->setBackend(&backend());
        ScopedSpan span(span_);
        inner_->forwardBatch(batch);
    }

    std::vector<nn::Parameter*> parameters() override
    {
        return inner_->parameters();
    }

    std::unique_ptr<nn::Module>
    clone() const override
    {
        return std::make_unique<TimedModule>(inner_->clone(), span_);
    }

    std::string describe() const override { return inner_->describe(); }

    std::size_t outChannels(std::size_t in) const override
    {
        return inner_->outChannels(in);
    }

    std::size_t strideFactor() const override
    {
        return inner_->strideFactor();
    }

  private:
    std::unique_ptr<nn::Module> inner_;
    const char* span_;
};

/** A stable C string for a span name (interned once). */
const char*
internName(const std::string& name)
{
    static std::mutex mu;
    static std::set<std::string>* names = new std::set<std::string>();
    std::lock_guard<std::mutex> lock(mu);
    return names->insert(name).first->c_str();
}

/** "conv0.w" -> "conv0"; a layer without weights by its type ("silu"). */
std::string
layerLabel(nn::Module& layer)
{
    const std::vector<nn::Parameter*> params = layer.parameters();
    std::string label = params.empty()
        ? layer.describe() : params.front()->name;
    label = label.substr(0, label.find_first_of(".("));
    std::transform(label.begin(), label.end(), label.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return label;
}

/**
 * Run `count` items through `body(model, item)`: serially on `model` when
 * the pool would not split them, else in contiguous shards on worker
 * replicas — the sharding evaluateNonIdealAccuracy and evaluateAccuracy use.
 */
void
forShards(nn::SequenceModel& model, std::size_t count,
          std::vector<nn::SequenceModel>& replicas,
          const std::function<void(nn::SequenceModel&, std::size_t)>& body)
{
    const std::size_t shards = globalPool().shardCount(count);
    if (shards <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(model, i);
        return;
    }
    if (replicas.size() < shards)
        replicas = basecall::makeWorkerReplicas(model, shards);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        tasks.push_back([&, s] {
            const auto [begin, end] = ThreadPool::shardRange(count, shards, s);
            for (std::size_t i = begin; i < end; ++i)
                body(replicas[s], i);
        });
    }
    runTimedTasks(std::move(tasks));
}

/**
 * One Monte-Carlo run: program, basecall and align every read; returns the
 * mean identity over the reads that survived.
 */
double
replayRun(nn::SequenceModel& model, const McSetup& setup, std::uint64_t seed)
{
    ScopedSpan run_span(kMcRun, seed);
    core::BackendSpec spec;
    spec.scenario = setup.scenario;
    spec.quant = setup.scenario.quant;
    spec.seed = seed;
    spec.mode = core::defaultBackendSelector().mode;
    spec.ensemble.k = setup.ensembleK;
    const std::string family =
        setup.scenario.usesLibrary() ? "measured" : "analytical";
    core::CompileError err;
    auto api = core::BackendRegistry::instance().create(family, spec, &err);
    if (api == nullptr)
        fatal("replay: ", err.message);
    if (const core::CompileError init = api->initialize())
        fatal("replay: ", init.message);
    auto& crossbar = dynamic_cast<core::CrossbarVmmBackend&>(api->execution());
    {
        ScopedSpan compile_span(kCompile, seed);
        if (const core::CompileError compiled = crossbar.compile(model))
            fatal("replay: ", compiled.message);
    }
    TimedVmm timed(crossbar);
    model.setBackend(&timed);
    model.compileBackend();

    const genomics::Dataset& ds = *setup.dataset;
    const std::size_t n = setup.maxReads == 0
        ? ds.reads.size() : std::min(ds.reads.size(), setup.maxReads);
    const std::size_t batch = std::max<std::size_t>(1, setup.batch);
    std::vector<double> identity(n, 0.0);
    std::vector<std::uint8_t> survived(n, 1);
    std::vector<nn::SequenceModel> replicas;

    auto run_block = [&](std::size_t r0, std::size_t r1) {
        const std::size_t groups = (r1 - r0 + batch - 1) / batch;
        forShards(model, groups, replicas,
                  [&](nn::SequenceModel& m, std::size_t g) {
            const std::size_t begin = r0 + g * batch;
            const std::size_t end = std::min(r1, begin + batch);
            std::vector<std::size_t> reads(end - begin);
            for (std::size_t i = begin; i < end; ++i)
                reads[i - begin] = i;
            std::vector<genomics::Sequence> calls;
            {
                ScopedSpan group_span(kGroup, begin);
                calls = basecall::basecallBatch(m, ds, reads);
            }
            for (std::size_t i = begin; i < end; ++i) {
                ScopedSpan align_span(kAlign, i);
                identity[i] = genomics::alignGlobal(calls[i - begin],
                                                    ds.reads[i].bases)
                                  .identity();
            }
        });
    };

    // Health-epoch blocks exactly as basecall::evaluateAccuracy runs them:
    // frozen tiles within a block, one maintenance epoch between blocks,
    // and reads after an unrepairable failure degraded.
    const std::size_t epoch = timed.healthEpochReads();
    if (epoch == 0) {
        run_block(0, n);
    } else {
        for (std::size_t done = 0; done < n;) {
            const std::size_t r1 = std::min(n, done + epoch);
            if (timed.healthDegraded())
                std::fill(survived.begin() + static_cast<std::ptrdiff_t>(done),
                          survived.begin() + static_cast<std::ptrdiff_t>(r1),
                          0);
            else
                run_block(done, r1);
            done = r1;
            if (done < n)
                timed.healthEpochAdvance();
        }
    }
    model.setBackend(nullptr);

    double sum = 0.0;
    std::size_t evaluated = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (survived[i]) {
            sum += identity[i];
            ++evaluated;
        }
    }
    return evaluated > 0 ? sum / static_cast<double>(evaluated) : 0.0;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
runTimedTasks(std::vector<std::function<void()>> tasks)
{
    ThreadPool& pool = globalPool();
    const std::int64_t submitted = nowNs();
    for (auto& task : tasks) {
        task = [submitted, fn = std::move(task)] {
            ThreadTrace& t = SpanLog::instance().local();
            t.poolWaitNs.push_back(nowNs() - submitted);
            ScopedSpan span(kPoolTask);
            fn();
        };
    }
    pool.runTasks(std::move(tasks));
    const std::int64_t wall = nowNs() - submitted;
    SpanLog::instance().poolCapacityNs += wall
        * static_cast<std::int64_t>(std::max<std::size_t>(1,
                                                          pool.threadCount()));
}

void
clearTrace()
{
    SpanLog::instance().clear();
}

bool
writeTrace(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const auto& t : SpanLog::instance().threads()) {
        for (std::size_t i = 0; i < t->spans.size(); ++i) {
            const Span& s = t->spans[i];
            std::fprintf(f,
                         "{\"thread\":%zu,\"index\":%zu,\"parent\":%d,"
                         "\"name\":\"%s\",\"tag\":%llu,\"start_ns\":%lld,"
                         "\"end_ns\":%lld,\"self_ns\":%lld}\n",
                         t->thread, i, static_cast<int>(s.parent), s.name,
                         static_cast<unsigned long long>(s.tag),
                         static_cast<long long>(s.start),
                         static_cast<long long>(s.end),
                         static_cast<long long>(s.end - s.start - s.childNs));
        }
        for (const auto& [name, stat] : t->vmm)
            std::fprintf(f,
                         "{\"thread\":%zu,\"calls_of\":\"vmm:%s\","
                         "\"calls\":%llu,\"ns\":%lld}\n",
                         t->thread, name.c_str(),
                         static_cast<unsigned long long>(stat.calls),
                         static_cast<long long>(stat.ns));
        std::fprintf(f,
                     "{\"thread\":%zu,\"calls_of\":\"act_quant\","
                     "\"calls\":%llu,\"ns\":%lld}\n",
                     t->thread, static_cast<unsigned long long>(t->act.calls),
                     static_cast<long long>(t->act.ns));
    }
    return std::fclose(f) == 0;
}

nn::SequenceModel
makeTracedModel(const nn::SequenceModel& model)
{
    nn::SequenceModel traced;
    nn::SequenceModel copy = model;
    for (std::size_t i = 0; i < copy.layerCount(); ++i) {
        nn::Module& layer = copy.layer(i);
        traced.add(std::make_unique<TimedModule>(
            layer.clone(), internName("nn." + layerLabel(layer))));
    }
    return traced;
}

double
replayEvaluation(nn::SequenceModel& model, const McSetup& setup,
                 std::size_t runs, std::uint64_t seedBase)
{
    std::vector<double> per_run(runs);
    std::vector<nn::SequenceModel> replicas;
    forShards(model, runs, replicas, [&](nn::SequenceModel& m,
                                         std::size_t r) {
        per_run[r] = replayRun(m, setup, seedBase + r);
    });
    model.setBackend(nullptr);

    // Reduce in run order with the library's accumulator, so the mean is
    // bitwise evaluateNonIdealAccuracy's.
    RunningStat stat;
    for (const double mean : per_run)
        stat.add(mean);
    return stat.mean();
}

void
TraceTally::add(double plain_s, double plain_mean,
                const std::function<double()>& traced,
                const std::string& what)
{
    static const char* const kCounters[] = {
        "vmm.calls", "vmm.tile_vmms", "vmm.adc_conversions",
        "vmm.dac_conversions", "program.tiles"};
    const MetricsSnapshot before = metrics().snapshot();
    const std::int64_t t0 = nowNs();
    const double mean = traced();
    tracedS += static_cast<double>(nowNs() - t0) * 1e-9;
    plainS += plain_s;
    const MetricsSnapshot after = metrics().snapshot();
    for (const char* name : kCounters) {
        const auto a = after.counters.find(name);
        const auto b = before.counters.find(name);
        counts[name] += static_cast<double>(
            (a == after.counters.end() ? 0 : a->second)
            - (b == before.counters.end() ? 0 : b->second));
    }
    if (!sameBits(mean, plain_mean) && same) {
        same = false;
        mismatch = what + ": traced " + exact(mean) + " plain "
            + exact(plain_mean);
    }
}

void
reportLayerMetrics(Reporter& report, const TraceTally& tally)
{
    report.gate("trace_identity_bitwise", tally.same, tally.mismatch);
    const SpanLog& log = SpanLog::instance();
    std::map<std::string, double> m;
    std::vector<double> group_ms;
    std::vector<double> wait_ms;
    double task_s = 0.0;
    for (const auto& t : log.threads()) {
        for (const Span& s : t->spans) {
            const double dur = static_cast<double>(s.end - s.start) * 1e-9;
            const double self =
                static_cast<double>(s.end - s.start - s.childNs) * 1e-9;
            const std::string name = s.name;
            if (name == kCompile) {
                m["core.compile_s"] += dur;
            } else if (name == kHealthEpoch) {
                m["core.health_epoch_s"] += dur;
            } else if (name == kGroup) {
                m["basecall.decode_s"] += self;
                group_ms.push_back(dur * 1e3);
            } else if (name == kAlign) {
                m["genomics.align_s"] += dur;
            } else if (name == kPoolTask) {
                task_s += dur;
            } else if (name.rfind("nn.", 0) == 0) {
                m[name + ".self_s"] += self;
            }
        }
        for (const auto& [weight, stat] : t->vmm) {
            const double s = static_cast<double>(stat.ns) * 1e-9;
            m["core.vmm_s"] += s;
            m["core.vmm_s." + weight] += s;
        }
        m["core.act_quant_s"] += static_cast<double>(t->act.ns) * 1e-9;
        for (const std::int64_t w : t->poolWaitNs)
            wait_ms.push_back(static_cast<double>(w) * 1e-6);
    }
    m["basecall.group_ms_p50"] = percentile(group_ms, 0.50);
    m["util.pool_start_wait_ms"] = percentile(wait_ms, 0.50);
    const double capacity = static_cast<double>(log.poolCapacityNs) * 1e-9;
    m["util.pool_busy_frac"] = capacity > 0.0 ? task_s / capacity : 0.0;
    m["trace.overhead_frac"] = tally.plainS > 0.0
        ? tally.tracedS / tally.plainS - 1.0 : 0.0;
    for (const auto& [name, value] : m)
        report.metric(name, value, unitFromName(name));

    auto count = [&](const char* name) {
        const auto it = tally.counts.find(name);
        return it == tally.counts.end() ? 0.0 : it->second;
    };
    const double adc = count("vmm.adc_conversions");
    report.metric("core.vmm_calls", count("vmm.calls"), "count");
    report.metric("crossbar.tile_vmms", count("vmm.tile_vmms"), "count");
    report.metric("crossbar.adc_conversions", adc, "count");
    report.metric("crossbar.dac_conversions", count("vmm.dac_conversions"),
                  "count");
    report.metric("crossbar.tiles_programmed", count("program.tiles"),
                  "count");
    report.metric("crossbar.ns_per_adc_conversion",
                  adc > 0.0 ? m["core.vmm_s"] * 1e9 / adc : 0.0, "ns");
}

} // namespace swordfish::benchmark
