#include "metrics.h"

#include "env.h"
#include "json.h"
#include "sanitize.h"
#include "serialize.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>

namespace swordfish {

namespace {

/**
 * Shard cells are written by exactly one thread and read concurrently by
 * snapshot(), so every field is a relaxed atomic updated load/store (no
 * CAS needed with a single writer).
 */
struct CounterCell
{
    std::atomic<std::uint64_t> value{0};
};

struct HistCell
{
    explicit HistCell(std::size_t n_buckets) : counts(n_buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
};

struct SpanCell
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<double> seconds{0.0};
    std::atomic<double> maxSeconds{0.0};
};

} // namespace

/** One thread's private accumulation cells, one slot vector per kind. */
struct MetricsThreadShard
{
    explicit MetricsThreadShard(MetricsRegistry* reg) : reg(reg) {}
    ~MetricsThreadShard();

    MetricsRegistry* reg;
    /** Guards slot-vector growth against concurrent snapshot readers; the
     *  owning thread's cell updates themselves are lock-free. */
    std::mutex mutex;
    std::vector<std::unique_ptr<CounterCell>> counters;
    std::vector<std::unique_ptr<HistCell>> hists;
    std::vector<std::unique_ptr<SpanCell>> spans;
};

struct MetricsRegistry::Impl
{
    mutable std::mutex mutex; ///< registrations, shard list, retired, gauges

    std::map<std::string, std::size_t> counterIds;
    std::map<std::string, std::size_t> gaugeIds;
    std::map<std::string, std::size_t> histIds;
    std::map<std::string, std::size_t> spanIds;
    std::vector<std::string> counterNames;
    std::vector<std::string> gaugeNames;
    std::vector<std::string> histNames;
    std::vector<std::string> spanNames;
    /** deque: Histogram handles keep pointers to the bound vectors. */
    std::deque<std::vector<double>> histBounds;

    std::deque<std::atomic<double>> gaugeCells;

    std::vector<MetricsThreadShard*> shards;

    /** Totals folded in from exited threads (guarded by `mutex`). */
    std::vector<std::uint64_t> retiredCounters;
    std::vector<HistogramSnapshot> retiredHists;
    std::vector<SpanSnapshot> retiredSpans;

    MetricsThreadShard& shard();
};

namespace {

thread_local std::unique_ptr<MetricsThreadShard> tls_shard;

} // namespace

MetricsThreadShard&
MetricsRegistry::Impl::shard()
{
    if (!tls_shard) {
        tls_shard = std::make_unique<MetricsThreadShard>(
            &MetricsRegistry::instance());
        std::lock_guard<std::mutex> lock(mutex);
        shards.push_back(tls_shard.get());
    }
    return *tls_shard;
}

MetricsThreadShard::~MetricsThreadShard()
{
    // Fold this thread's totals into the registry's retired aggregates so
    // metrics survive worker-thread exit (e.g. pool resizes). The registry
    // is leaked, so `reg` is always valid here.
    MetricsRegistry::Impl& impl = *reg->impl_;
    std::lock_guard<std::mutex> lock(impl.mutex);
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (counters[i])
            impl.retiredCounters[i] +=
                counters[i]->value.load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < hists.size(); ++i) {
        if (!hists[i])
            continue;
        const HistCell& c = *hists[i];
        HistogramSnapshot& r = impl.retiredHists[i];
        r.counts.resize(c.counts.size(), 0);
        for (std::size_t b = 0; b < c.counts.size(); ++b)
            r.counts[b] += c.counts[b].load(std::memory_order_relaxed);
        const std::uint64_t n = c.count.load(std::memory_order_relaxed);
        if (n > 0) {
            const double mn = c.min.load(std::memory_order_relaxed);
            const double mx = c.max.load(std::memory_order_relaxed);
            r.min = r.count == 0 ? mn : std::min(r.min, mn);
            r.max = r.count == 0 ? mx : std::max(r.max, mx);
        }
        r.count += n;
        r.sum += c.sum.load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!spans[i])
            continue;
        const SpanCell& c = *spans[i];
        SpanSnapshot& r = impl.retiredSpans[i];
        r.calls += c.calls.load(std::memory_order_relaxed);
        r.seconds += c.seconds.load(std::memory_order_relaxed);
        r.maxSeconds = std::max(
            r.maxSeconds, c.maxSeconds.load(std::memory_order_relaxed));
    }
    impl.shards.erase(
        std::remove(impl.shards.begin(), impl.shards.end(), this),
        impl.shards.end());
}

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry&
MetricsRegistry::instance()
{
    // Leaked singleton: worker-thread shard destructors and the atexit
    // dump below must be able to reach it at any point of shutdown.
    static MetricsRegistry* reg = [] {
        auto* r = new MetricsRegistry();
        leakIntentionally(r);
        std::atexit([] { writeMetricsIfConfigured(); });
        return r;
    }();
    return *reg;
}

MetricsRegistry&
metrics()
{
    return MetricsRegistry::instance();
}

Counter
MetricsRegistry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto [it, inserted] =
        impl_->counterIds.emplace(name, impl_->counterNames.size());
    if (inserted) {
        impl_->counterNames.push_back(name);
        impl_->retiredCounters.push_back(0);
    }
    return Counter(this, it->second);
}

Gauge
MetricsRegistry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto [it, inserted] =
        impl_->gaugeIds.emplace(name, impl_->gaugeNames.size());
    if (inserted) {
        impl_->gaugeNames.push_back(name);
        impl_->gaugeCells.emplace_back(0.0);
    }
    return Gauge(this, it->second);
}

Histogram
MetricsRegistry::histogram(const std::string& name,
                           std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto [it, inserted] =
        impl_->histIds.emplace(name, impl_->histNames.size());
    if (inserted) {
        impl_->histNames.push_back(name);
        std::sort(bounds.begin(), bounds.end());
        impl_->histBounds.push_back(std::move(bounds));
        HistogramSnapshot retired;
        retired.bounds = impl_->histBounds.back();
        retired.counts.assign(retired.bounds.size() + 1, 0);
        impl_->retiredHists.push_back(std::move(retired));
    }
    return Histogram(this, it->second, &impl_->histBounds[it->second]);
}

SpanStat
MetricsRegistry::span(const std::string& name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto [it, inserted] =
        impl_->spanIds.emplace(name, impl_->spanNames.size());
    if (inserted) {
        impl_->spanNames.push_back(name);
        impl_->retiredSpans.emplace_back();
    }
    return SpanStat(this, it->second);
}

void
MetricsRegistry::counterAdd(std::size_t id, std::uint64_t n)
{
    MetricsThreadShard& s = impl_->shard();
    if (id >= s.counters.size() || !s.counters[id]) {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (id >= s.counters.size())
            s.counters.resize(id + 1);
        s.counters[id] = std::make_unique<CounterCell>();
    }
    s.counters[id]->value.fetch_add(n, std::memory_order_relaxed);
}

void
MetricsRegistry::gaugeSet(std::size_t id, double v)
{
    impl_->gaugeCells[id].store(v, std::memory_order_relaxed);
}

void
MetricsRegistry::histObserve(std::size_t id,
                             const std::vector<double>& bounds, double v)
{
    MetricsThreadShard& s = impl_->shard();
    if (id >= s.hists.size() || !s.hists[id]) {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (id >= s.hists.size())
            s.hists.resize(id + 1);
        s.hists[id] = std::make_unique<HistCell>(bounds.size() + 1);
    }
    HistCell& c = *s.hists[id];
    // Inclusive upper bounds (value <= bound), Prometheus-style: bucket i
    // counts values in (bounds[i-1], bounds[i]]; the last bucket overflows.
    const std::size_t b = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), v)
        - bounds.begin());
    c.counts[b].fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t n = c.count.load(std::memory_order_relaxed);
    c.sum.store(c.sum.load(std::memory_order_relaxed) + v,
                std::memory_order_relaxed);
    if (n == 0 || v < c.min.load(std::memory_order_relaxed))
        c.min.store(v, std::memory_order_relaxed);
    if (n == 0 || v > c.max.load(std::memory_order_relaxed))
        c.max.store(v, std::memory_order_relaxed);
    c.count.store(n + 1, std::memory_order_relaxed);
}

void
MetricsRegistry::spanRecord(std::size_t id, double seconds)
{
    MetricsThreadShard& s = impl_->shard();
    if (id >= s.spans.size() || !s.spans[id]) {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (id >= s.spans.size())
            s.spans.resize(id + 1);
        s.spans[id] = std::make_unique<SpanCell>();
    }
    SpanCell& c = *s.spans[id];
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.seconds.store(c.seconds.load(std::memory_order_relaxed) + seconds,
                    std::memory_order_relaxed);
    if (seconds > c.maxSeconds.load(std::memory_order_relaxed))
        c.maxSeconds.store(seconds, std::memory_order_relaxed);
}

void
Counter::add(std::uint64_t n) const
{
    reg_->counterAdd(id_, n);
}

void
Gauge::set(double v) const
{
    reg_->gaugeSet(id_, v);
}

void
Histogram::observe(double v) const
{
    reg_->histObserve(id_, *bounds_, v);
}

void
SpanStat::record(double seconds) const
{
    reg_->spanRecord(id_, seconds);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(impl_->mutex);

    std::vector<std::uint64_t> counters = impl_->retiredCounters;
    std::vector<HistogramSnapshot> hists = impl_->retiredHists;
    std::vector<SpanSnapshot> spans = impl_->retiredSpans;

    for (MetricsThreadShard* shard : impl_->shards) {
        std::lock_guard<std::mutex> shard_lock(shard->mutex);
        for (std::size_t i = 0; i < shard->counters.size(); ++i) {
            if (shard->counters[i])
                counters[i] += shard->counters[i]->value.load(
                    std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < shard->hists.size(); ++i) {
            if (!shard->hists[i])
                continue;
            const HistCell& c = *shard->hists[i];
            HistogramSnapshot& r = hists[i];
            for (std::size_t b = 0; b < c.counts.size(); ++b)
                r.counts[b] +=
                    c.counts[b].load(std::memory_order_relaxed);
            const std::uint64_t n =
                c.count.load(std::memory_order_relaxed);
            if (n > 0) {
                const double mn = c.min.load(std::memory_order_relaxed);
                const double mx = c.max.load(std::memory_order_relaxed);
                r.min = r.count == 0 ? mn : std::min(r.min, mn);
                r.max = r.count == 0 ? mx : std::max(r.max, mx);
            }
            r.count += n;
            r.sum += c.sum.load(std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < shard->spans.size(); ++i) {
            if (!shard->spans[i])
                continue;
            const SpanCell& c = *shard->spans[i];
            SpanSnapshot& r = spans[i];
            r.calls += c.calls.load(std::memory_order_relaxed);
            r.seconds += c.seconds.load(std::memory_order_relaxed);
            r.maxSeconds = std::max(
                r.maxSeconds,
                c.maxSeconds.load(std::memory_order_relaxed));
        }
    }

    for (std::size_t i = 0; i < impl_->counterNames.size(); ++i)
        snap.counters[impl_->counterNames[i]] = counters[i];
    for (std::size_t i = 0; i < impl_->gaugeNames.size(); ++i)
        snap.gauges[impl_->gaugeNames[i]] =
            impl_->gaugeCells[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < impl_->histNames.size(); ++i)
        snap.histograms[impl_->histNames[i]] = hists[i];
    for (std::size_t i = 0; i < impl_->spanNames.size(); ++i)
        snap.spans[impl_->spanNames[i]] = spans[i];
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (std::uint64_t& v : impl_->retiredCounters)
        v = 0;
    for (HistogramSnapshot& h : impl_->retiredHists) {
        std::fill(h.counts.begin(), h.counts.end(), 0);
        h.count = 0;
        h.sum = h.min = h.max = 0.0;
    }
    for (SpanSnapshot& s : impl_->retiredSpans)
        s = SpanSnapshot{};
    for (auto& g : impl_->gaugeCells)
        g.store(0.0, std::memory_order_relaxed);
    for (MetricsThreadShard* shard : impl_->shards) {
        std::lock_guard<std::mutex> shard_lock(shard->mutex);
        for (auto& c : shard->counters)
            if (c)
                c->value.store(0, std::memory_order_relaxed);
        for (auto& h : shard->hists) {
            if (!h)
                continue;
            for (auto& b : h->counts)
                b.store(0, std::memory_order_relaxed);
            h->count.store(0, std::memory_order_relaxed);
            h->sum.store(0.0, std::memory_order_relaxed);
            h->min.store(0.0, std::memory_order_relaxed);
            h->max.store(0.0, std::memory_order_relaxed);
        }
        for (auto& s : shard->spans) {
            if (!s)
                continue;
            s->calls.store(0, std::memory_order_relaxed);
            s->seconds.store(0.0, std::memory_order_relaxed);
            s->maxSeconds.store(0.0, std::memory_order_relaxed);
        }
    }
}

std::string
MetricsSnapshot::toJson() const
{
    // JsonWriter writes a non-finite gauge or sum as null, so the export
    // stays JSON whatever a metric holds.
    JsonWriter counters_json;
    for (const auto& [name, value] : counters)
        counters_json.field(name, value);
    JsonWriter gauges_json;
    for (const auto& [name, value] : gauges)
        gauges_json.field(name, value);
    JsonWriter hists_json;
    for (const auto& [name, h] : histograms) {
        JsonValue bounds = JsonValue::array();
        for (const double b : h.bounds)
            bounds.push(JsonValue::of(b));
        JsonValue counts = JsonValue::array();
        for (const std::uint64_t c : h.counts)
            counts.push(JsonValue::of(c));
        hists_json.raw(name, JsonWriter()
                                 .raw("bounds", bounds.dump())
                                 .raw("counts", counts.dump())
                                 .field("count", h.count)
                                 .field("sum", h.sum)
                                 .field("min", h.min)
                                 .field("max", h.max)
                                 .str());
    }
    JsonWriter spans_json;
    for (const auto& [name, s] : spans)
        spans_json.raw(name, JsonWriter()
                                 .field("calls", s.calls)
                                 .field("seconds", s.seconds)
                                 .field("max_seconds", s.maxSeconds)
                                 .str());
    // Record the runtime knobs that produced this snapshot so every
    // exported artifact is self-describing.
    return JsonWriter()
        .raw("counters", counters_json.str())
        .raw("gauges", gauges_json.str())
        .raw("histograms", hists_json.str())
        .raw("spans", spans_json.str())
        .raw("config", runtimeConfig().toJson())
        .str();
}

bool
MetricsRegistry::writeJsonFile(const std::string& path) const
{
    // Atomic (temp + fsync + rename): a crash or signal mid-export never
    // leaves a truncated metrics file behind for a watcher to misparse.
    return atomicWriteFile(path, snapshot().toJson() + '\n');
}

bool
writeMetricsIfConfigured()
{
    // A live getenv() first: tests and tools may point the exporter at a
    // file after startup, which the read-once RuntimeConfig cannot see.
    const char* live = std::getenv(kMetricsOutEnv);
    std::string path = (live != nullptr) ? live : runtimeConfig().metricsOut;
    if (path.empty())
        return false;
    return metrics().writeJsonFile(path);
}

} // namespace swordfish
