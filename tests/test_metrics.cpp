/** @file Tests for the metrics registry (util/metrics.h) and the RAII
 *  trace spans (util/trace.h): per-thread sharded accumulation, histogram
 *  bucketing, span aggregation, JSON export, and reset semantics. */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

using namespace swordfish;

namespace {

/** Fresh registry state for each test (registrations persist by design). */
class MetricsTest : public ::testing::Test
{
  protected:
    void SetUp() override { metrics().reset(); }
    void TearDown() override { metrics().reset(); }
};

} // namespace

TEST_F(MetricsTest, CounterAccumulates)
{
    const Counter c = metrics().counter("test.counter");
    c.add();
    c.add(41);
    const auto snap = metrics().snapshot();
    EXPECT_EQ(snap.counters.at("test.counter"), 42u);
}

TEST_F(MetricsTest, SameNameSharesOneCounter)
{
    const Counter a = metrics().counter("test.shared");
    const Counter b = metrics().counter("test.shared");
    a.add(1);
    b.add(2);
    EXPECT_EQ(metrics().snapshot().counters.at("test.shared"), 3u);
}

TEST_F(MetricsTest, CounterMergesAcrossThreads)
{
    const Counter c = metrics().counter("test.mt_counter");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i)
                c.add();
        });
    }
    for (auto& w : workers)
        w.join();
    // Shards from exited threads fold into the retired aggregate; nothing
    // is lost.
    EXPECT_EQ(metrics().snapshot().counters.at("test.mt_counter"),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, CounterMergesAcrossPoolWorkers)
{
    const Counter c = metrics().counter("test.pool_counter");
    setGlobalPoolThreads(4);
    globalPool().parallelFor(1000, [&](std::size_t) { c.add(); });
    EXPECT_EQ(metrics().snapshot().counters.at("test.pool_counter"),
              1000u);
}

TEST_F(MetricsTest, GaugeLastWriteWins)
{
    const Gauge g = metrics().gauge("test.gauge");
    g.set(1.5);
    g.set(-2.25);
    EXPECT_DOUBLE_EQ(metrics().snapshot().gauges.at("test.gauge"), -2.25);
}

TEST_F(MetricsTest, HistogramBucketsAndStats)
{
    const Histogram h =
        metrics().histogram("test.hist", {1.0, 2.0, 4.0});
    h.observe(0.5);  // bucket 0 (<= 1)
    h.observe(1.5);  // bucket 1
    h.observe(2.0);  // bucket 1 (upper_bound: 2.0 <= bound 2.0)
    h.observe(3.0);  // bucket 2
    h.observe(100.0); // overflow bucket
    const auto snap = metrics().snapshot();
    const HistogramSnapshot& hs = snap.histograms.at("test.hist");
    ASSERT_EQ(hs.counts.size(), 4u);
    EXPECT_EQ(hs.counts[0], 1u);
    EXPECT_EQ(hs.counts[1], 2u);
    EXPECT_EQ(hs.counts[2], 1u);
    EXPECT_EQ(hs.counts[3], 1u);
    EXPECT_EQ(hs.count, 5u);
    EXPECT_DOUBLE_EQ(hs.sum, 107.0);
    EXPECT_DOUBLE_EQ(hs.min, 0.5);
    EXPECT_DOUBLE_EQ(hs.max, 100.0);
}

TEST_F(MetricsTest, HistogramMinMaxMergeAcrossThreads)
{
    const Histogram h = metrics().histogram("test.mt_hist", {10.0});
    std::thread lo([&] { h.observe(-5.0); });
    std::thread hi([&] { h.observe(50.0); });
    lo.join();
    hi.join();
    h.observe(1.0);
    const auto hs = metrics().snapshot().histograms.at("test.mt_hist");
    EXPECT_EQ(hs.count, 3u);
    EXPECT_DOUBLE_EQ(hs.min, -5.0);
    EXPECT_DOUBLE_EQ(hs.max, 50.0);
}

TEST_F(MetricsTest, SpanRecordAggregates)
{
    const SpanStat s = metrics().span("test.span");
    s.record(0.25);
    s.record(0.5);
    const auto ss = metrics().snapshot().spans.at("test.span");
    EXPECT_EQ(ss.calls, 2u);
    EXPECT_DOUBLE_EQ(ss.seconds, 0.75);
    EXPECT_DOUBLE_EQ(ss.maxSeconds, 0.5);
}

TEST_F(MetricsTest, TraceSpanTimesItsScope)
{
    const SpanStat s = metrics().span("test.trace_span");
    {
        TraceSpan trace(s);
        volatile double sink = 0.0;
        for (int i = 0; i < 100000; ++i)
            sink = sink + i;
    }
    const auto ss = metrics().snapshot().spans.at("test.trace_span");
    EXPECT_EQ(ss.calls, 1u);
    EXPECT_GT(ss.seconds, 0.0);
    EXPECT_GE(ss.maxSeconds, 0.0);
}

TEST_F(MetricsTest, ResetZeroesButKeepsRegistrations)
{
    const Counter c = metrics().counter("test.reset_counter");
    const SpanStat s = metrics().span("test.reset_span");
    c.add(7);
    s.record(1.0);
    metrics().reset();
    const auto snap = metrics().snapshot();
    EXPECT_EQ(snap.counters.at("test.reset_counter"), 0u);
    EXPECT_EQ(snap.spans.at("test.reset_span").calls, 0u);
    c.add(1); // handles stay valid after reset
    EXPECT_EQ(metrics().snapshot().counters.at("test.reset_counter"), 1u);
}

TEST_F(MetricsTest, JsonContainsAllSections)
{
    metrics().counter("test.json_counter").add(3);
    metrics().gauge("test.json_gauge").set(1.5);
    metrics().histogram("test.json_hist", {1.0}).observe(0.5);
    metrics().span("test.json_span").record(0.125);
    const std::string json = metrics().snapshot().toJson();
    EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
    EXPECT_NE(json.find("\"spans\":{"), std::string::npos);
    EXPECT_NE(json.find("\"test.json_counter\":3"), std::string::npos);
    EXPECT_NE(json.find("\"test.json_gauge\":1.5"), std::string::npos);
    EXPECT_NE(json.find("\"test.json_span\":{\"calls\":1,\"seconds\":0.125"),
              std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST_F(MetricsTest, JsonEscapesNames)
{
    metrics().counter("test.\"quoted\"\\name").add(1);
    const std::string json = metrics().snapshot().toJson();
    EXPECT_NE(json.find("\"test.\\\"quoted\\\"\\\\name\":1"),
              std::string::npos);
}

TEST_F(MetricsTest, JsonWritesNonFiniteValuesAsNull)
{
    // JSON has no inf or nan: the export writes them as null and stays
    // parseable, as health.tile.error and train.last_loss may diverge.
    metrics().gauge("test.inf_gauge").set(
        std::numeric_limits<double>::infinity());
    metrics().gauge("test.nan_gauge").set(
        std::numeric_limits<double>::quiet_NaN());
    metrics().gauge("test.finite_gauge").set(0.1);
    metrics().histogram("test.inf_hist", {1.0}).observe(
        -std::numeric_limits<double>::infinity());
    JsonValue doc;
    const JsonError err = JsonValue::parse(metrics().snapshot().toJson(), doc);
    ASSERT_FALSE(err) << err.message;
    const JsonValue& gauges = doc.get("gauges");
    EXPECT_TRUE(gauges.get("test.inf_gauge").isNull());
    EXPECT_TRUE(gauges.get("test.nan_gauge").isNull());
    EXPECT_EQ(gauges.get("test.finite_gauge").asDouble(), 0.1);
    const JsonValue& hist = doc.get("histograms").get("test.inf_hist");
    EXPECT_TRUE(hist.get("sum").isNull());
    EXPECT_EQ(hist.get("count").asU64(), 1u);
}

TEST_F(MetricsTest, WriteMetricsIfConfiguredHonorsEnv)
{
    ::unsetenv(kMetricsOutEnv);
    EXPECT_FALSE(writeMetricsIfConfigured());
    const std::string path = ::testing::TempDir() + "metrics_env.json";
    ::setenv(kMetricsOutEnv, path.c_str(), 1);
    metrics().counter("test.env_counter").add(5);
    EXPECT_TRUE(writeMetricsIfConfigured());
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"test.env_counter\":5"), std::string::npos);
    ::unsetenv(kMetricsOutEnv);
    std::remove(path.c_str());
}
