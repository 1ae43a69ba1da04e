/**
 * @file
 * Unit tests of the metrics layer: counter and gauge semantics,
 * the registry's Prometheus and table renderings, the shared `metrics`
 * query verb, and the Chrome trace-event recorder.
 *
 * The registry is process-global, so every test registers under its
 * own `test_` prefix; renderings are asserted by substring, never by
 * the whole document (other tests and layers register too).
 */

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "metrics/registry.hh"
#include "metrics/trace.hh"

using namespace l0vliw;
using namespace l0vliw::metrics;

TEST(MetricsCounter, IncAndValue)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsCounter, ShardedIncrementsSumAcrossThreads)
{
    Counter c;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&c]() {
            for (int i = 0; i < kPerThread; ++i)
                c.inc();
        });
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsGauge, SetAndReset)
{
    Gauge g;
    g.set(7);
    EXPECT_EQ(g.value(), 7);
    g.set(-3);
    EXPECT_EQ(g.value(), -3);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(MetricsRegistry, SameNameSameHandle)
{
    Counter &a = counter("test_registry_same_total", "a test counter");
    Counter &b = counter("test_registry_same_total", "a test counter");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsRegistry, LabeledSeriesAreDistinct)
{
    Counter &in =
        counter("test_registry_dir_total{dir=\"in\"}", "directional");
    Counter &out =
        counter("test_registry_dir_total{dir=\"out\"}", "directional");
    EXPECT_NE(&in, &out);
    in.inc(3);
    out.inc(5);
    std::string prom = Registry::global().renderProm();
    EXPECT_NE(prom.find("test_registry_dir_total{dir=\"in\"} 3"),
              std::string::npos);
    EXPECT_NE(prom.find("test_registry_dir_total{dir=\"out\"} 5"),
              std::string::npos);
    // One HELP/TYPE header for the shared base name, not two.
    EXPECT_NE(prom.find("# HELP test_registry_dir_total directional"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE test_registry_dir_total counter"),
              std::string::npos);
}

TEST(MetricsRegistry, GaugeInProm)
{
    Gauge &g = gauge("test_registry_depth", "a test gauge");
    g.set(-4);
    std::string prom = Registry::global().renderProm();
    EXPECT_NE(prom.find("# TYPE test_registry_depth gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("test_registry_depth -4"), std::string::npos);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles)
{
    Counter &c = counter("test_registry_reset_total", "resettable");
    c.inc(9);
    Registry::global().resetAllForTest();
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsQueryVerb, DefaultsToProm)
{
    counter("test_verb_total", "verb test").inc();
    std::string reply = metricsQueryReply({"metrics"});
    std::string error;
    std::optional<json::Value> doc = json::parse(reply, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const json::Value *ok = doc->find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->boolean());
    const json::Value *text = doc->find("text");
    ASSERT_NE(text, nullptr);
    EXPECT_NE(text->str().find("# TYPE test_verb_total counter"),
              std::string::npos);
}

TEST(MetricsQueryVerb, ExplicitFormatsAndErrors)
{
    std::string error;
    for (const char *format : {"prom", "table", "csv", "json"}) {
        std::string reply = metricsQueryReply({"metrics", format});
        std::optional<json::Value> doc = json::parse(reply, &error);
        ASSERT_TRUE(doc.has_value()) << format << ": " << error;
        const json::Value *ok = doc->find("ok");
        ASSERT_NE(ok, nullptr) << format;
        EXPECT_TRUE(ok->boolean()) << format;
    }
    std::string bad = metricsQueryReply({"metrics", "yaml"});
    std::optional<json::Value> doc = json::parse(bad, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const json::Value *ok = doc->find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_FALSE(ok->boolean());
    EXPECT_FALSE(json::parse(metricsQueryReply({"metrics", "a", "b"}),
                             &error)
                     ->find("ok")
                     ->boolean());
}

TEST(Trace, ChromeJsonShape)
{
    TraceRecorder rec;
    TraceSpan span;
    span.job = 7;
    span.name = "cell";
    span.cat = "driver";
    span.tsUs = 12.5;
    span.durUs = 100.0;
    span.args = {{"bench", "fir"}, {"ok", "true"}};
    rec.record(span);
    span.job = 8;
    span.name = "execute";
    span.cat = "worker";
    span.args = {{"reason", "timeout"}};
    rec.record(span);

    std::string error;
    std::optional<json::Value> doc =
        json::parse(rec.toChromeJson(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const json::Value *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->items().size(), 2u);
    const json::Value &first = events->items()[0];
    EXPECT_EQ(first.find("name")->str(), "cell");
    EXPECT_EQ(first.find("cat")->str(), "driver");
    EXPECT_EQ(first.find("ph")->str(), "X");
    EXPECT_EQ(first.find("tid")->numberToken(), "7");
    EXPECT_DOUBLE_EQ(first.find("ts")->asDouble(), 12.5);
    const json::Value *args = first.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("bench")->str(), "fir");
    const json::Value &second = events->items()[1];
    EXPECT_EQ(second.find("tid")->numberToken(), "8");
    EXPECT_EQ(second.find("args")->find("reason")->str(), "timeout");
    const json::Value *unit = doc->find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->str(), "ms");
}

TEST(Trace, TimestampsAreMonotoneOnTheEpoch)
{
    TraceRecorder rec;
    double a = rec.nowUs();
    double b = rec.nowUs();
    EXPECT_GE(a, 0.0);
    EXPECT_GE(b, a);
}
