// Unit tests for the observability layer: metric instruments and the
// registry, the Prometheus text exposition, structured logging, and the
// per-request trace. These are pure library tests — the server-level
// integration (GET /metrics, X-Request-Id, ?timing=1) lives in
// server_obs_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "server/json.h"

namespace coverage {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Instruments

TEST(Counter, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(Histogram, CountsSumsAndQuantiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.QuantileSeconds(0.5), 0.0);

  // 100 observations at ~1ms, one at ~1s: p50 must sit near 1ms and p99+
  // must not be dragged to the outlier's bucket for low quantiles.
  for (int i = 0; i < 100; ++i) h.Observe(0.001);
  h.Observe(1.0);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_NEAR(h.sum_seconds(), 1.1, 0.01);

  const double p50 = h.QuantileSeconds(0.5);
  EXPECT_GT(p50, 0.0005);
  EXPECT_LT(p50, 0.005);
  // The outlier lives in the top occupied bucket; p100 must reach it.
  EXPECT_GE(h.QuantileSeconds(1.0), 1.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.QuantileSeconds(0.5), h.QuantileSeconds(0.99));
}

TEST(Histogram, SnapshotBucketsAreCumulativeConsistent) {
  Histogram h;
  h.Observe(0.0);       // clamps into the first bucket
  h.Observe(1e-6);      // 1 µs
  h.Observe(0.5);       // ~2^19 µs
  const Histogram::Snapshot snap = h.TakeSnapshot();
  std::uint64_t total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) total += snap.buckets[i];
  EXPECT_EQ(total, snap.count);
  EXPECT_EQ(snap.count, 3u);
}

TEST(Histogram, ConcurrentObserversLoseNothing) {
  // TSan canary: 8 writers hammer one histogram; every observation must be
  // accounted for in count, sum, and the bucket array.
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(1e-6 * static_cast<double>((t * 31 + i) % 1000 + 1));
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const Histogram::Snapshot snap = h.TakeSnapshot();
  std::uint64_t total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) total += snap.buckets[i];
  EXPECT_EQ(total, snap.count);
  EXPECT_GT(snap.sum_seconds, 0.0);
}

TEST(Counter, ConcurrentIncrementsLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Registry

TEST(MetricsRegistry, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total", "help", {{"route", "x"}});
  Counter* b = registry.GetCounter("requests_total", "other", {{"route", "x"}});
  Counter* c = registry.GetCounter("requests_total", "help", {{"route", "y"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Increment(3);
  c->Increment(1);

  const auto families = registry.Collect();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].name, "requests_total");
  EXPECT_EQ(families[0].help, "help");  // first registration wins
  ASSERT_EQ(families[0].series.size(), 2u);
  EXPECT_EQ(families[0].series[0].value, 3.0);
  EXPECT_EQ(families[0].series[1].value, 1.0);
}

TEST(MetricsRegistry, TypeMismatchYieldsDetachedInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("m", "help");
  Gauge* detached = registry.GetGauge("m", "help");
  ASSERT_NE(detached, nullptr);  // updates still work...
  detached->Set(7);
  const auto families = registry.Collect();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].type, MetricType::kCounter);
  ASSERT_EQ(families[0].series.size(), 1u);  // ...but it is not collected
  EXPECT_EQ(families[0].series[0].value, 0.0);
}

TEST(MetricsRegistry, CollectSortsFamiliesByName) {
  MetricsRegistry registry;
  registry.GetCounter("zzz", "z");
  registry.GetGauge("aaa", "a");
  registry.GetHistogram("mmm", "m");
  const auto families = registry.Collect();
  ASSERT_EQ(families.size(), 3u);
  EXPECT_EQ(families[0].name, "aaa");
  EXPECT_EQ(families[1].name, "mmm");
  EXPECT_EQ(families[2].name, "zzz");
}

TEST(MetricsRegistry, CallbackSeriesEvaluateAtCollect) {
  MetricsRegistry registry;
  std::atomic<int> live{5};
  registry.RegisterCallback("sessions_open", "open sessions",
                            MetricType::kGauge, {},
                            [&live] { return static_cast<double>(live.load()); });
  auto families = registry.Collect();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].series[0].value, 5.0);
  live = 9;
  families = registry.Collect();
  EXPECT_EQ(families[0].series[0].value, 9.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Prometheus, EscapesLabelValuesAndHelp) {
  EXPECT_EQ(EscapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(EscapeHelp("line1\nline2\\x"), "line1\\nline2\\\\x");
}

TEST(Prometheus, RendersHelpTypeAndSeries) {
  MetricsRegistry registry;
  registry.GetCounter("coverage_requests_total", "Requests served.",
                      {{"route", "GET /healthz"}})
      ->Increment(7);
  registry.GetGauge("coverage_sessions_open", "Open sessions.")->Set(3);

  const std::string text = RenderPrometheus(registry);
  EXPECT_NE(text.find("# HELP coverage_requests_total Requests served.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE coverage_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("coverage_requests_total{route=\"GET /healthz\"} 7\n"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE coverage_sessions_open gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("coverage_sessions_open 3\n"), std::string::npos);
  // Families in name order: requests_total before sessions_open.
  EXPECT_LT(text.find("coverage_requests_total"),
            text.find("coverage_sessions_open"));
  // Every line is either a comment or a sample; the text ends in a newline.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(Prometheus, HistogramRendersCumulativeBucketsSumAndCount) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("req_seconds", "Latency.");
  h->Observe(0.5e-6);  // bucket le=1µs
  h->Observe(0.5e-6);
  h->Observe(3e-6);  // bucket le=4µs

  const std::string text = RenderPrometheus(registry);
  EXPECT_NE(text.find("# TYPE req_seconds histogram\n"), std::string::npos);
  // Cumulative: the 1µs bucket holds 2, the 4µs bucket holds all 3.
  EXPECT_NE(text.find("req_seconds_bucket{le=\"1e-06\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("req_seconds_bucket{le=\"4e-06\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("req_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("req_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("req_seconds_sum "), std::string::npos);
  // Empty tail buckets after the last occupied one are skipped — the +Inf
  // line directly follows the last emitted finite bucket.
  EXPECT_EQ(text.find("req_seconds_bucket{le=\"8e-06\"}"), std::string::npos);
}

TEST(Prometheus, HistogramWithLabelsMergesLeIntoLabelSet) {
  MetricsRegistry registry;
  registry.GetHistogram("stage_seconds", "Stage latency.",
                        {{"stage", "wal_fsync"}})
      ->Observe(1e-6);
  const std::string text = RenderPrometheus(registry);
  EXPECT_NE(
      text.find("stage_seconds_bucket{stage=\"wal_fsync\",le=\"+Inf\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("stage_seconds_sum{stage=\"wal_fsync\"}"),
            std::string::npos);
  EXPECT_NE(text.find("stage_seconds_count{stage=\"wal_fsync\"} 1\n"),
            std::string::npos);
}

TEST(Prometheus, IntegersRenderWithoutExponent) {
  MetricsRegistry registry;
  registry.GetCounter("big_total", "Big.")->Increment(1234567890ull);
  const std::string text = RenderPrometheus(registry);
  EXPECT_NE(text.find("big_total 1234567890\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured logging

/// Restores global log state on scope exit so tests do not leak settings
/// into each other (the log layer is process-global by design).
struct LogStateGuard {
  ~LogStateGuard() {
    SetLogLevel(LogLevel::kInfo);
    SetLogJson(false);
    SetLogSink(nullptr);
    SetLogRateLimit(50.0, 100.0);
  }
};

TEST(Log, ParseLogLevelRoundTrips) {
  LogLevel level;
  ASSERT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  ASSERT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("DEBUG", &level));
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "WARN");
}

TEST(Log, LevelFilterSuppressesBelowThreshold) {
  LogStateGuard guard;
  std::vector<std::string> lines;
  std::mutex mu;
  SetLogSink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  SetLogRateLimit(0.0, 0.0);  // disable limiting for determinism
  SetLogLevel(LogLevel::kWarn);
  LogInfo("below_threshold");
  LogWarn("at_threshold");
  LogError("above_threshold");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("at_threshold"), std::string::npos);
  EXPECT_NE(lines[0].find("WARN"), std::string::npos);
  EXPECT_NE(lines[1].find("above_threshold"), std::string::npos);
}

TEST(Log, TextFormatQuotesStringsAndRendersScalars) {
  LogStateGuard guard;
  std::vector<std::string> lines;
  SetLogSink([&](const std::string& line) { lines.push_back(line); });
  SetLogRateLimit(0.0, 0.0);
  SetLogLevel(LogLevel::kInfo);
  LogInfo("shed")
      .Str("reason", "queue full")
      .Int("depth", -2)
      .Uint("max", 256)
      .Double("waited", 0.25)
      .Bool("stale", true);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_NE(line.find("INFO shed"), std::string::npos);
  EXPECT_NE(line.find("reason=\"queue full\""), std::string::npos);
  EXPECT_NE(line.find("depth=-2"), std::string::npos);
  EXPECT_NE(line.find("max=256"), std::string::npos);
  EXPECT_NE(line.find("stale=true"), std::string::npos);
}

TEST(Log, JsonLinesParseAndCarryFields) {
  LogStateGuard guard;
  std::vector<std::string> lines;
  SetLogSink([&](const std::string& line) { lines.push_back(line); });
  SetLogRateLimit(0.0, 0.0);
  SetLogLevel(LogLevel::kInfo);
  SetLogJson(true);
  LogWarn("slow_request")
      .Str("route", "POST /v1/audit")
      .Str("tricky", "a\"b\\c\nd")
      .Double("seconds", 1.5)
      .Int("status", 200);
  ASSERT_EQ(lines.size(), 1u);
  auto parsed = json::Parse(lines[0]);
  ASSERT_TRUE(parsed.ok()) << lines[0];
  ASSERT_TRUE(parsed->is_object());
  const auto& o = parsed->AsObject();
  EXPECT_EQ(o.at("level").AsString(), "WARN");
  EXPECT_EQ(o.at("event").AsString(), "slow_request");
  EXPECT_EQ(o.at("route").AsString(), "POST /v1/audit");
  EXPECT_EQ(o.at("tricky").AsString(), "a\"b\\c\nd");
  EXPECT_EQ(o.at("status").AsDouble(), 200.0);
  EXPECT_NE(o.find("ts"), o.end());
}

TEST(Log, TokenBucketIsDeterministicWithExplicitClock) {
  internal::TokenBucket bucket(1.0, 2.0);  // 1/s sustained, burst 2
  std::uint64_t suppressed = 0;
  EXPECT_TRUE(bucket.Allow(0.0, &suppressed));
  EXPECT_EQ(suppressed, 0u);
  EXPECT_TRUE(bucket.Allow(0.0, &suppressed));  // burst
  EXPECT_FALSE(bucket.Allow(0.0, &suppressed));  // drained
  EXPECT_FALSE(bucket.Allow(0.5, &suppressed));  // half a token back: still <1
  EXPECT_TRUE(bucket.Allow(1.5, &suppressed));   // refilled
  EXPECT_EQ(suppressed, 2u);  // the two drops fold into this pass
  suppressed = 0;
  EXPECT_TRUE(bucket.Allow(100.0, &suppressed));  // refill caps at burst
  EXPECT_TRUE(bucket.Allow(100.0, &suppressed));
  EXPECT_FALSE(bucket.Allow(100.0, &suppressed));
}

TEST(Log, RateLimitFoldsSuppressedCount) {
  LogStateGuard guard;
  std::vector<std::string> lines;
  SetLogSink([&](const std::string& line) { lines.push_back(line); });
  SetLogLevel(LogLevel::kInfo);
  SetLogRateLimit(1000.0, 2.0);  // tiny burst, fast refill
  for (int i = 0; i < 50; ++i) LogInfo("chatty").Int("i", i);
  // The burst passes immediately; drops (if the loop outpaces the refill)
  // must fold into a later event as suppressed=N rather than vanish.
  EXPECT_GE(lines.size(), 2u);
  std::uint64_t emitted = lines.size();
  std::uint64_t folded = 0;
  for (const auto& line : lines) {
    const auto pos = line.find("suppressed=");
    if (pos != std::string::npos) {
      folded += std::stoull(line.substr(pos + std::string("suppressed=").size()));
    }
  }
  EXPECT_LE(emitted + folded, 50u);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(Trace, AccumulatesStagesInFirstSeenOrder) {
  Trace trace("r-test-1");
  EXPECT_EQ(trace.id(), "r-test-1");
  trace.AddStage("parse", 0.010);
  trace.AddStage("search", 0.200);
  trace.AddStage("parse", 0.005);  // folds into the existing entry
  ASSERT_EQ(trace.stages().size(), 2u);
  EXPECT_EQ(trace.stages()[0].first, "parse");
  EXPECT_NEAR(trace.stages()[0].second, 0.015, 1e-12);
  EXPECT_EQ(trace.stages()[1].first, "search");
  EXPECT_NEAR(trace.StageSum(), 0.215, 1e-12);
}

TEST(Trace, ScopedStageIsNullSafe) {
  { ScopedStage stage(nullptr, "ignored"); }  // must not crash
  Trace trace("r-test-2");
  { ScopedStage stage(&trace, "work"); }
  ASSERT_EQ(trace.stages().size(), 1u);
  EXPECT_EQ(trace.stages()[0].first, "work");
  EXPECT_GE(trace.stages()[0].second, 0.0);
}

TEST(Trace, StagesOpenedInsideAScopeAreSubstages) {
  Trace trace("r-test-3");
  {
    ScopedStage outer(&trace, "search");
    { ScopedStage level(&trace, "search_level_0"); }
    { ScopedStage level(&trace, "search_level_1"); }
  }
  { ScopedStage after(&trace, "encode"); }
  ASSERT_EQ(trace.stages().size(), 2u);
  EXPECT_EQ(trace.stages()[0].first, "search");
  EXPECT_EQ(trace.stages()[1].first, "encode");
  ASSERT_EQ(trace.substages().size(), 2u);
  EXPECT_EQ(trace.substages()[0].first, "search_level_0");
  EXPECT_EQ(trace.substages()[1].first, "search_level_1");
  // The levels ran inside "search": the top-level sum counts them once.
  EXPECT_GE(trace.stages()[0].second,
            trace.substages()[0].second + trace.substages()[1].second);
  EXPECT_DOUBLE_EQ(trace.StageSum(),
                   trace.stages()[0].second + trace.stages()[1].second);
}

TEST(Trace, GeneratedIdsAreUnique) {
  const std::string a = GenerateTraceId();
  const std::string b = GenerateTraceId();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("r-", 0), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace coverage
