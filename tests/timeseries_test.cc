// Tests for the live-telemetry layer: HistogramPercentile ground truth,
// TimeSeriesRing wrap/window merging, MetricsSampler priming, Prometheus
// exposition rendering + validation round trip, the slow-query log, the
// trace-scope contract (a query's pool-task spans reach its tail trace and
// no other, the tail byte budget), and the harness-CSV bit-identity
// guarantee with telemetry on vs off.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.h"
#include "monsoon/monsoon_optimizer.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/slowlog.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "workloads/tpch.h"

namespace monsoon {
namespace {

using obs::ExpositionExtra;
using obs::HistogramPercentile;
using obs::HistogramSnapshot;
using obs::MetricsSnapshot;
using obs::TimeSeriesRing;
using obs::WindowSummary;

HistogramSnapshot HistogramOf(const std::vector<uint64_t>& samples) {
  HistogramSnapshot snap;
  snap.buckets.assign(obs::kHistogramBuckets, 0);
  for (uint64_t v : samples) {
    ++snap.count;
    snap.sum += v;
    ++snap.buckets[obs::Histogram::BucketIndex(v)];
  }
  return snap;
}

// ---------------------------------------------------------------------------
// HistogramPercentile
// ---------------------------------------------------------------------------

TEST(HistogramPercentileTest, EmptyIsZero) {
  HistogramSnapshot empty;
  EXPECT_EQ(HistogramPercentile(empty, 0.5), 0);
}

TEST(HistogramPercentileTest, SingleZeroSample) {
  EXPECT_EQ(HistogramPercentile(HistogramOf({0}), 0.5), 0);
}

TEST(HistogramPercentileTest, RankSelectsTheRightBucket) {
  // 10 samples in [1,2) (bucket 1), 90 in [64,128) (bucket 7): p05 must
  // come from the first bucket, p50 and p99 from the second.
  std::vector<uint64_t> samples(10, 1);
  samples.insert(samples.end(), 90, 64);
  HistogramSnapshot snap = HistogramOf(samples);
  EXPECT_LT(HistogramPercentile(snap, 0.05), 2.0);
  double p50 = HistogramPercentile(snap, 0.50);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 128.0);
  double p99 = HistogramPercentile(snap, 0.99);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 128.0);
}

TEST(HistogramPercentileTest, InterpolatesInsideABucket) {
  // All mass in bucket [64,128): quantiles must be monotone across the
  // bucket's value range.
  HistogramSnapshot snap = HistogramOf(std::vector<uint64_t>(100, 100));
  double p10 = HistogramPercentile(snap, 0.10);
  double p90 = HistogramPercentile(snap, 0.90);
  EXPECT_GE(p10, 64.0);
  EXPECT_LE(p90, 128.0);
  EXPECT_LT(p10, p90);
}

TEST(HistogramPercentileTest, ClampsOutOfRangeQuantiles) {
  HistogramSnapshot snap = HistogramOf({5, 5, 5});
  EXPECT_EQ(HistogramPercentile(snap, -1.0), HistogramPercentile(snap, 0.0));
  EXPECT_EQ(HistogramPercentile(snap, 2.0), HistogramPercentile(snap, 1.0));
}

// ---------------------------------------------------------------------------
// TimeSeriesRing
// ---------------------------------------------------------------------------

MetricsSnapshot SlotDelta(uint64_t queries, int64_t gauge_value) {
  MetricsSnapshot delta;
  delta.counters["q"] = queries;
  delta.gauges["g"] = gauge_value;
  return delta;
}

TEST(TimeSeriesRingTest, WindowMergesNewestSlotsOnly) {
  TimeSeriesRing ring(8);
  for (int i = 0; i < 4; ++i) {
    ring.Record(1.0, SlotDelta(/*queries=*/10, /*gauge_value=*/i));
  }
  // Two newest slots cover 2 seconds.
  WindowSummary window = ring.Window(2.0);
  EXPECT_EQ(window.slots, 2u);
  EXPECT_DOUBLE_EQ(window.window_seconds, 2.0);
  EXPECT_EQ(window.CounterDelta("q"), 20u);
  EXPECT_DOUBLE_EQ(window.Rate("q"), 10.0);
  // Gauges: the newest slot wins.
  EXPECT_EQ(window.delta.gauges.at("g"), 3);
}

TEST(TimeSeriesRingTest, ShortHistoryCoversWhatExists) {
  TimeSeriesRing ring(8);
  ring.Record(0.25, SlotDelta(4, 0));
  WindowSummary window = ring.Window(60.0);
  EXPECT_EQ(window.slots, 1u);
  EXPECT_DOUBLE_EQ(window.window_seconds, 0.25);
  EXPECT_EQ(window.CounterDelta("q"), 4u);
}

TEST(TimeSeriesRingTest, EmptyRingYieldsEmptyWindow) {
  TimeSeriesRing ring(8);
  WindowSummary window = ring.Window(60.0);
  EXPECT_EQ(window.slots, 0u);
  EXPECT_EQ(window.window_seconds, 0);
  EXPECT_EQ(window.CounterDelta("q"), 0u);
  EXPECT_EQ(window.Rate("q"), 0);
  EXPECT_EQ(window.Percentile("h", 0.5), 0);
}

TEST(TimeSeriesRingTest, WrapsAndKeepsTickCount) {
  TimeSeriesRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    ring.Record(1.0, SlotDelta(i, 0));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.ticks(), 10u);
  // Only the last 4 slots (7+8+9+10) survive the wrap.
  WindowSummary window = ring.Window(100.0);
  EXPECT_EQ(window.slots, 4u);
  EXPECT_EQ(window.CounterDelta("q"), 7u + 8 + 9 + 10);
}

TEST(TimeSeriesRingTest, HistogramsMergeAcrossSlots) {
  TimeSeriesRing ring(8);
  MetricsSnapshot a;
  a.histograms["lat"] = HistogramOf({1, 1, 1});
  MetricsSnapshot b;
  b.histograms["lat"] = HistogramOf({1000, 1000, 1000});
  ring.Record(1.0, std::move(a));
  ring.Record(1.0, std::move(b));
  WindowSummary window = ring.Window(2.0);
  const HistogramSnapshot* merged = window.Histogram("lat");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count, 6u);
  // Median straddles the two halves; p01 and p99 land in each.
  EXPECT_LT(window.Percentile("lat", 0.01), 2.0);
  EXPECT_GT(window.Percentile("lat", 0.99), 512.0);
}

TEST(TimeSeriesRingTest, EmptyTrailingWindowAfterClear) {
  // A ring that held data and was cleared must behave exactly like a
  // freshly constructed one: empty window, zero rate, zero percentiles.
  TimeSeriesRing ring(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    MetricsSnapshot delta = SlotDelta(i, static_cast<int64_t>(i));
    delta.histograms["lat"] = HistogramOf({i});
    ring.Record(1.0, std::move(delta));
  }
  ASSERT_EQ(ring.size(), 4u);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.ticks(), 0u);
  WindowSummary window = ring.Window(60.0);
  EXPECT_EQ(window.slots, 0u);
  EXPECT_EQ(window.window_seconds, 0);
  EXPECT_EQ(window.CounterDelta("q"), 0u);
  EXPECT_EQ(window.Rate("q"), 0);
  EXPECT_EQ(window.Histogram("lat"), nullptr);
  EXPECT_EQ(window.Percentile("lat", 0.99), 0);
  EXPECT_TRUE(window.delta.gauges.empty());
}

TEST(MetricsSamplerTest, FirstSamplePrimesSecondRecords) {
  TimeSeriesRing ring(8);
  obs::MetricsSampler sampler(&ring);
  sampler.SampleOnce();
  EXPECT_EQ(ring.ticks(), 0u);  // priming tick records nothing
  obs::Registry::Global().GetCounter("timeseries.test.sampled")->Add(7);
  sampler.SampleOnce();
  EXPECT_EQ(ring.ticks(), 1u);
  WindowSummary window = ring.Window(3600.0);
  EXPECT_EQ(window.CounterDelta("timeseries.test.sampled"), 7u);
}

TEST(MetricsSamplerTest, StopRestartResetsRingAndBaseline) {
  // Simulates the server telemetry lifecycle: sample for a while, stop,
  // then restart with Ring::Clear + Sampler::Reset. The restarted epoch
  // must carry no stale buckets, and the first post-restart SampleOnce
  // must re-prime (record nothing) rather than emit a delta spanning the
  // stopped gap.
  TimeSeriesRing ring(8);
  obs::MetricsSampler sampler(&ring);
  obs::Counter* counter =
      obs::Registry::Global().GetCounter("timeseries.test.restart");
  sampler.SampleOnce();  // prime
  counter->Add(5);
  sampler.SampleOnce();
  ASSERT_EQ(ring.ticks(), 1u);
  ASSERT_EQ(ring.Window(3600.0).CounterDelta("timeseries.test.restart"), 5u);

  // Stop: counter keeps moving while telemetry is down.
  counter->Add(100);

  // Restart: fresh epoch.
  ring.Clear();
  sampler.Reset();
  EXPECT_EQ(ring.ticks(), 0u);
  sampler.SampleOnce();  // must re-prime, not record the 100-wide gap
  EXPECT_EQ(ring.ticks(), 0u);
  EXPECT_EQ(ring.Window(3600.0).slots, 0u);

  counter->Add(3);
  sampler.SampleOnce();
  EXPECT_EQ(ring.ticks(), 1u);
  WindowSummary window = ring.Window(3600.0);
  EXPECT_EQ(window.slots, 1u);
  // Only the post-restart increment appears — no stale pre-stop buckets.
  EXPECT_EQ(window.CounterDelta("timeseries.test.restart"), 3u);
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(ExpositionTest, RendersAndValidates) {
  MetricsSnapshot snap;
  snap.counters["monsoon.server.sessions"] = 42;
  snap.gauges["monsoon.server.active"] = 3;
  snap.histograms["monsoon.server.latency_us"] = HistogramOf({1, 64, 1000});
  std::string text = obs::RenderPrometheusText(
      snap, {{"monsoon_window_qps", 1.5}, {"monsoon_window_seconds", 60.0}});
  Status valid = obs::ValidateExposition(text);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << text;
  EXPECT_NE(text.find("monsoon_server_sessions_total 42"), std::string::npos);
  EXPECT_NE(text.find("monsoon_server_active 3"), std::string::npos);
  EXPECT_NE(text.find("monsoon_server_latency_us_count 3"), std::string::npos);
  EXPECT_NE(text.find("monsoon_server_latency_us_sum 1065"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("monsoon_window_qps 1.5"), std::string::npos);
}

TEST(ExpositionTest, HistogramBucketsAreCumulativeWithLog2Bounds) {
  MetricsSnapshot snap;
  snap.histograms["h"] = HistogramOf({0, 1, 1, 3, 100});
  std::string text = obs::RenderPrometheusText(snap);
  // Bucket 0 (value 0): le="0" cumulative 1; bucket 1 (values 1): le="1"
  // cumulative 3; bucket 2 (values 2-3): le="3" cumulative 4.
  EXPECT_NE(text.find("h_bucket{le=\"0\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("h_bucket{le=\"1\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("h_bucket{le=\"3\"} 4"), std::string::npos) << text;
  EXPECT_NE(text.find("h_bucket{le=\"+Inf\"} 5"), std::string::npos) << text;
  EXPECT_TRUE(obs::ValidateExposition(text).ok());
}

TEST(ExpositionTest, FlattensRegistryNames) {
  MetricsSnapshot snap;
  snap.counters["a.b-c.d"] = 1;
  std::string text = obs::RenderPrometheusText(snap);
  EXPECT_NE(text.find("a_b_c_d_total 1"), std::string::npos) << text;
}

TEST(ExpositionTest, ValidatorRejectsMalformedText) {
  // Sample without a TYPE line.
  EXPECT_FALSE(obs::ValidateExposition("orphan_metric 1\n").ok());
  // Unparseable value.
  EXPECT_FALSE(
      obs::ValidateExposition("# TYPE m counter\nm_total pancake\n").ok());
  // Histogram whose cumulative counts decrease.
  std::string bad_hist =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"3\"} 2\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_sum 9\n"
      "h_count 5\n";
  EXPECT_FALSE(obs::ValidateExposition(bad_hist).ok());
  // +Inf bucket disagrees with _count.
  std::string bad_count =
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 4\n"
      "h_sum 9\n"
      "h_count 5\n";
  EXPECT_FALSE(obs::ValidateExposition(bad_count).ok());
  // Empty exposition carries no samples.
  EXPECT_FALSE(obs::ValidateExposition("").ok());
}

TEST(ExpositionTest, LiveRegistrySnapshotValidates) {
  obs::Registry::Global().GetCounter("timeseries.test.live")->Add(1);
  obs::Registry::Global().GetHistogram("timeseries.test.live_us")->Observe(123);
  std::string text =
      obs::RenderPrometheusText(obs::Registry::Global().Snapshot());
  Status valid = obs::ValidateExposition(text);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// The slow log's old eligibility predicate, now the shared classification
/// against the log's own threshold.
bool Eligible(const obs::SlowQueryLog& log, uint64_t elapsed_us, bool ok,
              bool degraded, bool cancelled) {
  obs::QueryReport report;
  report.code = cancelled ? StatusCode::kCancelled
                : ok      ? StatusCode::kOk
                          : StatusCode::kInternal;
  report.degraded = degraded;
  return obs::ClassifyQuery(report, elapsed_us, log.slow_us()) !=
         obs::QueryReason::kClean;
}

TEST(SlowQueryLogTest, EligibilityPredicate) {
  obs::SlowQueryLog log(TempPath("slow_pred.jsonl"), /*slow_us=*/1000);
  EXPECT_TRUE(Eligible(log, 2000, /*ok=*/true, /*degraded=*/false, false));
  EXPECT_TRUE(Eligible(log, 1000, true, false, false));  // inclusive threshold
  EXPECT_FALSE(Eligible(log, 999, true, false, false));
  EXPECT_TRUE(Eligible(log, 1, true, /*degraded=*/true, false));
  EXPECT_TRUE(Eligible(log, 1, true, false, /*cancelled=*/true));
  EXPECT_TRUE(Eligible(log, 1, /*ok=*/false, false, false));

  obs::SlowQueryLog gated(TempPath("slow_pred2.jsonl"), /*slow_us=*/0);
  EXPECT_FALSE(Eligible(gated, 1u << 30, true, false, false));
  EXPECT_TRUE(Eligible(gated, 1, false, false, false));
}

TEST(SlowQueryLogTest, WritesParseableJsonl) {
  std::string path = TempPath("slow_entries.jsonl");
  std::remove(path.c_str());
  obs::SlowQueryLog log(path, 1000);
  ASSERT_TRUE(log.Open().ok());
  obs::QueryReport entry;
  entry.query = "SELECT \"quoted\" FROM t";
  entry.strategy = "fp1";
  entry.status = "ok";
  entry.result_rows = 5;
  entry.degraded = true;
  entry.degraded_reasons = {"udf timeout", "retry budget"};
  log.Log(entry, /*elapsed_us=*/1234, obs::QueryReason::kDegraded,
          "/tmp/tail-000001-degraded.json");
  obs::QueryReport second;
  second.query = "SELECT 1";
  second.status = "ok";
  log.Log(second, /*elapsed_us=*/99999, obs::QueryReason::kSlow, "");
  EXPECT_EQ(log.entries_written(), 2u);

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    auto doc = obs::JsonParse(line);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString() << ": " << line;
    ASSERT_NE(doc->Find("sql"), nullptr);
    ASSERT_NE(doc->Find("reason"), nullptr);
    ASSERT_NE(doc->Find("elapsed_us"), nullptr);
    ++lines;
    if (lines == 1) {
      EXPECT_EQ(doc->Find("sql")->string_value, "SELECT \"quoted\" FROM t");
      const obs::JsonValue* reasons = doc->Find("degraded_reasons");
      ASSERT_NE(reasons, nullptr);
      EXPECT_EQ(reasons->array.size(), 2u);
      EXPECT_EQ(doc->Find("trace")->string_value,
                "/tmp/tail-000001-degraded.json");
    }
  }
  EXPECT_EQ(lines, 2);
}

// ---------------------------------------------------------------------------
// Trace scopes
// ---------------------------------------------------------------------------

/// The complete (ph:"X") events of the Chrome trace at `path`, in file
/// order; a tail trace's sampling_decision marker comes first.
std::vector<obs::JsonValue> SpansOf(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = obs::JsonParse(text.str());
  EXPECT_TRUE(doc.ok()) << path << ": " << doc.status().ToString();
  std::vector<obs::JsonValue> spans;
  if (!doc.ok()) return spans;
  for (const obs::JsonValue& event : doc->Find("traceEvents")->array) {
    if (event.Find("ph")->string_value == "X") spans.push_back(event);
  }
  return spans;
}

/// An empty directory of the running test case's own. ctest runs every
/// case in a process of its own and tail files are numbered from 1 in each
/// process, so cases writing into one shared directory under `ctest -j`
/// overwrote each other's `tail-000001-*.json`.
std::string FreshTestDir() {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Tail sampling that keeps no query as slow: only the reason passed to
/// EndQueryTrace decides.
obs::TailSamplingOptions NeverSlowTail() {
  obs::TailSamplingOptions tail;
  tail.dir = FreshTestDir();
  tail.slow_us = 3600ull * 1000 * 1000;
  return tail;
}

/// Runs `tasks` tasks on `pool` from the calling thread; each emits one
/// "work" span tagged with `query`. The sleep lets the workers claim tasks
/// while the caller is still submitting.
void RunTaggedTasks(parallel::ThreadPool* pool, int64_t query, int tasks) {
  parallel::TaskGroup group(pool);
  for (int t = 0; t < tasks; ++t) {
    group.Run([query] {
      obs::TraceSpan span("test", "work");
      span.Arg("query", query);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  group.Wait();
}

TEST(TraceScopeTest, PoolTaskSpansReachTheKeptQuerysTrace) {
  ASSERT_TRUE(obs::StartTailSampling(NeverSlowTail()).ok());
  parallel::ThreadPool pool(4);
  uint64_t serial = obs::BeginQueryTrace();
  ASSERT_GT(serial, 0u);
  RunTaggedTasks(&pool, 1, 16);
  std::string path =
      obs::EndQueryTrace(serial, obs::QueryReason::kDegraded, 1);
  ASSERT_TRUE(obs::StopTailSampling().ok());
  ASSERT_FALSE(path.empty());

  int work = 0;
  int on_pool_lanes = 0;
  for (const obs::JsonValue& event : SpansOf(path)) {
    if (event.Find("name")->string_value != "work") continue;
    ++work;
    if (event.Find("tid")->number >= obs::kPoolLaneBase) ++on_pool_lanes;
  }
  EXPECT_EQ(work, 16) << "every task's span is in its query's trace";
  EXPECT_GT(on_pool_lanes, 0) << "pool workers' spans are kept";
}

TEST(TraceScopeTest, ConcurrentQueriesKeepOnlyTheirOwnSpans) {
  ASSERT_TRUE(obs::StartTailSampling(NeverSlowTail()).ok());
  // One shared pool: each query's thread helps run the other's tasks while
  // it waits, and those spans must still land in the submitter's scope.
  parallel::ThreadPool pool(4);
  constexpr int kTasks = 64;
  std::string kept_path;
  std::string clean_path = "unset";
  std::thread kept([&] {
    uint64_t serial = obs::BeginQueryTrace();
    RunTaggedTasks(&pool, 1, kTasks);
    kept_path = obs::EndQueryTrace(serial, obs::QueryReason::kDegraded, 1);
  });
  std::thread clean([&] {
    uint64_t serial = obs::BeginQueryTrace();
    RunTaggedTasks(&pool, 2, kTasks);
    clean_path = obs::EndQueryTrace(serial, obs::QueryReason::kClean, 1);
  });
  kept.join();
  clean.join();
  ASSERT_TRUE(obs::StopTailSampling().ok());

  EXPECT_TRUE(clean_path.empty()) << "a clean query keeps no trace";
  ASSERT_FALSE(kept_path.empty());
  int tagged = 0;
  for (const obs::JsonValue& event : SpansOf(kept_path)) {
    const obs::JsonValue* query = event.Find("args")->Find("query");
    if (query == nullptr) continue;
    EXPECT_EQ(query->number, 1) << "a span of the clean query was misfiled";
    ++tagged;
  }
  EXPECT_EQ(tagged, kTasks);
}

TEST(TraceScopeTest, FullTraceKeepsSpansOfExitedThreads) {
  std::string path = testing::TempDir() + "/trace_exited_thread.json";
  ASSERT_TRUE(obs::StartTracing(path, /*seed=*/7).ok());
  std::thread([] { obs::TraceSpan span("test", "exited_thread"); }).join();
  ASSERT_TRUE(obs::StopTracing().ok());

  int found = 0;
  for (const obs::JsonValue& event : SpansOf(path)) {
    if (event.Find("name")->string_value == "exited_thread") ++found;
  }
  EXPECT_EQ(found, 1);
}

TEST(TraceScopeTest, ByteBudgetDropsEventsAndComesBackAtQueryEnd) {
  obs::TailSamplingOptions tail = NeverSlowTail();
  tail.byte_budget = 1024;  // a few events
  ASSERT_TRUE(obs::StartTailSampling(tail).ok());
  constexpr int kSpans = 100;
  uint64_t first = obs::BeginQueryTrace();
  for (int i = 0; i < kSpans; ++i) {
    obs::TraceSpan span("test", "flood");
  }
  std::string first_path =
      obs::EndQueryTrace(first, obs::QueryReason::kDegraded, 1);
  uint64_t dropped = obs::TailSamplingDroppedEvents();
  // The first query's bytes came back when it ended: the next one buffers.
  uint64_t second = obs::BeginQueryTrace();
  { obs::TraceSpan span("test", "after"); }
  std::string second_path =
      obs::EndQueryTrace(second, obs::QueryReason::kDegraded, 1);
  uint64_t dropped_after = obs::TailSamplingDroppedEvents();
  ASSERT_TRUE(obs::StopTailSampling().ok());

  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(dropped_after, dropped);
  ASSERT_FALSE(first_path.empty());
  std::vector<obs::JsonValue> spans = SpansOf(first_path);
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].Find("name")->string_value, "sampling_decision");
  EXPECT_EQ(spans[0].Find("args")->Find("budget_dropped_events")->number,
            static_cast<double>(dropped));
  int flood = 0;
  for (const obs::JsonValue& event : spans) {
    if (event.Find("name")->string_value == "flood") ++flood;
  }
  EXPECT_GT(flood, 0);
  EXPECT_EQ(static_cast<uint64_t>(flood) + dropped, uint64_t{kSpans});

  ASSERT_FALSE(second_path.empty());
  std::vector<obs::JsonValue> second_spans = SpansOf(second_path);
  ASSERT_FALSE(second_spans.empty());
  // Drops are counted per query: the second query dropped nothing.
  EXPECT_EQ(second_spans[0].Find("name")->string_value, "sampling_decision");
  EXPECT_EQ(second_spans[0].Find("args")->Find("budget_dropped_events")->number, 0);
  int after = 0;
  for (const obs::JsonValue& event : second_spans) {
    if (event.Find("name")->string_value == "after") ++after;
  }
  EXPECT_EQ(after, 1);
}

// ---------------------------------------------------------------------------
// Harness CSV bit-identity with telemetry on vs off
// ---------------------------------------------------------------------------

std::string RunCsv(bool telemetry, int threads, const std::string& tag) {
  TpchOptions tpch;
  tpch.scale = 0.03;
  auto workload = MakeTpchWorkload(tpch);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();

  std::string dir;
  if (telemetry) {
    dir = FreshTestDir();
    obs::TailSamplingOptions tail;
    tail.dir = dir;
    tail.slow_us = 1;  // keep every query's trace: maximum telemetry load
    Status started = obs::StartTailSampling(tail);
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  HarnessOptions options;
  options.threads = threads;
  if (telemetry) {
    options.slow_log = dir + "/csv_slow_" + tag + ".jsonl";
    options.slow_ms = 1;  // log effectively every query too
  }
  BenchRunner runner(options);
  MonsoonOptimizer::Options opt;
  opt.mcts.iterations = 40;
  runner.AddStrategy("Monsoon", [opt](const Workload& w,
                                      const BenchQuery& query) {
    MonsoonOptimizer optimizer(w.catalog.get(), opt);
    return optimizer.Run(query.spec);
  });
  Status status = runner.RunAll(*workload);
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (telemetry) {
    Status stopped = obs::StopTailSampling();
    EXPECT_TRUE(stopped.ok()) << stopped.ToString();
  }
  std::ostringstream csv;
  runner.WriteCsv(csv);
  return csv.str();
}

/// Zeroes the wall-clock CSV columns (seconds, plan_seconds,
/// stats_seconds, exec_seconds — indices 3, 6, 7, 8) so the comparison
/// pins every deterministic column without being vacuous about timing.
std::string ZeroWallClockColumns(const std::string& csv) {
  std::istringstream in(csv);
  std::ostringstream out;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      out << line << "\n";
      header = false;
      continue;
    }
    std::vector<std::string> cells;
    std::istringstream fields(line);
    std::string cell;
    while (std::getline(fields, cell, ',')) cells.push_back(cell);
    for (size_t zeroed : {3u, 6u, 7u, 8u}) {
      if (zeroed < cells.size()) cells[zeroed] = "0";
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      out << (i == 0 ? "" : ",") << cells[i];
    }
    out << "\n";
  }
  return out.str();
}

class CsvTelemetryIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(CsvTelemetryIdentityTest, TelemetryDoesNotPerturbResults) {
  int threads = GetParam();
  std::string off = RunCsv(/*telemetry=*/false, threads, "off");
  std::string on = RunCsv(/*telemetry=*/true, threads, "on");
  ASSERT_GT(off.size(), 100u);  // guard against a vacuously empty CSV
  EXPECT_EQ(ZeroWallClockColumns(off), ZeroWallClockColumns(on));
}

INSTANTIATE_TEST_SUITE_P(Threads, CsvTelemetryIdentityTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace monsoon
