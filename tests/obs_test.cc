// Tests for src/obs/: histogram bucket geometry, per-thread counter shards
// merged exactly under real concurrency, registry snapshot/delta algebra,
// Chrome-trace JSON structure, the disabled-tracing zero-allocation
// guarantee, and the JSON writer/parser round trip everything else leans on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

// ---------------------------------------------------------------------------
// Global allocation counter: the disabled-tracing test asserts that a
// TraceSpan with args performs zero heap allocations when tracing is off.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// GCC pairs `new` expressions it inlines with the replaced `delete` below
// and flags the free() as mismatched; allocation goes through malloc here
// too, so the pairing is in fact consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace monsoon {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds
  // [2^(i-1), 2^i).
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(obs::Histogram::BucketIndex(uint64_t{1} << 63), 64u);
  EXPECT_EQ(obs::Histogram::BucketIndex(~uint64_t{0}), 64u);

  EXPECT_EQ(obs::Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(64), uint64_t{1} << 63);

  // The two functions are inverse on bucket lower bounds, and a value one
  // below a lower bound lands in the previous bucket.
  for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    uint64_t lower = obs::Histogram::BucketLowerBound(i);
    EXPECT_EQ(obs::Histogram::BucketIndex(lower), i) << "bucket " << i;
    if (i >= 1) {
      EXPECT_EQ(obs::Histogram::BucketIndex(lower - 1), i - 1) << "bucket " << i;
    }
  }
}

TEST(HistogramTest, ObserveAndSnapshot) {
  obs::Histogram h;
  for (uint64_t v : {0u, 1u, 2u, 3u, 4u}) h.Observe(v);
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 10u);
  ASSERT_EQ(snap.buckets.size(), obs::kHistogramBuckets);
  EXPECT_EQ(snap.buckets[0], 1u);  // 0
  EXPECT_EQ(snap.buckets[1], 1u);  // 1
  EXPECT_EQ(snap.buckets[2], 2u);  // 2, 3
  EXPECT_EQ(snap.buckets[3], 1u);  // 4
  for (size_t i = 4; i < obs::kHistogramBuckets; ++i) {
    EXPECT_EQ(snap.buckets[i], 0u) << "bucket " << i;
  }
}

TEST(HistogramTest, SnapshotMerge) {
  obs::HistogramSnapshot a;
  a.count = 2;
  a.sum = 5;
  a.buckets = {1, 1};
  obs::HistogramSnapshot b;
  b.count = 3;
  b.sum = 12;
  b.buckets = {0, 1, 2};
  a.Merge(b);
  EXPECT_EQ(a.count, 5u);
  EXPECT_EQ(a.sum, 17u);
  ASSERT_EQ(a.buckets.size(), 3u);
  EXPECT_EQ(a.buckets[0], 1u);
  EXPECT_EQ(a.buckets[1], 2u);
  EXPECT_EQ(a.buckets[2], 2u);
}

// ---------------------------------------------------------------------------
// Sharded counters under real threads: relaxed per-shard adds must still
// sum exactly (no lost updates) once every worker has finished.
// ---------------------------------------------------------------------------

TEST(CounterTest, ConcurrentShardedAddsSumExactly) {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  parallel::ThreadPool pool(4);
  Status status = parallel::ParallelFor(
      &pool, kTasks, 1, /*token=*/nullptr,
      [&counter, &gauge, &histogram](size_t, size_t, size_t) {
        for (int i = 0; i < kAddsPerTask; ++i) {
          counter.Add(1);
          gauge.Add(1);
          histogram.Observe(static_cast<uint64_t>(i));
        }
        return Status::OK();
      });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kTasks) * kAddsPerTask);
  EXPECT_EQ(gauge.Value(), int64_t{kTasks} * kAddsPerTask);
  obs::HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kTasks) * kAddsPerTask);
  // sum of 0..999 = 499500, once per task.
  EXPECT_EQ(snap.sum, static_cast<uint64_t>(kTasks) * 499500u);
}

TEST(CounterTest, LocalCounterAndGaugeArePlainValues) {
  obs::LocalCounter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.Value(), 7u);
  c.Set(2);
  EXPECT_EQ(c.Value(), 2u);

  obs::LocalGauge g;
  g.Add(1.5);
  g.Add(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), -1.0);
}

// ---------------------------------------------------------------------------
// Registry + snapshot deltas
// ---------------------------------------------------------------------------

TEST(RegistryTest, RegisterOnFirstUseReturnsStablePointers) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* c1 = registry.GetCounter("obs_test.stable");
  obs::Counter* c2 = registry.GetCounter("obs_test.stable");
  EXPECT_EQ(c1, c2);
  c1->Add(5);
  obs::MetricsSnapshot snap = registry.Snapshot();
  auto it = snap.counters.find("obs_test.stable");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_GE(it->second, 5u);
}

TEST(RegistryTest, SnapshotDeltaDropsUnchangedAndKeepsGaugeAfter) {
  obs::MetricsSnapshot before;
  before.counters["stale"] = 10;
  before.counters["hot"] = 3;
  before.gauges["level"] = 7;
  obs::HistogramSnapshot h0;
  h0.count = 1;
  h0.sum = 4;
  h0.buckets = {0, 0, 0, 1};
  before.histograms["lat"] = h0;

  obs::MetricsSnapshot after = before;
  after.counters["hot"] = 9;
  after.counters["fresh"] = 2;
  after.gauges["level"] = -4;
  after.histograms["lat"].count = 3;
  after.histograms["lat"].sum = 20;
  after.histograms["lat"].buckets = {0, 0, 0, 2, 1};

  obs::MetricsSnapshot delta = obs::SnapshotDelta(before, after);
  EXPECT_EQ(delta.counters.count("stale"), 0u);  // unchanged -> dropped
  EXPECT_EQ(delta.counters.at("hot"), 6u);
  EXPECT_EQ(delta.counters.at("fresh"), 2u);
  EXPECT_EQ(delta.gauges.at("level"), -4);  // gauges report the after value
  ASSERT_EQ(delta.histograms.count("lat"), 1u);
  EXPECT_EQ(delta.histograms.at("lat").count, 2u);
  EXPECT_EQ(delta.histograms.at("lat").sum, 16u);
  ASSERT_GE(delta.histograms.at("lat").buckets.size(), 5u);
  EXPECT_EQ(delta.histograms.at("lat").buckets[3], 1u);
  EXPECT_EQ(delta.histograms.at("lat").buckets[4], 1u);
}

// ---------------------------------------------------------------------------
// Trace JSON structure
// ---------------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(TraceTest, WritesValidChromeTraceJson) {
  std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(obs::StartTracing(path, /*seed=*/7).ok());
  // Double-start is rejected while active.
  EXPECT_FALSE(obs::StartTracing(path, 7).ok());
  EXPECT_TRUE(obs::TracingEnabled());
  {
    obs::TraceSpan span("test", "outer");
    EXPECT_TRUE(span.enabled());
    span.Arg("n", int64_t{3})
        .Arg("ratio", 0.25)
        .Arg("flag", true)
        .Arg("label", "quote\" backslash\\ newline\n");
    obs::TraceSpan inner("test", "inner");
  }
  ASSERT_TRUE(obs::StopTracing().ok());
  EXPECT_FALSE(obs::TracingEnabled());
  // Stop is idempotent once disarmed.
  EXPECT_TRUE(obs::StopTracing().ok());

  auto doc = obs::JsonParse(ReadFile(path));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool saw_process_name = false, saw_outer = false, saw_inner = false;
  for (const obs::JsonValue& event : events->array) {
    const obs::JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string_value == "M") {
      const obs::JsonValue* name = event.Find("name");
      ASSERT_NE(name, nullptr);
      if (name->string_value == "process_name") saw_process_name = true;
      continue;
    }
    ASSERT_EQ(ph->string_value, "X");
    // Every complete event carries the timeline fields plus the stable
    // identity fields (span_id drawn from the lane stream, per-lane seq).
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("dur"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
    const obs::JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_TRUE(args->is_object());
    const obs::JsonValue* span_id = args->Find("span_id");
    ASSERT_NE(span_id, nullptr);
    ASSERT_TRUE(span_id->is_string());
    EXPECT_EQ(span_id->string_value.substr(0, 2), "0x");
    const obs::JsonValue* name = event.Find("name");
    ASSERT_NE(name, nullptr);
    if (name->string_value == "outer") {
      saw_outer = true;
      EXPECT_EQ(event.Find("cat")->string_value, "test");
      ASSERT_NE(args->Find("n"), nullptr);
      EXPECT_EQ(args->Find("n")->number, 3);
      EXPECT_EQ(args->Find("ratio")->number, 0.25);
      EXPECT_EQ(args->Find("flag")->kind, obs::JsonValue::Kind::kBool);
      EXPECT_EQ(args->Find("label")->string_value,
                "quote\" backslash\\ newline\n");
    }
    if (name->string_value == "inner") saw_inner = true;
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST(TraceTest, DisabledSpanAllocatesNothing) {
  ASSERT_FALSE(obs::TracingEnabled());
  // Warm up any lazy thread-local state outside the measured region.
  {
    obs::TraceSpan warm("test", "warm");
    warm.End();
  }
  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::TraceSpan span("test", "disabled");
    span.Arg("n", int64_t{42})
        .Arg("d", 2.5)
        .Arg("b", false)
        .Arg("s", "a string argument comfortably longer than any SSO buffer");
    span.End();
  }
  uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disabled TraceSpan must not touch the heap";
}

// ---------------------------------------------------------------------------
// JSON writer/parser round trip
// ---------------------------------------------------------------------------

TEST(JsonTest, EscapeAndRoundTrip) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(obs::JsonEscape(std::string("\x01", 1)), "\\u0001");

  const std::string text =
      R"({"a":[1,2.5,"x\n",true,null],"b":{"c":-3},"big":18446744073709551615})";
  auto doc = obs::JsonParse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Serialize(), text);  // member order and spellings preserved
  const obs::JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_EQ(a->array[0].number, 1);
  EXPECT_EQ(a->array[2].string_value, "x\n");
  EXPECT_EQ(doc->Find("b")->Find("c")->number, -3);

  EXPECT_FALSE(obs::JsonParse("{\"unterminated\": ").ok());
  EXPECT_FALSE(obs::JsonParse("{} trailing").ok());
}

TEST(JsonTest, WriterProducesParseableOutput) {
  std::ostringstream out;
  obs::JsonWriter writer(out);
  writer.BeginObject();
  writer.KV("name", "mon\"soon");
  writer.Key("values");
  writer.BeginArray();
  writer.Int(-5);
  writer.Uint(~uint64_t{0});
  writer.Double(0.5);
  writer.Bool(true);
  writer.Null();
  writer.Raw("{\"pre\":1}");
  writer.EndArray();
  writer.EndObject();

  auto doc = obs::JsonParse(out.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << out.str();
  EXPECT_EQ(doc->Find("name")->string_value, "mon\"soon");
  const obs::JsonValue* values = doc->Find("values");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->array.size(), 6u);
  EXPECT_EQ(values->array[0].number, -5);
  EXPECT_EQ(values->array[1].number_text, "18446744073709551615");
  EXPECT_EQ(values->array[5].Find("pre")->number, 1);
}

// ---------------------------------------------------------------------------
// Run-report writer
// ---------------------------------------------------------------------------

TEST(ReportTest, WritesQueriesAndRegistrySections) {
  obs::QueryReport report;
  report.query = "q1";
  report.strategy = "monsoon";
  report.status = "ok";
  report.result_rows = 11;
  report.objects_processed = 1000;
  report.work_units = 1500;
  report.total_seconds = 1.5;
  report.plan_seconds = 0.5;
  report.stats_seconds = 0.25;
  report.exec_seconds = 0.5;
  report.execute_rounds = 2;
  report.udf_cache_hits = 30;
  report.udf_cache_misses = 10;
  report.metrics.counters["mdp.executes"] = 2;

  obs::MetricsSnapshot registry;
  registry.counters["mdp.executes"] = 2;
  obs::HistogramSnapshot h;
  h.count = 2;
  h.sum = 6;
  h.buckets = {0, 0, 1, 1};
  registry.histograms["exec.scan_rows_in"] = h;

  std::ostringstream out;
  obs::WriteRunReport(out, {report}, registry);
  auto doc = obs::JsonParse(out.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << out.str();

  const obs::JsonValue* queries = doc->Find("queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_EQ(queries->array.size(), 1u);
  const obs::JsonValue& q = queries->array[0];
  EXPECT_EQ(q.Find("query")->string_value, "q1");
  EXPECT_EQ(q.Find("status")->string_value, "ok");
  EXPECT_EQ(q.Find("objects_processed")->number, 1000);
  const obs::JsonValue* seconds = q.Find("seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(seconds->Find("total")->number, 1.5);
  // other = total - plan - stats - exec, clamped at zero.
  EXPECT_EQ(seconds->Find("other")->number, 0.25);
  const obs::JsonValue* cache = q.Find("udf_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("hit_rate")->number, 0.75);
  EXPECT_EQ(q.Find("metrics")->Find("counters")->Find("mdp.executes")->number, 2);

  const obs::JsonValue* reg = doc->Find("registry");
  ASSERT_NE(reg, nullptr);
  const obs::JsonValue* hist =
      reg->Find("histograms")->Find("exec.scan_rows_in");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->number, 2);
  // Sparse bucket pairs: [[lower_bound, count], ...] for non-zero buckets.
  const obs::JsonValue* buckets = hist->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->array.size(), 2u);
  EXPECT_EQ(buckets->array[0].array[0].number, 2);  // lower bound of bucket 2
  EXPECT_EQ(buckets->array[0].array[1].number, 1);
  EXPECT_EQ(buckets->array[1].array[0].number, 4);
  EXPECT_EQ(buckets->array[1].array[1].number, 1);
}

}  // namespace
}  // namespace monsoon
