// Concurrency tests for the query server front-end (src/server/): N
// concurrent clients against one in-process server, pinning that
// per-session accounting is bit-identical to one-shot harness runs, that
// overload yields structured kUnavailable rejections, and that shutdown
// drains active sessions through their CancellationTokens without leaking
// pool tasks. Runs under TSan in CI (LABELS tsan).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "common/env.h"
#include "expr/udf.h"
#include "fault/injector.h"
#include "monsoon/monsoon_optimizer.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "server/net.h"
#include "server/server.h"
#include "sql/parser.h"
#include "workloads/udfbench.h"

namespace monsoon {
namespace {

using server::ConnectTo;
using server::LineReader;
using server::QueryServer;
using server::ServerOptions;
using server::WriteAll;

// --------------------------------------------------------------------------
// The gate UDF: lets a test hold a session "mid-query" deterministically.
// The first evaluation latches entered() and every evaluation blocks until
// Open(); cancellation then trips at the next morsel boundary.
// --------------------------------------------------------------------------

std::atomic<bool> g_gate_open{false};
std::atomic<int> g_gate_entered{0};

void RegisterGateUdf() {
  UdfFunction gate;
  gate.name = "server_gate";
  gate.result_type = ValueType::kInt64;
  gate.fn = [](const RowRef& row, const std::vector<size_t>& arg_cols) {
    g_gate_entered.fetch_add(1, std::memory_order_acq_rel);
    while (!g_gate_open.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    (void)row;
    (void)arg_cols;
    return Value(int64_t{1});
  };
  UdfRegistry::Global().RegisterOrReplace(std::move(gate));
}

void WaitUntil(const std::function<bool()>& predicate) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!predicate()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "condition not reached within 30s";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// --------------------------------------------------------------------------
// A minimal blocking client.
// --------------------------------------------------------------------------

class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    auto fd = ConnectTo("127.0.0.1", port);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    fd_ = fd.ok() ? fd.value() : -1;
    reader_ = std::make_unique<LineReader>(fd_);
  }
  ~TestClient() { Close(); }

  bool connected() const { return fd_ >= 0; }

  void Send(const std::string& line) {
    Status status = WriteAll(fd_, line + "\n");
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  /// Blocks for the next response line, parsed as JSON.
  obs::JsonValue Read() {
    std::string line;
    auto got = reader_->ReadLine(&line);
    EXPECT_TRUE(got.ok() && got.value()) << "no response line";
    auto doc = obs::JsonParse(line);
    EXPECT_TRUE(doc.ok()) << line;
    return doc.ok() ? std::move(doc).value() : obs::JsonValue();
  }

  obs::JsonValue RoundTrip(const std::string& line) {
    Send(line);
    return Read();
  }

  void Close() {
    if (fd_ >= 0) {
      server::CloseFd(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  std::unique_ptr<LineReader> reader_;
};

uint64_t Num(const obs::JsonValue& doc, const std::string& key) {
  const obs::JsonValue* v = doc.Find(key);
  EXPECT_NE(v, nullptr) << "missing field '" << key << "'";
  return v == nullptr ? 0 : static_cast<uint64_t>(v->number);
}

std::string Str(const obs::JsonValue& doc, const std::string& key) {
  const obs::JsonValue* v = doc.Find(key);
  EXPECT_NE(v, nullptr) << "missing field '" << key << "'";
  return v == nullptr ? "" : v->string_value;
}

// --------------------------------------------------------------------------
// Fixture: the monsoon_test database plus a gated table, served in-process.
// --------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterGateUdf();
    g_gate_open.store(false);
    g_gate_entered.store(0);

    auto fact = std::make_shared<Table>(
        Schema({{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}));
    for (int64_t i = 0; i < 20000; ++i) {
      ASSERT_TRUE(fact->AppendRow({Value(i % 500), Value(i % 700)}).ok());
    }
    ASSERT_TRUE(catalog_.AddTable("fact", fact).ok());

    auto dim = std::make_shared<Table>(
        Schema({{"k", ValueType::kInt64}, {"tag", ValueType::kString}}));
    for (int64_t i = 0; i < 800; ++i) {
      ASSERT_TRUE(dim->AppendRow({Value(i), Value("g")}).ok());
    }
    ASSERT_TRUE(catalog_.AddTable("dim", dim).ok());

    // > 1 morsel (2048 rows) so a cancelled gate query stops at a morsel
    // boundary instead of running to completion.
    auto gated = std::make_shared<Table>(Schema({{"x", ValueType::kInt64}}));
    for (int64_t i = 0; i < 8192; ++i) {
      ASSERT_TRUE(gated->AppendRow({Value(i)}).ok());
    }
    ASSERT_TRUE(catalog_.AddTable("gated", gated).ok());

    auto small = std::make_shared<Table>(Schema({{"x", ValueType::kInt64}}));
    for (int64_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(small->AppendRow({Value(i % 8)}).ok());
    }
    ASSERT_TRUE(catalog_.AddTable("small", small).ok());
  }

  ServerOptions BaseOptions() {
    ServerOptions options;
    options.optimizer.mcts.iterations = 150;
    options.optimizer.seed = 42;
    return options;
  }

  Catalog catalog_;
  const std::string join_sql_ =
      "SELECT * FROM fact f, dim d WHERE f.x = d.k";
  const std::string udf_sql_ =
      "SELECT * FROM fact f, dim d WHERE identity(f.y) = d.k";
  const std::string gate_sql_ =
      "SELECT * FROM gated g WHERE server_gate(g.x) = 1";
  const std::string small_sql_ =
      "SELECT * FROM small s WHERE identity(s.x) = 3";
};

// (a) Per-session accounting of concurrent sessions is bit-identical to
// one-shot harness runs of the same queries. Shared state is off so every
// session, like every one-shot run, starts cold.
TEST_F(ServerTest, ConcurrentAccountingMatchesOneShot) {
  ServerOptions options = BaseOptions();
  options.share_state = false;
  options.max_sessions = 4;

  // One-shot references through the optimizer exactly as the harness runs
  // it, with the same options the server applies per session.
  std::vector<std::string> sqls = {join_sql_, udf_sql_, small_sql_};
  std::vector<RunResult> reference;
  for (const std::string& sql : sqls) {
    auto spec = SqlParser(&catalog_).Parse(sql);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    RunResult result = MonsoonOptimizer(&catalog_, options.optimizer).Run(*spec);
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    reference.push_back(std::move(result));
  }

  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  // Two concurrent clients per query, each session on its own connection.
  constexpr int kClientsPerQuery = 2;
  std::vector<obs::JsonValue> responses(sqls.size() * kClientsPerQuery);
  std::vector<std::thread> clients;
  for (size_t q = 0; q < sqls.size(); ++q) {
    for (int c = 0; c < kClientsPerQuery; ++c) {
      clients.emplace_back([&, q, c] {
        TestClient client(query_server.port());
        ASSERT_TRUE(client.connected());
        responses[q * kClientsPerQuery + c] = client.RoundTrip(sqls[q]);
      });
    }
  }
  for (std::thread& t : clients) t.join();
  query_server.Shutdown();

  for (size_t q = 0; q < sqls.size(); ++q) {
    const RunResult& ref = reference[q];
    for (int c = 0; c < kClientsPerQuery; ++c) {
      const obs::JsonValue& doc = responses[q * kClientsPerQuery + c];
      SCOPED_TRACE("query " + sqls[q]);
      EXPECT_EQ(Str(doc, "status"), "ok");
      EXPECT_EQ(Num(doc, "rows"), ref.result_rows);
      EXPECT_EQ(Num(doc, "objects"), ref.objects_processed);
      EXPECT_EQ(Num(doc, "work_units"), ref.work_units);
      EXPECT_EQ(Num(doc, "execute_rounds"),
                static_cast<uint64_t>(ref.execute_rounds));
      EXPECT_EQ(Num(doc, "stats_collections"),
                static_cast<uint64_t>(ref.stats_collections));
      const obs::JsonValue* cache = doc.Find("udf_cache");
      ASSERT_NE(cache, nullptr);
      EXPECT_EQ(Num(*cache, "hits"), ref.udf_cache_hits);
      EXPECT_EQ(Num(*cache, "misses"), ref.udf_cache_misses);
    }
  }
  EXPECT_EQ(query_server.pool_pending(), 0u);
}

// Shared-state mode: a repeated identical query hits the cross-session UDF
// cache and warm-starts from the statistics memo; results stay identical.
TEST_F(ServerTest, SharedStateWarmStartsRepeatQueries) {
  ServerOptions options = BaseOptions();
  options.share_state = true;
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  TestClient client(query_server.port());
  ASSERT_TRUE(client.connected());
  obs::JsonValue first = client.RoundTrip(udf_sql_);
  EXPECT_EQ(Str(first, "status"), "ok");
  EXPECT_EQ(query_server.shared_state().memo_size(), 1u);

  obs::JsonValue second = client.RoundTrip(udf_sql_);
  EXPECT_EQ(Str(second, "status"), "ok");
  EXPECT_EQ(Num(second, "rows"), Num(first, "rows"));
  const obs::JsonValue* cache = second.Find("udf_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(Num(*cache, "hits"), 0u)
      << "second identical query must hit the shared UDF cache";

  client.Close();
  query_server.Shutdown();
  EXPECT_EQ(query_server.pool_pending(), 0u);
}

// The shared UDF column cache at server defaults: running the UDF suite
// twice on one server returns every query's one-shot row count in both
// passes. Term ids are query-local, so two queries that bind different
// UDF terms under one term id over the same base table must not share a
// cached column (udf-q20 and udf-q25 returned wrong rows when they did).
TEST(ServerUdfSuiteTest, SharedUdfCacheKeepsResultsAcrossQueries) {
  UdfBenchOptions udf;
  udf.scale = 0.1;
  StatusOr<Workload> workload = MakeUdfBenchWorkload(udf);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ServerOptions options;
  options.optimizer.mcts.iterations = 64;
  options.optimizer.seed = 42;
  ASSERT_TRUE(options.share_state);

  std::vector<uint64_t> expected;
  for (const BenchQuery& query : workload->queries) {
    RunResult result = MonsoonOptimizer(workload->catalog.get(), options.optimizer)
                           .Run(query.spec);
    ASSERT_TRUE(result.ok()) << query.name << ": " << result.status.ToString();
    expected.push_back(result.result_rows);
  }

  QueryServer query_server(workload->catalog.get(), options);
  ASSERT_TRUE(query_server.Start().ok());
  TestClient client(query_server.port());
  ASSERT_TRUE(client.connected());
  uint64_t hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t q = 0; q < workload->queries.size(); ++q) {
      SCOPED_TRACE(workload->queries[q].name + " pass " + std::to_string(pass));
      obs::JsonValue doc = client.RoundTrip(workload->queries[q].sql);
      EXPECT_EQ(Str(doc, "status"), "ok");
      EXPECT_EQ(Num(doc, "rows"), expected[q]);
      const obs::JsonValue* cache = doc.Find("udf_cache");
      ASSERT_NE(cache, nullptr);
      hits += Num(*cache, "hits");
    }
  }
  EXPECT_GT(hits, 0u) << "the suite must exercise the shared cache";
  client.Close();
  query_server.Shutdown();
  EXPECT_EQ(query_server.pool_pending(), 0u);
}

// (b) A query beyond the admission limit gets a structured kUnavailable
// rejection — not a crash, not an unbounded queue.
TEST_F(ServerTest, OverloadRejectsWithUnavailable) {
  ServerOptions options = BaseOptions();
  options.max_sessions = 1;
  options.queue_depth = 0;
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  TestClient holder(query_server.port());
  ASSERT_TRUE(holder.connected());
  holder.Send(gate_sql_);
  WaitUntil([] { return g_gate_entered.load(std::memory_order_acquire) > 0; });

  TestClient rejected(query_server.port());
  ASSERT_TRUE(rejected.connected());
  obs::JsonValue rejection = rejected.RoundTrip(small_sql_);
  EXPECT_EQ(Str(rejection, "status"), "error");
  EXPECT_EQ(Str(rejection, "code"), "Unavailable");
  EXPECT_EQ(query_server.admission_stats().rejected, 1u);

  g_gate_open.store(true, std::memory_order_release);
  obs::JsonValue held = holder.Read();
  EXPECT_EQ(Str(held, "status"), "ok");
  EXPECT_EQ(Num(held, "rows"), 8192u);

  query_server.Shutdown();
  EXPECT_EQ(query_server.pool_pending(), 0u);
}

// A session past max_sessions but within queue_depth waits (bounded) and
// then runs; it is never rejected and never lost.
TEST_F(ServerTest, QueuedSessionRunsAfterSlotFrees) {
  ServerOptions options = BaseOptions();
  options.max_sessions = 1;
  options.queue_depth = 4;
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  TestClient holder(query_server.port());
  ASSERT_TRUE(holder.connected());
  holder.Send(gate_sql_);
  WaitUntil([] { return g_gate_entered.load(std::memory_order_acquire) > 0; });

  TestClient queued(query_server.port());
  ASSERT_TRUE(queued.connected());
  queued.Send(small_sql_);
  WaitUntil([&] { return query_server.admission_stats().queued == 1; });

  g_gate_open.store(true, std::memory_order_release);
  obs::JsonValue held = holder.Read();
  EXPECT_EQ(Str(held, "status"), "ok");
  obs::JsonValue ran = queued.Read();
  EXPECT_EQ(Str(ran, "status"), "ok");
  EXPECT_EQ(Num(ran, "rows"), 8u);  // small: x % 8 == 3 -> 8 of 64 rows

  query_server.Shutdown();
  EXPECT_EQ(query_server.pool_pending(), 0u);
}

// (c) Shutdown drains: queued sessions get kUnavailable, active sessions
// are cancelled through their CancellationToken and still deliver a final
// structured response, and the session pool ends empty.
TEST_F(ServerTest, ShutdownCancelsActiveAndRejectsQueued) {
  ServerOptions options = BaseOptions();
  options.max_sessions = 1;
  options.queue_depth = 4;
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  TestClient active(query_server.port());
  ASSERT_TRUE(active.connected());
  active.Send(gate_sql_);
  WaitUntil([] { return g_gate_entered.load(std::memory_order_acquire) > 0; });

  TestClient queued(query_server.port());
  ASSERT_TRUE(queued.connected());
  queued.Send(small_sql_);
  WaitUntil([&] { return query_server.admission_stats().queued == 1; });

  std::thread shutdown_thread([&] { query_server.Shutdown(); });

  // The queued session is rejected as soon as the drain begins.
  obs::JsonValue rejection = queued.Read();
  EXPECT_EQ(Str(rejection, "status"), "error");
  EXPECT_EQ(Str(rejection, "code"), "Unavailable");

  // The active session's token is cancelled; releasing the gate lets it
  // reach the next morsel boundary and stop.
  WaitUntil([&] { return query_server.cancelled_sessions() > 0; });
  g_gate_open.store(true, std::memory_order_release);
  obs::JsonValue cancelled = active.Read();
  EXPECT_EQ(Str(cancelled, "status"), "error");
  EXPECT_EQ(Str(cancelled, "code"), "Cancelled");

  shutdown_thread.join();
  EXPECT_EQ(query_server.pool_pending(), 0u)
      << "drain must not leak session pool tasks";
  EXPECT_EQ(query_server.admission_stats().active, 0);

  // The drained server no longer accepts connections.
  auto refused = ConnectTo("127.0.0.1", query_server.port());
  EXPECT_FALSE(refused.ok());
}

// A client that disconnects mid-query cancels its session and frees the
// admission slot for the next client.
TEST_F(ServerTest, ClientDisconnectCancelsSession) {
  ServerOptions options = BaseOptions();
  options.max_sessions = 1;
  options.queue_depth = 4;
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  {
    TestClient vanishing(query_server.port());
    ASSERT_TRUE(vanishing.connected());
    vanishing.Send(gate_sql_);
    WaitUntil(
        [] { return g_gate_entered.load(std::memory_order_acquire) > 0; });
    vanishing.Close();
  }
  WaitUntil([&] { return query_server.cancelled_sessions() > 0; });
  g_gate_open.store(true, std::memory_order_release);
  WaitUntil([&] { return query_server.admission_stats().active == 0; });

  TestClient next(query_server.port());
  ASSERT_TRUE(next.connected());
  obs::JsonValue ok = next.RoundTrip(small_sql_);
  EXPECT_EQ(Str(ok, "status"), "ok");

  query_server.Shutdown();
  EXPECT_EQ(query_server.pool_pending(), 0u);
}

// Protocol edges: ping, stats, parse errors — all structured, in order.
TEST_F(ServerTest, ProtocolControlAndErrors) {
  QueryServer query_server(&catalog_, BaseOptions());
  ASSERT_TRUE(query_server.Start().ok());

  TestClient client(query_server.port());
  ASSERT_TRUE(client.connected());
  obs::JsonValue pong = client.RoundTrip(".ping");
  EXPECT_EQ(Str(pong, "status"), "ok");
  EXPECT_EQ(Num(pong, "id"), 1u);

  obs::JsonValue bad = client.RoundTrip("SELECT FROM nothing");
  EXPECT_EQ(Str(bad, "status"), "error");
  EXPECT_EQ(Num(bad, "id"), 2u);

  obs::JsonValue stats = client.RoundTrip(".stats");
  EXPECT_EQ(Str(stats, "status"), "ok");
  EXPECT_EQ(Num(stats, "id"), 3u);

  obs::JsonValue bye = client.RoundTrip(".quit");
  EXPECT_EQ(Str(bye, "status"), "ok");
  EXPECT_NE(bye.Find("bye"), nullptr);

  query_server.Shutdown();
  EXPECT_EQ(query_server.pool_pending(), 0u);
}

// --------------------------------------------------------------------------
// Telemetry: .stats delta, .metrics exposition, .health, window percentiles
// --------------------------------------------------------------------------

// `.stats` carries the registry delta since the connection opened: a fresh
// connection that ran one query sees exactly its own session counted.
TEST_F(ServerTest, StatsCarriesConnectionScopedRegistryDelta) {
  ServerOptions options = BaseOptions();
  options.telemetry_interval_ms = 0;  // sampler off: pure protocol test
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  // A first connection runs queries that must NOT appear in the second
  // connection's delta.
  TestClient warmup(query_server.port());
  ASSERT_TRUE(warmup.connected());
  EXPECT_EQ(Str(warmup.RoundTrip(small_sql_), "status"), "ok");
  warmup.Close();

  TestClient client(query_server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(Str(client.RoundTrip(small_sql_), "status"), "ok");
  obs::JsonValue stats = client.RoundTrip(".stats");
  EXPECT_EQ(Str(stats, "status"), "ok");
  const obs::JsonValue* delta = stats.Find("metrics_delta");
  ASSERT_NE(delta, nullptr);
  const obs::JsonValue* counters = delta->Find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* sessions = counters->Find("monsoon.server.sessions");
  ASSERT_NE(sessions, nullptr)
      << "delta since connection open must count this connection's session";
  EXPECT_EQ(static_cast<uint64_t>(sessions->number), 1u);
  ASSERT_NE(delta->Find("gauges"), nullptr);
  ASSERT_NE(delta->Find("histograms"), nullptr);

  query_server.Shutdown();
  EXPECT_EQ(query_server.pool_pending(), 0u);
}

double ExpositionGauge(const std::string& text, const std::string& name) {
  size_t pos = text.find("\n" + name + " ");
  if (pos == std::string::npos) return -1;
  return std::strtod(text.c_str() + pos + 1 + name.size(), nullptr);
}

// `.metrics` returns a valid Prometheus exposition whose window-percentile
// gauges match the histogram-merge ground truth from TelemetryWindow.
TEST_F(ServerTest, MetricsExpositionMatchesWindowGroundTruth) {
  ServerOptions options = BaseOptions();
  options.telemetry_interval_ms = 25;
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  TestClient client(query_server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(Str(client.RoundTrip(small_sql_), "status"), "ok");
  }
  // Wait until the sampler has recorded the finished queries' latencies.
  // A session is counted when its query starts but its latency only when
  // it ends, so a tick can hold all three sessions and two latencies: wait
  // for the latency samples themselves.
  const std::string kLatency = "monsoon.server.latency_us";
  WaitUntil([&] {
    obs::WindowSummary window = query_server.TelemetryWindow(3600.0);
    const obs::HistogramSnapshot* latency = window.Histogram(kLatency);
    return latency != nullptr && latency->count >= 3;
  });

  // The sampler keeps ticking, so sandwich the .metrics call between two
  // ground-truth reads and only require equality when the window was
  // stable across the read, in every value compared below; queries have
  // stopped, so it stabilizes.
  auto window_values = [&](const obs::WindowSummary& window) {
    return std::vector<double>{window.Percentile(kLatency, 0.50),
                               window.Percentile(kLatency, 0.95),
                               window.Percentile(kLatency, 0.99),
                               window.Rate("monsoon.server.sessions")};
  };
  bool compared = false;
  for (int attempt = 0; attempt < 50 && !compared; ++attempt) {
    obs::WindowSummary before = query_server.TelemetryWindow(
        options.telemetry_window_seconds);
    obs::JsonValue metrics = client.RoundTrip(".metrics");
    EXPECT_EQ(Str(metrics, "status"), "ok");
    EXPECT_EQ(Str(metrics, "content_type"), "text/plain; version=0.0.4");
    std::string body = Str(metrics, "body");
    Status valid = obs::ValidateExposition(body);
    ASSERT_TRUE(valid.ok()) << valid.ToString() << "\n" << body;
    obs::WindowSummary after = query_server.TelemetryWindow(
        options.telemetry_window_seconds);
    if (window_values(before) != window_values(after)) {
      continue;  // a sampler tick landed mid-read; try again
    }
    for (auto [gauge, q] :
         std::map<std::string, double>{{"monsoon_window_latency_us_p50", 0.50},
                                       {"monsoon_window_latency_us_p95", 0.95},
                                       {"monsoon_window_latency_us_p99",
                                        0.99}}) {
      EXPECT_DOUBLE_EQ(ExpositionGauge(body, gauge),
                       after.Percentile(kLatency, q))
          << gauge;
    }
    EXPECT_DOUBLE_EQ(ExpositionGauge(body, "monsoon_window_qps"),
                     after.Rate("monsoon.server.sessions"));
    EXPECT_GT(ExpositionGauge(body, "monsoon_window_latency_us_p50"), 0.0);
    compared = true;
  }
  EXPECT_TRUE(compared) << "window never stabilized across 50 attempts";

  query_server.Shutdown();
  EXPECT_EQ(query_server.pool_pending(), 0u);
}

TEST_F(ServerTest, HealthSummarizesServerState) {
  ServerOptions options = BaseOptions();
  options.telemetry_interval_ms = 25;
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  TestClient client(query_server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(Str(client.RoundTrip(small_sql_), "status"), "ok");
  WaitUntil([&] { return query_server.telemetry_ticks() >= 2; });

  obs::JsonValue health = client.RoundTrip(".health");
  EXPECT_EQ(Str(health, "status"), "ok");
  EXPECT_GE(Num(health, "sessions"), 1u);
  EXPECT_EQ(Num(health, "degraded_queries"), 0u);
  const obs::JsonValue* draining = health.Find("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_FALSE(draining->bool_value);
  const obs::JsonValue* window = health.Find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_GT(window->Find("seconds")->number, 0.0);
  ASSERT_NE(window->Find("latency_p99_us"), nullptr);
  ASSERT_NE(window->Find("qps"), nullptr);

  query_server.Shutdown();
  EXPECT_EQ(query_server.pool_pending(), 0u);
}

// --------------------------------------------------------------------------
// Tail-sampled traces + slow-query log: the pinned sampling contract.
// --------------------------------------------------------------------------

std::map<std::string, std::string> TailTracesByReason(const std::string& dir) {
  // filename: tail-NNNNNN-<reason>.json -> reason -> full path.
  std::map<std::string, std::string> by_reason;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    size_t dash = name.rfind('-');
    size_t dot = name.rfind(".json");
    if (name.compare(0, 5, "tail-") != 0 || dash == std::string::npos ||
        dot == std::string::npos) {
      continue;
    }
    by_reason[name.substr(dash + 1, dot - dash - 1)] = entry.path().string();
  }
  return by_reason;
}

// Four concurrent clients — fast clean ×2, parse-fault, fault-injected
// degraded — under tail sampling with an unreachably high slow threshold:
// trace files must exist for exactly the degraded and faulted queries and
// for none of the fast clean ones, and the slow-query log must hold
// exactly the same two queries.
TEST_F(ServerTest, TailSamplingKeepsExactlySlowDegradedFaultedTraces) {
  std::string dir = testing::TempDir() + "/tail_pinned";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string slow_log = testing::TempDir() + "/tail_pinned_slow.jsonl";
  std::remove(slow_log.c_str());

  // Force every Σ statistics pass to fail: the fault-injected query
  // completes degraded (prior-only statistics) instead of erroring.
  fault::FaultConfig fault_base;
  fault_base.seed = 21;
  ASSERT_TRUE(fault::InstallSpec("exec.sigma.pass=1:permanent", fault_base).ok());

  obs::TailSamplingOptions tail;
  tail.dir = dir;
  tail.slow_us = 3600u * 1000 * 1000;  // 1h: nothing qualifies as "slow"
  ASSERT_TRUE(obs::StartTailSampling(tail).ok());

  ServerOptions options = BaseOptions();
  options.max_sessions = 4;
  options.share_state = false;  // cold per-session plans: deterministic Σ passes
  options.telemetry_interval_ms = 0;
  options.slow_log_path = slow_log;
  options.slow_query_ms = 0;  // log only degraded / cancelled / failed
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  // Which queries degrade under the Σ fault is a property of the plan the
  // (seeded, cold) optimizer picks: the single-table obscured filter
  // executes a Σ pass over `small`, while neither join plan executes one,
  // so the joins stay clean even with every Σ pass poisoned. share_state
  // is off below so each session plans cold and this stays deterministic.
  const std::string fault_sql = small_sql_;
  const std::string parse_sql = "SELECT FROM nothing";
  std::vector<std::string> sqls = {join_sql_, udf_sql_, parse_sql, fault_sql};
  std::vector<obs::JsonValue> responses(sqls.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < sqls.size(); ++i) {
    clients.emplace_back([&, i] {
      TestClient client(query_server.port());
      ASSERT_TRUE(client.connected());
      responses[i] = client.RoundTrip(sqls[i]);
    });
  }
  for (std::thread& t : clients) t.join();
  query_server.Shutdown();
  ASSERT_TRUE(obs::StopTailSampling().ok());
  fault::Clear();

  // Fast clean queries: ok, no trace field.
  for (size_t i : {0u, 1u}) {
    SCOPED_TRACE(sqls[i]);
    EXPECT_EQ(Str(responses[i], "status"), "ok");
    EXPECT_EQ(responses[i].Find("degraded")->bool_value, false);
    EXPECT_EQ(responses[i].Find("trace"), nullptr)
        << "fast clean query must not keep a trace";
  }
  // Parse error: faulted, trace kept and advertised.
  EXPECT_EQ(Str(responses[2], "status"), "error");
  ASSERT_NE(responses[2].Find("trace"), nullptr)
      << "faulted query must keep its trace";
  // Fault-injected query: completes ok but degraded, trace kept.
  EXPECT_EQ(Str(responses[3], "status"), "ok");
  ASSERT_TRUE(responses[3].Find("degraded")->bool_value)
      << "Σ-pass fault must degrade the obscured-filter query";
  ASSERT_NE(responses[3].Find("trace"), nullptr);

  std::map<std::string, std::string> traces = TailTracesByReason(dir);
  ASSERT_EQ(traces.size(), 2u) << "exactly faulted + degraded traces";
  ASSERT_TRUE(traces.count("faulted"));
  ASSERT_TRUE(traces.count("degraded"));
  EXPECT_EQ(traces["faulted"], Str(responses[2], "trace"));
  EXPECT_EQ(traces["degraded"], Str(responses[3], "trace"));
  for (const auto& [reason, path] : traces) {
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
  }

  // The slow-query log holds exactly the same two queries.
  std::ifstream in(slow_log);
  ASSERT_TRUE(in.is_open());
  std::map<std::string, int> log_reasons;
  std::string line;
  while (std::getline(in, line)) {
    auto doc = obs::JsonParse(line);
    ASSERT_TRUE(doc.ok()) << line;
    std::string reason = Str(*doc, "reason");
    ++log_reasons[reason];
    // The slow log says "error" where the sampler's filename says
    // "faulted" (the log mirrors the response status family, the sampler
    // its verdict); the trace paths must still agree.
    EXPECT_EQ(Str(*doc, "trace"),
              traces[reason == "error" ? "faulted" : reason]);
  }
  EXPECT_EQ(log_reasons.size(), 2u);
  EXPECT_EQ(log_reasons["error"], 1);
  EXPECT_EQ(log_reasons["degraded"], 1);
  EXPECT_EQ(query_server.slow_log()->entries_written(), 2u);
}

// A query that completes only by retrying transient faults is kept by both
// sinks under the one classification: the tail sampler writes a
// "retried" trace (it used to drop it as fast) and the slow log's line
// carries reason "retried" and points at that trace.
TEST_F(ServerTest, TailSamplingKeepsRetriedQueries) {
  std::string dir = testing::TempDir() + "/tail_retried";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string slow_log = testing::TempDir() + "/tail_retried_slow.jsonl";
  std::remove(slow_log.c_str());

  // Transient UDF faults at 5% per evaluation: under this seed some rows
  // of the query fire and every one of them succeeds on a retry, so the
  // query finishes ok and not degraded, with fault retries.
  fault::FaultConfig fault_base;
  fault_base.seed = 1;
  ASSERT_TRUE(fault::InstallSpec("exec.udf_eval*=0.05", fault_base).ok());

  obs::TailSamplingOptions tail;
  tail.dir = dir;
  tail.slow_us = 3600u * 1000 * 1000;  // 1h: nothing qualifies as "slow"
  ASSERT_TRUE(obs::StartTailSampling(tail).ok());

  ServerOptions options = BaseOptions();
  options.share_state = false;
  options.telemetry_interval_ms = 0;
  options.slow_log_path = slow_log;
  options.slow_query_ms = 0;
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  TestClient client(query_server.port());
  ASSERT_TRUE(client.connected());
  obs::JsonValue response = client.RoundTrip(small_sql_);
  obs::JsonValue health = client.RoundTrip(".health");
  query_server.Shutdown();
  ASSERT_TRUE(obs::StopTailSampling().ok());
  fault::Clear();

  EXPECT_EQ(Str(response, "status"), "ok");
  EXPECT_FALSE(response.Find("degraded")->bool_value);
  EXPECT_GT(Num(health, "fault_retries"), 0u);
  ASSERT_NE(response.Find("trace"), nullptr)
      << "a retried query must keep its trace";

  std::map<std::string, std::string> traces = TailTracesByReason(dir);
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_TRUE(traces.count("retried"));
  EXPECT_EQ(traces["retried"], Str(response, "trace"));

  std::ifstream in(slow_log);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u);
  auto doc = obs::JsonParse(lines[0]);
  ASSERT_TRUE(doc.ok()) << lines[0];
  EXPECT_EQ(Str(*doc, "reason"), "retried");
  EXPECT_EQ(Str(*doc, "status"), "ok");
  EXPECT_EQ(Str(*doc, "trace"), traces["retried"]);
  EXPECT_TRUE(std::filesystem::exists(Str(*doc, "trace")));
}

// The "slow" side of the sampling decision: with a 1us threshold every
// clean query ends slow, keeps its trace, and lands in the slow log.
TEST_F(ServerTest, TailSamplingKeepsSlowQueries) {
  std::string dir = testing::TempDir() + "/tail_slow";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  obs::TailSamplingOptions tail;
  tail.dir = dir;
  tail.slow_us = 1;
  ASSERT_TRUE(obs::StartTailSampling(tail).ok());

  ServerOptions options = BaseOptions();
  options.telemetry_interval_ms = 0;
  QueryServer query_server(&catalog_, options);
  ASSERT_TRUE(query_server.Start().ok());

  TestClient client(query_server.port());
  ASSERT_TRUE(client.connected());
  obs::JsonValue response = client.RoundTrip(small_sql_);
  EXPECT_EQ(Str(response, "status"), "ok");
  ASSERT_NE(response.Find("trace"), nullptr);
  EXPECT_NE(Str(response, "trace").find("-slow.json"), std::string::npos);

  query_server.Shutdown();
  ASSERT_TRUE(obs::StopTailSampling().ok());

  std::map<std::string, std::string> traces = TailTracesByReason(dir);
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_TRUE(traces.count("slow"));

  // The kept trace file is a well-formed Chrome trace holding the
  // sampling_decision marker and the session span.
  std::ifstream in(traces["slow"]);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto doc = obs::JsonParse(buffer.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_marker = false;
  bool saw_session = false;
  for (const obs::JsonValue& event : events->array) {
    const obs::JsonValue* name = event.Find("name");
    if (name == nullptr) continue;
    if (name->string_value == "sampling_decision") {
      saw_marker = true;
      const obs::JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->Find("decision")->string_value, "sampled");
      EXPECT_EQ(args->Find("reason")->string_value, "slow");
    }
    if (name->string_value == "session") saw_session = true;
  }
  EXPECT_TRUE(saw_marker) << "kept trace must carry the decision marker";
  EXPECT_TRUE(saw_session) << "kept trace must include the session span";
}

// A variable outside its flag's range is reported and ignored, never
// wrapped or read by its prefix. tests/CMakeLists.txt runs this case in a
// process of its own with MONSOON_SERVER_PORT=70000 and
// MONSOON_SERVER_QUEUE_DEPTH=8x; the suite itself runs without them, where
// the case skips.
TEST(ServerOptionsTest, OutOfRangeEnvValuesAreIgnored) {
  if (!EnvString("MONSOON_SERVER_PORT").has_value()) {
    GTEST_SKIP() << "MONSOON_SERVER_PORT is unset";
  }
  const ServerOptions options = ServerOptions::FromEnv();
  EXPECT_EQ(options.port, 0);
  EXPECT_EQ(options.queue_depth, 16);
}

}  // namespace
}  // namespace monsoon
