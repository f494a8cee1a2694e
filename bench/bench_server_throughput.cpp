// Closed-loop throughput sweep for the query server front-end
// (src/server/): an in-process QueryServer on an ephemeral port, hammered
// by 1/4/16/64 client threads each running the same join query
// back-to-back over its own connection. Reports per-point p50/p99 client
// latency and aggregate qps, and writes BENCH_server.json.
//
// Closed-loop means each client waits for its response before sending the
// next request, so offered load tracks server capacity and the queue never
// grows without bound; with 64 clients against max_sessions=16 the
// admission controller's bounded wait queue (depth 128) is what's being
// exercised.
//
// After the sweep, a telemetry A/B runs the 16-client point against a
// telemetry-off and a fully-instrumented server (sampler ticks, armed
// tail sampling, open slow log) and gates on the qps drop.
//
// Knobs: MONSOON_SERVER_CLIENTS (comma list, default "1,4,16,64"),
// MONSOON_SERVER_REQUESTS (total requests per sweep point, default 96),
// MONSOON_BENCH_ITERS (MCTS iterations per session, default 120),
// MONSOON_OBS_AB_MAX_DROP_PCT (A/B gate, default 50).
// Output path may be overridden as argv[1] (default BENCH_server.json).
//
// Note: on a single-core container concurrency cannot add throughput —
// the sweep then measures admission/queueing overhead, and qps should
// stay roughly flat while p99 grows with the client count.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "server/net.h"
#include "server/server.h"

using namespace monsoon;

namespace {

std::vector<int> ClientCounts() {
  std::vector<int> counts;
  std::stringstream stream(EnvString("MONSOON_SERVER_CLIENTS").value_or("1,4,16,64"));
  std::string token;
  while (std::getline(stream, token, ',')) {
    int clients = std::atoi(token.c_str());
    if (clients > 0) counts.push_back(clients);
  }
  if (counts.empty()) counts = {1, 4, 16, 64};
  return counts;
}

StatusOr<Catalog> MakeCatalog() {
  Catalog catalog;
  auto fact = std::make_shared<Table>(
      Schema({{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}));
  for (int64_t i = 0; i < 20000; ++i) {
    MONSOON_RETURN_IF_ERROR(fact->AppendRow({Value(i % 500), Value(i % 700)}));
  }
  MONSOON_RETURN_IF_ERROR(catalog.AddTable("fact", fact));
  auto dim = std::make_shared<Table>(
      Schema({{"k", ValueType::kInt64}, {"tag", ValueType::kString}}));
  for (int64_t i = 0; i < 800; ++i) {
    MONSOON_RETURN_IF_ERROR(dim->AppendRow({Value(i), Value("g")}));
  }
  MONSOON_RETURN_IF_ERROR(catalog.AddTable("dim", dim));
  return catalog;
}

struct SweepPoint {
  int clients = 0;
  uint64_t requests = 0;
  uint64_t errors = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double qps = 0;
};

double PercentileMs(std::vector<double>& latencies_ms, double q) {
  if (latencies_ms.empty()) return 0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  size_t index = static_cast<size_t>(q * (latencies_ms.size() - 1));
  return latencies_ms[index];
}

/// One closed-loop client: its own connection, `requests` round trips of
/// the fixed query, per-request wall-clock appended to `latencies_ms`.
void RunClient(uint16_t port, const std::string& sql, int requests,
               std::vector<double>* latencies_ms, std::atomic<uint64_t>* errors) {
  auto fd_or = server::ConnectTo("127.0.0.1", port);
  if (!fd_or.ok()) {
    errors->fetch_add(static_cast<uint64_t>(requests));
    return;
  }
  int fd = fd_or.value();
  server::LineReader reader(fd);
  for (int i = 0; i < requests; ++i) {
    auto start = std::chrono::steady_clock::now();
    std::string response;
    bool ok = server::WriteAll(fd, sql + "\n").ok();
    if (ok) {
      auto got = reader.ReadLine(&response);
      ok = got.ok() && got.value() &&
           response.find("\"status\":\"ok\"") != std::string::npos;
    }
    auto end = std::chrono::steady_clock::now();
    if (!ok) {
      errors->fetch_add(1);
      continue;
    }
    latencies_ms->push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  server::CloseFd(fd);
}

/// One self-contained A/B point: fresh server (so telemetry state cannot
/// leak between arms), one warm-up query, then `clients` closed-loop
/// clients of `per_client` requests each. With `telemetry` the full
/// observability stack is live: 25 ms sampler ticks, tail sampling armed
/// with an unreachable threshold (every query buffers spans, then drops
/// them — the steady-state cost), and an open slow-query log that nothing
/// qualifies for.
StatusOr<SweepPoint> RunAbArm(Catalog* catalog, const std::string& sql,
                              int clients, int per_client, bool telemetry) {
  const std::string tmp_dir = EnvString("TMPDIR").value_or("/tmp");
  if (telemetry) {
    obs::TailSamplingOptions tail;
    tail.dir = tmp_dir;
    tail.slow_us = 3600ull * 1000 * 1000;  // 1h: buffer + drop every query
    MONSOON_RETURN_IF_ERROR(obs::StartTailSampling(tail));
  }
  server::ServerOptions options;
  options.port = 0;
  options.max_sessions = 16;
  options.queue_depth = 128;
  options.optimizer.mcts.iterations = bench::BenchIters(120);
  options.optimizer.seed = 42;
  options.telemetry_interval_ms = telemetry ? 25 : 0;
  if (telemetry) {
    options.slow_log_path = tmp_dir + "/BENCH_server_ab_slow.jsonl";
    options.slow_query_ms = 0;  // nothing degrades: eligibility checks only
  }
  server::QueryServer server(catalog, options);
  MONSOON_RETURN_IF_ERROR(server.Start());

  std::vector<double> warm;
  std::atomic<uint64_t> warm_errors{0};
  RunClient(server.port(), sql, 1, &warm, &warm_errors);
  if (warm_errors.load() != 0) {
    server.Shutdown();
    return Status::Internal("A/B warm-up query failed");
  }

  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::atomic<uint64_t> errors{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(RunClient, server.port(), sql, per_client,
                         &latencies[static_cast<size_t>(c)], &errors);
  }
  for (std::thread& t : threads) t.join();
  auto end = std::chrono::steady_clock::now();
  server.Shutdown();
  if (telemetry) MONSOON_RETURN_IF_ERROR(obs::StopTailSampling());

  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  SweepPoint point;
  point.clients = clients;
  point.requests = all.size();
  point.errors = errors.load();
  point.p50_ms = PercentileMs(all, 0.50);
  point.p99_ms = PercentileMs(all, 0.99);
  double elapsed = std::chrono::duration<double>(end - start).count();
  point.qps = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_server.json";
  const int total_requests = std::max(1, EnvInt("MONSOON_SERVER_REQUESTS", 96));
  const std::string sql = "SELECT * FROM fact f, dim d WHERE f.x = d.k";

  std::cout << "\n==========================================================\n"
            << "Server throughput: closed-loop clients vs one QueryServer\n"
            << "(src/server/; not a paper table)\n"
            << "==========================================================\n";

  auto catalog = MakeCatalog();
  if (!catalog.ok()) {
    std::cerr << "catalog failed: " << catalog.status().ToString() << "\n";
    return 1;
  }

  server::ServerOptions options;
  options.port = 0;  // ephemeral
  options.max_sessions = 16;
  options.queue_depth = 128;
  options.optimizer.mcts.iterations = bench::BenchIters(120);
  options.optimizer.seed = 42;
  server::QueryServer server(&catalog.value(), options);
  Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "server failed to start: " << started.ToString() << "\n";
    return 1;
  }
  const uint16_t port = server.port();

  // Warm the shared state (UDF cache + stats memo) once so every sweep
  // point sees the same steady-state server, not a cold first query.
  {
    std::vector<double> warm;
    std::atomic<uint64_t> warm_errors{0};
    RunClient(port, sql, 1, &warm, &warm_errors);
    if (warm_errors.load() != 0) {
      std::cerr << "warm-up query failed\n";
      server.Shutdown();
      return 1;
    }
  }

  std::vector<SweepPoint> sweep;
  for (int clients : ClientCounts()) {
    int per_client = std::max(1, total_requests / clients);
    std::cout << "[sweep] " << clients << " client(s) x " << per_client
              << " request(s)...\n";
    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(clients));
    std::atomic<uint64_t> errors{0};
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(RunClient, port, sql, per_client,
                           &latencies[static_cast<size_t>(c)], &errors);
    }
    for (std::thread& t : threads) t.join();
    auto end = std::chrono::steady_clock::now();
    double elapsed = std::chrono::duration<double>(end - start).count();

    std::vector<double> all;
    for (const auto& per_thread : latencies) {
      all.insert(all.end(), per_thread.begin(), per_thread.end());
    }
    SweepPoint point;
    point.clients = clients;
    point.requests = all.size();
    point.errors = errors.load();
    point.p50_ms = PercentileMs(all, 0.50);
    point.p99_ms = PercentileMs(all, 0.99);
    point.qps = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
    sweep.push_back(point);
  }

  server.Shutdown();
  uint64_t leaked = server.pool_pending();

  // Telemetry A/B: the same 16-client point against a telemetry-off and a
  // fully-instrumented server. On a single-core CI container wall-clock
  // throughput is noisy, so the gate is deliberately loose (default: the
  // instrumented arm must keep >= 50% of baseline qps — catching a
  // catastrophic regression like a lock on the hot path, not a percent);
  // tighten with MONSOON_OBS_AB_MAX_DROP_PCT on quiet hardware.
  const double max_drop_pct =
      EnvDouble("MONSOON_OBS_AB_MAX_DROP_PCT", 50);
  const int ab_clients = 16;
  const int ab_per_client = std::max(1, total_requests / ab_clients);
  std::cout << "[a/b]   " << ab_clients << " client(s) x " << ab_per_client
            << " request(s), telemetry off vs on...\n";
  auto ab_off = RunAbArm(&catalog.value(), sql, ab_clients, ab_per_client,
                         /*telemetry=*/false);
  auto ab_on = RunAbArm(&catalog.value(), sql, ab_clients, ab_per_client,
                        /*telemetry=*/true);
  if (!ab_off.ok() || !ab_on.ok()) {
    std::cerr << "A/B arm failed: "
              << (ab_off.ok() ? ab_on.status() : ab_off.status()).ToString()
              << "\n";
    return 1;
  }
  const double drop_pct =
      ab_off->qps > 0 ? (1.0 - ab_on->qps / ab_off->qps) * 100.0 : 0.0;

  TablePrinter table({"Clients", "Requests", "Errors", "p50(ms)", "p99(ms)",
                      "qps"});
  for (const SweepPoint& point : sweep) {
    table.AddRow({std::to_string(point.clients),
                  std::to_string(point.requests),
                  std::to_string(point.errors),
                  StrFormat("%.1f", point.p50_ms),
                  StrFormat("%.1f", point.p99_ms),
                  StrFormat("%.1f", point.qps)});
  }
  std::cout << "\n";
  table.Print(std::cout);

  TablePrinter ab_table({"Telemetry", "Requests", "Errors", "p50(ms)",
                         "p99(ms)", "qps"});
  for (const auto* arm : {&*ab_off, &*ab_on}) {
    ab_table.AddRow({arm == &*ab_off ? "off" : "on",
                     std::to_string(arm->requests),
                     std::to_string(arm->errors),
                     StrFormat("%.1f", arm->p50_ms),
                     StrFormat("%.1f", arm->p99_ms),
                     StrFormat("%.1f", arm->qps)});
  }
  std::cout << "\n";
  ab_table.Print(std::cout);
  std::cout << "telemetry qps delta: " << StrFormat("%+.1f%%", -drop_pct)
            << " (gate: drop <= " << StrFormat("%.0f%%", max_drop_pct)
            << ")\n";

  std::ofstream out(out_path);
  obs::JsonWriter json(out);
  json.BeginObject();
  json.KV("bench", "server_throughput");
  json.KV("max_sessions", static_cast<uint64_t>(options.max_sessions));
  json.KV("queue_depth", static_cast<uint64_t>(options.queue_depth));
  json.KV("pool_pending_after_shutdown", leaked);
  json.Key("sweep");
  json.BeginArray();
  for (const SweepPoint& point : sweep) {
    json.BeginObject();
    json.KV("clients", static_cast<uint64_t>(point.clients));
    json.KV("requests", point.requests);
    json.KV("errors", point.errors);
    json.KV("p50_ms", point.p50_ms);
    json.KV("p99_ms", point.p99_ms);
    json.KV("qps", point.qps);
    json.EndObject();
  }
  json.EndArray();
  json.Key("telemetry_ab");
  json.BeginObject();
  json.KV("clients", static_cast<uint64_t>(ab_clients));
  json.KV("qps_off", ab_off->qps);
  json.KV("qps_on", ab_on->qps);
  json.KV("p99_ms_off", ab_off->p99_ms);
  json.KV("p99_ms_on", ab_on->p99_ms);
  json.KV("drop_pct", drop_pct);
  json.KV("max_drop_pct", max_drop_pct);
  json.EndObject();
  json.EndObject();
  out << "\n";
  out.close();
  std::cout << "Wrote " << out_path << "\n";

  bool failed = leaked != 0;
  for (const SweepPoint& point : sweep) {
    if (point.errors != 0 || point.requests == 0) failed = true;
  }
  if (ab_off->errors != 0 || ab_on->errors != 0) failed = true;
  if (failed) {
    std::cerr << "FAIL: errors or leaked pool tasks (pending=" << leaked
              << ")\n";
    return 1;
  }
  if (drop_pct > max_drop_pct) {
    std::cerr << "FAIL: telemetry-on qps dropped "
              << StrFormat("%.1f%%", drop_pct) << " (> "
              << StrFormat("%.0f%%", max_drop_pct) << " bound)\n";
    return 1;
  }
  return 0;
}
