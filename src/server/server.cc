#include "server/server.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/env.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/net.h"
#include "server/protocol.h"
#include "sql/parser.h"

namespace monsoon::server {

namespace {

/// Registry handles for the monsoon.server.* metric family. Looked up
/// once; the registry owns the objects.
struct ServerMetrics {
  obs::Counter* connections;
  obs::Counter* sessions;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* cancelled;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* degraded;
  obs::Counter* slow;
  obs::Counter* tail_sampled;
  obs::Counter* tail_dropped;
  obs::Gauge* active;
  obs::Gauge* queued;
  obs::Histogram* latency_us;
};

ServerMetrics& Metrics() {
  static ServerMetrics m = [] {
    obs::Registry& reg = obs::Registry::Global();
    ServerMetrics metrics;
    metrics.connections = reg.GetCounter("monsoon.server.connections");
    metrics.sessions = reg.GetCounter("monsoon.server.sessions");
    metrics.admitted = reg.GetCounter("monsoon.server.admitted");
    metrics.rejected = reg.GetCounter("monsoon.server.rejected");
    metrics.cancelled = reg.GetCounter("monsoon.server.cancelled");
    metrics.bytes_in = reg.GetCounter("monsoon.server.bytes_in");
    metrics.bytes_out = reg.GetCounter("monsoon.server.bytes_out");
    metrics.degraded = reg.GetCounter("monsoon.server.degraded");
    metrics.slow = reg.GetCounter("monsoon.server.slow");
    metrics.tail_sampled = reg.GetCounter("monsoon.server.tail_sampled");
    metrics.tail_dropped = reg.GetCounter("monsoon.server.tail_dropped");
    metrics.active = reg.GetGauge("monsoon.server.active");
    metrics.queued = reg.GetGauge("monsoon.server.queued");
    metrics.latency_us = reg.GetHistogram("monsoon.server.latency_us");
    return metrics;
  }();
  return m;
}

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions options;
  options.port =
      EnvNumber("MONSOON_SERVER_PORT", options.port, kListenPortRange);
  options.max_sessions = EnvNumber("MONSOON_SERVER_MAX_SESSIONS",
                                   options.max_sessions, kCountRange);
  options.queue_depth = EnvNumber("MONSOON_SERVER_QUEUE_DEPTH",
                                  options.queue_depth, kNonNegativeIntRange);
  options.telemetry_interval_ms = EnvNumber(
      "MONSOON_SERVER_TELEMETRY_MS", options.telemetry_interval_ms, kWideRange);
  options.slow_log_path = EnvString("MONSOON_SLOW_LOG").value_or("");
  options.slow_query_ms =
      EnvNumber("MONSOON_SLOW_MS", options.slow_query_ms, kWideRange);
  return options;
}

QueryServer::QueryServer(const Catalog* catalog, ServerOptions options)
    : catalog_(catalog),
      options_(options),
      admission_(options.max_sessions, options.queue_depth),
      shared_(options.stats_memo_entries),
      // The pool's concurrency level counts the (absent) caller slot, so
      // max_sessions concurrent session tasks need max_sessions workers —
      // plus one worker the telemetry sampler task parks on, so sampling
      // never competes with a session for a slot.
      session_pool_(std::make_unique<parallel::ThreadPool>(
          (options.max_sessions < 1 ? 1 : options.max_sessions) + 1 +
          (options.telemetry_interval_ms > 0 ? 1 : 0))),
      sampler_(&telemetry_ring_) {}

QueryServer::~QueryServer() {
  Shutdown();
  if (listen_fd_ >= 0) CloseFd(listen_fd_);
}

Status QueryServer::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("QueryServer::Start called twice");
  }
  if (!options_.slow_log_path.empty()) {
    slow_log_ = std::make_unique<obs::SlowQueryLog>(
        options_.slow_log_path, options_.slow_query_ms * 1000);
    MONSOON_RETURN_IF_ERROR(slow_log_->Open());
  }
  MONSOON_ASSIGN_OR_RETURN(listen_fd_, ListenOn(options_.port));
  MONSOON_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_));
  if (options_.telemetry_interval_ms > 0) {
    // Fresh sampling epoch: drop any slots recorded before this start and
    // force the sampler to re-prime, so the first window after (re)start
    // never merges stale buckets whose intervals span a stopped gap.
    telemetry_ring_.Clear();
    sampler_.Reset();
    // Prime the baseline here, before the first connection is accepted:
    // the loop's task can start after the first queries have finished (a
    // busy pool), and a baseline primed then would leave them out of every
    // window.
    sampler_.SampleOnce();
    {
      MutexLock lock(telemetry_mu_);
      telemetry_running_ = true;
    }
    session_pool_->Submit([this] { TelemetryLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QueryServer::TelemetryLoop() {
  for (;;) {
    // Snapshot outside telemetry_mu_: SampleOnce takes the registry and
    // ring locks, and the tick interval should not serialize with
    // StopTelemetry's wait.
    sampler_.SampleOnce();
    MutexLock lock(telemetry_mu_);
    if (telemetry_stop_) break;
    telemetry_cv_.WaitFor(
        telemetry_mu_,
        std::chrono::milliseconds(options_.telemetry_interval_ms));
    if (telemetry_stop_) break;
  }
  MutexLock lock(telemetry_mu_);
  telemetry_running_ = false;
  telemetry_cv_.NotifyAll();
}

void QueryServer::StopTelemetry() {
  MutexLock lock(telemetry_mu_);
  telemetry_stop_ = true;
  telemetry_cv_.NotifyAll();
  while (telemetry_running_) {
    telemetry_cv_.WaitFor(telemetry_mu_, std::chrono::milliseconds(10));
  }
}

void QueryServer::AcceptLoop() {
  for (;;) {
    StatusOr<int> fd_or = AcceptConnection(listen_fd_);
    if (!fd_or.ok()) break;  // listening fd shut down: drain begins
    int fd = fd_or.value();
    if (draining_.load(std::memory_order_acquire)) {
      CloseFd(fd);
      continue;
    }
    Metrics().connections->Add(1);
    ReapFinishedConnections();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      MutexLock lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void QueryServer::ReapFinishedConnections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    MutexLock lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
    CloseFd(conn->fd);
  }
}

void QueryServer::ServeConnection(Connection* conn) {
  LineReader reader(conn->fd);
  std::string line;
  uint64_t request_id = 0;
  uint64_t bytes_seen = 0;
  // Baseline for `.stats`: the reply carries the registry delta since the
  // connection opened (monsoon-top's per-session view).
  obs::MetricsSnapshot conn_start = obs::Registry::Global().Snapshot();
  for (;;) {
    StatusOr<bool> got = reader.ReadLine(&line);
    Metrics().bytes_in->Add(reader.bytes_read() - bytes_seen);
    bytes_seen = reader.bytes_read();
    if (!got.ok() || !got.value()) break;
    ++request_id;
    Request request = ParseRequestLine(line);
    std::string response;
    bool quit = false;
    switch (request.kind) {
      case Request::Kind::kPing:
        response = RenderPong(request_id);
        break;
      case Request::Kind::kStats:
        response = RenderStatsResponse(
            request_id, admission_.stats(), Metrics().sessions->Value(),
            shared_.memo_size(),
            obs::SnapshotDelta(conn_start, obs::Registry::Global().Snapshot()));
        break;
      case Request::Kind::kMetrics:
        response = RenderMetricsNow(request_id);
        break;
      case Request::Kind::kHealth:
        response = RenderHealthNow(request_id);
        break;
      case Request::Kind::kQuit:
        response = RenderBye(request_id);
        quit = true;
        break;
      case Request::Kind::kSql:
        if (request.sql.empty()) {
          response = RenderErrorResponse(
              request_id, Status::InvalidArgument("empty request line"));
        } else {
          response = RunQueryOnPool(request.sql, request_id, conn->fd);
        }
        break;
    }
    response.push_back('\n');
    Metrics().bytes_out->Add(response.size());
    if (!WriteAll(conn->fd, response).ok()) break;
    if (quit) break;
  }
  // Half-close only: the fd is freed by whoever joins this thread (reap
  // or Shutdown), so a racing ShutdownRead can never hit a recycled fd.
  ShutdownFd(conn->fd);
  conn->finished.store(true, std::memory_order_release);
}

std::string QueryServer::RunQueryOnPool(const std::string& sql,
                                        uint64_t request_id, int fd) {
  Metrics().sessions->Add(1);
  {
    AdmissionStats pre = admission_.stats();
    Metrics().active->Set(pre.active);
    Metrics().queued->Set(pre.queued);
  }
  Status admitted = admission_.Acquire();
  if (!admitted.ok()) {
    Metrics().rejected->Add(1);
    return RenderErrorResponse(request_id, admitted);
  }
  Metrics().admitted->Add(1);
  Metrics().active->Set(admission_.stats().active);

  uint64_t session_id = next_session_id_.fetch_add(1) + 1;
  auto handle = std::make_shared<SessionHandle>();
  auto token = std::make_shared<fault::CancellationToken>();
  {
    MutexLock lock(sessions_mu_);
    active_tokens_[session_id] = token.get();
  }
  session_pool_->Submit([this, handle, token, sql, request_id] {
    std::string response = RunSession(sql, request_id, token.get());
    MutexLock lock(handle->wait_mu);
    handle->response = std::move(response);
    handle->done = true;
    handle->done_cv.NotifyAll();
  });

  // Park until the session finishes, polling the socket so a client that
  // disconnected mid-query cancels it instead of wasting the slot. The
  // socket probe runs outside the handle lock (monsoon-server rule).
  std::string response;
  bool cancelled_for_disconnect = false;
  for (;;) {
    if (!cancelled_for_disconnect && PeerClosed(fd)) {
      token->Cancel(StatusCode::kCancelled, "client disconnected");
      cancelled_sessions_.fetch_add(1, std::memory_order_relaxed);
      Metrics().cancelled->Add(1);
      cancelled_for_disconnect = true;
    }
    MutexLock lock(handle->wait_mu);
    if (handle->done) {
      response = handle->response;
      break;
    }
    handle->done_cv.WaitFor(handle->wait_mu, std::chrono::milliseconds(50));
    if (handle->done) {
      response = handle->response;
      break;
    }
  }

  {
    MutexLock lock(sessions_mu_);
    active_tokens_.erase(session_id);
  }
  admission_.Release();
  Metrics().active->Set(admission_.stats().active);
  return response;
}

std::string QueryServer::RenderMetricsNow(uint64_t request_id) const {
  obs::WindowSummary window =
      telemetry_ring_.Window(options_.telemetry_window_seconds);
  std::vector<obs::ExpositionExtra> extras = {
      {"monsoon_window_seconds", window.window_seconds},
      {"monsoon_window_qps", window.Rate("monsoon.server.sessions")},
      {"monsoon_window_latency_us_p50",
       window.Percentile("monsoon.server.latency_us", 0.50)},
      {"monsoon_window_latency_us_p95",
       window.Percentile("monsoon.server.latency_us", 0.95)},
      {"monsoon_window_latency_us_p99",
       window.Percentile("monsoon.server.latency_us", 0.99)},
  };
  return RenderMetricsResponse(
      request_id,
      obs::RenderPrometheusText(obs::Registry::Global().Snapshot(), extras));
}

std::string QueryServer::RenderHealthNow(uint64_t request_id) const {
  HealthInfo health;
  AdmissionStats admission = admission_.stats();
  health.sessions_total = Metrics().sessions->Value();
  health.active = admission.active;
  health.queued = admission.queued;
  health.degraded_queries = Metrics().degraded->Value();
  health.slow_queries = Metrics().slow->Value();
  health.tail_sampled = Metrics().tail_sampled->Value();
  health.tail_dropped = Metrics().tail_dropped->Value();
  // Recovery counters straight from the registry: the injector and the
  // shard supervisor own these, the server only surfaces them.
  obs::Registry& reg = obs::Registry::Global();
  health.fault_retries = reg.GetCounter("faults.retries")->Value();
  health.fault_failures = reg.GetCounter("faults.failures")->Value();
  health.shard_retries = reg.GetCounter("monsoon.shard.retries")->Value();
  health.shard_failures = reg.GetCounter("monsoon.shard.failures")->Value();
  health.shard_recoveries = reg.GetCounter("monsoon.shard.recoveries")->Value();
  health.draining = draining();
  obs::WindowSummary window =
      telemetry_ring_.Window(options_.telemetry_window_seconds);
  health.window_seconds = window.window_seconds;
  health.qps = window.Rate("monsoon.server.sessions");
  health.latency_p50_us = window.Percentile("monsoon.server.latency_us", 0.50);
  health.latency_p95_us = window.Percentile("monsoon.server.latency_us", 0.95);
  health.latency_p99_us = window.Percentile("monsoon.server.latency_us", 0.99);
  return RenderHealthResponse(request_id, health);
}

std::string QueryServer::RunSession(const std::string& sql,
                                    uint64_t request_id,
                                    fault::CancellationToken* token) {
  // Open the tail-sampling scope before the first span so the session
  // span itself lands in a kept trace. No-op (serial 0) when tail
  // sampling is off.
  uint64_t tail_serial = obs::BeginQueryTrace();
  obs::TraceSpan span("server", "session");
  span.Arg("request", request_id);
  std::chrono::steady_clock::time_point begin =
      std::chrono::steady_clock::now();

  auto finish_query = [&](const obs::QueryReport& report,
                          uint64_t elapsed_us) {
    if (report.degraded) Metrics().degraded->Add(1);
    if (obs::ClassifyQuery(report, elapsed_us, options_.slow_query_ms * 1000) ==
        obs::QueryReason::kSlow) {
      Metrics().slow->Add(1);
    }
    span.End();  // buffer the session span before the tail scope ends
    std::string trace_path =
        obs::FinishQuery(tail_serial, report, elapsed_us, slow_log_.get());
    if (tail_serial != 0) {
      (trace_path.empty() ? Metrics().tail_dropped : Metrics().tail_sampled)
          ->Add(1);
    }
    return trace_path;
  };

  SqlParser parser(catalog_);
  StatusOr<QuerySpec> spec_or = parser.Parse(sql);
  if (!spec_or.ok()) {
    span.Arg("status", "parse_error");
    RunResult failed;
    failed.status = spec_or.status();
    uint64_t elapsed_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin)
            .count());
    std::string trace_path =
        finish_query(MakeQueryReport(failed, sql, std::string()), elapsed_us);
    return RenderErrorResponse(request_id, spec_or.status(), trace_path);
  }
  QuerySpec spec = std::move(spec_or).value();

  MonsoonOptimizer::Options opt = options_.optimizer;
  opt.cancel_token = token;
  StatsStore warm;
  StatsStore learned;
  std::string fingerprint = spec.ToString();
  if (options_.share_state) {
    opt.udf_cache = shared_.udf_cache();
    if (shared_.LookupStats(fingerprint, &warm)) opt.warm_stats = &warm;
    opt.learned_stats_out = &learned;
  }
  MonsoonOptimizer optimizer(catalog_, opt);
  RunResult result = optimizer.Run(spec);
  if (options_.share_state && result.ok()) {
    shared_.StoreStats(fingerprint, std::move(learned));
  }

  uint64_t elapsed_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());
  Metrics().latency_us->Observe(elapsed_us);
  span.Arg("status", result.ok() ? "ok" : StatusCodeToString(result.status.code()))
      .Arg("rows", result.result_rows)
      .Arg("work_units", result.work_units);
  obs::QueryReport report =
      MakeQueryReport(result, sql, std::move(fingerprint));
  std::string trace_path = finish_query(report, elapsed_us);
  return RenderRunResponse(request_id, report, trace_path);
}

void QueryServer::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (draining_.exchange(true)) return;

  // 1. Stop accepting: wake the accept thread with a dead listen fd.
  ShutdownFd(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Reject everything queued and everything that arrives later.
  admission_.BeginDrain();

  // 3. Cancel the active sessions; they stop at the next morsel/MCTS
  //    poll and their connection threads deliver kCancelled responses.
  {
    MutexLock lock(sessions_mu_);
    for (auto& [id, token] : active_tokens_) {
      token->Cancel(StatusCode::kCancelled, "server draining");
      cancelled_sessions_.fetch_add(1, std::memory_order_relaxed);
      Metrics().cancelled->Add(1);
    }
  }

  // 4. Drain barrier: every session slot released.
  admission_.WaitIdle();

  // 5. Wake connection threads parked in ReadLine; their final responses
  //    (written before this point or racing with it) still flush because
  //    only the read side closes.
  {
    MutexLock lock(conns_mu_);
    for (auto& conn : conns_) {
      if (!conn->finished.load(std::memory_order_acquire)) {
        ShutdownRead(conn->fd);
      }
    }
  }
  std::vector<std::unique_ptr<Connection>> conns;
  {
    MutexLock lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    CloseFd(conn->fd);
  }

  // 6. Park the sampler so pool_pending() drains to zero.
  StopTelemetry();

  Metrics().active->Set(admission_.stats().active);
  Metrics().queued->Set(admission_.stats().queued);
}

}  // namespace monsoon::server
