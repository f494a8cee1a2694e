#ifndef MONSOON_SERVER_SERVER_H_
#define MONSOON_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "fault/cancellation.h"
#include "monsoon/monsoon_optimizer.h"
#include "obs/slowlog.h"
#include "obs/timeseries.h"
#include "parallel/thread_pool.h"
#include "server/admission.h"
#include "server/shared_state.h"

namespace monsoon::server {

/// Server configuration. Precedence for every knob follows the repo-wide
/// rule: an explicit field set by a --flag wins, then the MONSOON_SERVER_*
/// environment variable (applied by FromEnv), then the default here.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back via
  /// QueryServer::port). Env: MONSOON_SERVER_PORT.
  uint16_t port = 0;
  /// Concurrent-query limit: sessions past it queue. Env:
  /// MONSOON_SERVER_MAX_SESSIONS.
  int max_sessions = 4;
  /// Bounded wait-queue depth; sessions past max_sessions + queue_depth
  /// are rejected with kUnavailable. Env: MONSOON_SERVER_QUEUE_DEPTH.
  int queue_depth = 16;
  /// Share the UDF column cache and the statistics memo across sessions.
  /// Off, every session plans and executes from scratch (the equivalence
  /// tests use this to compare against one-shot runs).
  bool share_state = true;
  /// Entry cap for the cross-query statistics memo.
  size_t stats_memo_entries = 64;
  /// Optimizer configuration applied to every session (work budget,
  /// deadline_ms, seed, MCTS options...). Per-session fields
  /// (cancel_token, udf_cache, warm_stats, learned_stats_out) are
  /// overwritten by the server for each query.
  MonsoonOptimizer::Options optimizer;
  /// Telemetry sampler tick (the time-series ring behind `.metrics` /
  /// `.health` window percentiles). 0 disables the sampler — the ring
  /// stays empty and window fields read as 0. Env:
  /// MONSOON_SERVER_TELEMETRY_MS.
  uint64_t telemetry_interval_ms = 250;
  /// Trailing window `.metrics` / `.health` summarize, in seconds.
  double telemetry_window_seconds = 60;
  /// Structured slow-query log path (JSONL, obs/slowlog.h); empty
  /// disables. Env: MONSOON_SLOW_LOG.
  std::string slow_log_path;
  /// Queries obs::ClassifyQuery calls slow at this threshold (clean and
  /// at/over it) are logged and counted slow; 0 logs only retried /
  /// degraded / cancelled / failed queries. Env: MONSOON_SLOW_MS.
  uint64_t slow_query_ms = 0;

  /// `base` with port / max_sessions / queue_depth / telemetry and
  /// slow-log knobs filled from the environment where the corresponding
  /// field still holds its default.
  static ServerOptions FromEnv(ServerOptions base);
  static ServerOptions FromEnv();
};

/// A long-running multi-session query server: newline-delimited SQL in,
/// one JSON response line out per request (see server/protocol.h).
///
/// Threading model: one accept thread plus one thread per connection
/// (connection threads spend their life blocked on socket I/O, which a
/// pool task must never do — src/server/ is exempted from the
/// monsoon-thread rule for exactly this). Each admitted query is submitted
/// to an internal parallel::ThreadPool as one cancellable session task;
/// the connection thread waits on the session's handle while watching the
/// socket, so a client disconnect cancels its query mid-flight.
///
/// Shutdown() (wired to SIGINT by monsoon-serve) drains gracefully: stop
/// accepting, reject queued sessions with kUnavailable, cancel active
/// session tokens, wait for them to finish writing their final (typically
/// kCancelled) responses, then join every thread. After Shutdown the
/// session pool is empty — pool_pending() == 0 — which the tests and the
/// CI stage assert to prove no task leaked.
class QueryServer {
 public:
  QueryServer(const Catalog* catalog, ServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds and starts the accept thread. Fails if the port is taken.
  Status Start();

  /// The bound port (resolves an ephemeral request).
  uint16_t port() const { return port_; }

  /// Graceful drain; idempotent, callable from any thread (not from a
  /// signal handler — monsoon-serve forwards its SIGINT flag from main).
  void Shutdown();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Queued-but-unclaimed tasks in the session pool (0 after Shutdown).
  size_t pool_pending() const { return session_pool_->pending_tasks(); }

  AdmissionStats admission_stats() const { return admission_.stats(); }
  const SharedServerState& shared_state() const { return shared_; }

  /// Sessions cancelled by drain or client disconnect since Start.
  uint64_t cancelled_sessions() const {
    return cancelled_sessions_.load(std::memory_order_relaxed);
  }

  /// Merged telemetry over the trailing `seconds` (empty summary until
  /// the sampler has ticked twice). Tests compare its percentiles against
  /// the `.metrics` exposition.
  obs::WindowSummary TelemetryWindow(double seconds) const {
    return telemetry_ring_.Window(seconds);
  }

  /// Sampler ticks recorded so far (tests wait on this instead of
  /// sleeping for a fixed interval).
  uint64_t telemetry_ticks() const { return telemetry_ring_.ticks(); }

  /// The slow-query log, or nullptr when --slow-log is off.
  const obs::SlowQueryLog* slow_log() const { return slow_log_.get(); }

 private:
  /// One in-flight query: the connection thread parks on `wait_mu` /
  /// done_cv while the pool task runs, then writes `response` to the
  /// socket. shared_ptr-owned so an abandoned wait (never happens today,
  /// but the pool task must not dangle) stays safe.
  struct SessionHandle {
    Mutex wait_mu;
    CondVar done_cv;
    bool done GUARDED_BY(wait_mu) = false;
    std::string response GUARDED_BY(wait_mu);
  };

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Admission + pool submission + wait; returns the response line.
  std::string RunQueryOnPool(const std::string& sql, uint64_t request_id,
                             int fd);
  /// The session task body (runs on the session pool).
  std::string RunSession(const std::string& sql, uint64_t request_id,
                         fault::CancellationToken* token);
  void ReapFinishedConnections();
  /// The sampler pool task: tick every telemetry_interval_ms until
  /// StopTelemetry. Runs on a dedicated extra pool worker slot.
  void TelemetryLoop();
  void StopTelemetry();
  std::string RenderMetricsNow(uint64_t request_id) const;
  std::string RenderHealthNow(uint64_t request_id) const;

  const Catalog* catalog_;
  ServerOptions options_;
  AdmissionController admission_;
  SharedServerState shared_;
  std::unique_ptr<parallel::ThreadPool> session_pool_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> cancelled_sessions_{0};
  std::atomic<uint64_t> next_session_id_{0};

  Mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);

  Mutex sessions_mu_;
  std::map<uint64_t, fault::CancellationToken*> active_tokens_
      GUARDED_BY(sessions_mu_);

  /// Windowed telemetry: the sampler task appends registry deltas to the
  /// ring; `.metrics` / `.health` read merged windows. telemetry_mu_ is
  /// deliberately unranked — it only parks the sampler between ticks and
  /// never nests with other locks.
  obs::TimeSeriesRing telemetry_ring_;
  obs::MetricsSampler sampler_;
  Mutex telemetry_mu_;
  CondVar telemetry_cv_;
  bool telemetry_stop_ GUARDED_BY(telemetry_mu_) = false;
  bool telemetry_running_ GUARDED_BY(telemetry_mu_) = false;

  std::unique_ptr<obs::SlowQueryLog> slow_log_;
};

}  // namespace monsoon::server

#endif  // MONSOON_SERVER_SERVER_H_
