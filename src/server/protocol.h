#ifndef MONSOON_SERVER_PROTOCOL_H_
#define MONSOON_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "server/admission.h"

namespace monsoon::server {

/// The wire protocol: one newline-terminated request per line, one
/// newline-terminated JSON object per response, in order. A request line
/// is either a dot-command (".ping", ".stats", ".metrics", ".health",
/// ".quit") or SQL handed to src/sql/parser verbatim. Responses always
/// carry:
///
///   id      request ordinal within the connection (1-based)
///   status  "ok" | "timeout" | "error"
///   code    StatusCode name ("OK", "Unavailable", "Cancelled", ...)
///
/// Query responses add the full accounting block (rows, objects,
/// work_units, execute_rounds, stats_collections, udf_cache hits/misses,
/// degraded, seconds breakdown) and, when tail sampling kept the query's
/// trace, its file path; failures add "error" with the status message. An
/// admission rejection is the error response with code "Unavailable" —
/// never a dropped connection. `.metrics` wraps the Prometheus text
/// exposition in the JSON "body" field (still one response line);
/// `.health` is a one-object operator summary; `.stats` carries the
/// registry delta since the connection opened.

struct Request {
  enum class Kind { kSql, kPing, kStats, kMetrics, kHealth, kQuit };
  Kind kind = Kind::kSql;
  std::string sql;
};

/// Classifies a request line. Unknown dot-commands surface as SQL (the
/// parser's error message names the offending token).
Request ParseRequestLine(const std::string& line);

/// Response for a completed (successfully or not) optimizer run, rendered
/// from its QueryReport (MakeQueryReport). `trace_path` is the query's
/// tail-sampled trace file ("" = none).
std::string RenderRunResponse(uint64_t id, const obs::QueryReport& report,
                              const std::string& trace_path = std::string());

/// Response for a request that never reached the optimizer (parse error,
/// admission rejection, drain). A parse error still ends its tail-sampling
/// scope, so it may carry a kept `trace_path` ("" = none).
std::string RenderErrorResponse(uint64_t id, const Status& status,
                                const std::string& trace_path = std::string());

std::string RenderPong(uint64_t id);

/// Acknowledges `.quit` just before the server closes the connection.
std::string RenderBye(uint64_t id);

/// `delta` is the registry delta since the connection opened
/// (SnapshotDelta of the connection-start snapshot against now), rendered
/// in the run-report metrics layout under "metrics_delta".
std::string RenderStatsResponse(uint64_t id, const AdmissionStats& admission,
                                uint64_t sessions_total, size_t memo_entries,
                                const obs::MetricsSnapshot& delta);

/// `.metrics`: the Prometheus text exposition as the "body" string plus
/// its content type, ready for an HTTP-fronting scraper to unwrap.
std::string RenderMetricsResponse(uint64_t id, const std::string& exposition);

/// Operator-facing `.health` summary. Percentiles and rates come from the
/// telemetry window (0 / empty when the sampler is off or has not ticked).
struct HealthInfo {
  uint64_t sessions_total = 0;
  int64_t active = 0;
  int64_t queued = 0;
  uint64_t degraded_queries = 0;
  uint64_t slow_queries = 0;
  uint64_t tail_sampled = 0;
  uint64_t tail_dropped = 0;
  // Fault-layer recovery counters (process-wide totals): fault-point
  // retries/failures from the injector, and the shard supervisor's
  // retried / failed-past-budget / recovered shard counts. A fleet
  // operator reads "retries high, failures zero" as healthy recovery.
  uint64_t fault_retries = 0;
  uint64_t fault_failures = 0;
  uint64_t shard_retries = 0;
  uint64_t shard_failures = 0;
  uint64_t shard_recoveries = 0;
  bool draining = false;
  double window_seconds = 0;
  double qps = 0;
  double latency_p50_us = 0;
  double latency_p95_us = 0;
  double latency_p99_us = 0;
};

std::string RenderHealthResponse(uint64_t id, const HealthInfo& health);

}  // namespace monsoon::server

#endif  // MONSOON_SERVER_PROTOCOL_H_
