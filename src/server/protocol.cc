#include "server/protocol.h"

#include <sstream>

#include "obs/json.h"
#include "obs/report.h"

namespace monsoon::server {

namespace {

void OpenResponse(obs::JsonWriter* w, uint64_t id, const std::string& status,
                  StatusCode code) {
  w->BeginObject();
  w->KV("id", id);
  w->KV("status", status);
  w->KV("code", StatusCodeToString(code));
}

}  // namespace

Request ParseRequestLine(const std::string& line) {
  Request request;
  size_t begin = line.find_first_not_of(" \t");
  size_t end = line.find_last_not_of(" \t");
  std::string trimmed = begin == std::string::npos
                            ? std::string()
                            : line.substr(begin, end - begin + 1);
  if (trimmed == ".ping") {
    request.kind = Request::Kind::kPing;
  } else if (trimmed == ".stats") {
    request.kind = Request::Kind::kStats;
  } else if (trimmed == ".metrics") {
    request.kind = Request::Kind::kMetrics;
  } else if (trimmed == ".health") {
    request.kind = Request::Kind::kHealth;
  } else if (trimmed == ".quit") {
    request.kind = Request::Kind::kQuit;
  } else {
    request.kind = Request::Kind::kSql;
    request.sql = std::move(trimmed);
  }
  return request;
}

std::string RenderRunResponse(uint64_t id, const obs::QueryReport& report,
                              const std::string& trace_path) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  OpenResponse(&w, id, report.status, report.code);
  if (report.code != StatusCode::kOk) w.KV("error", report.error);
  if (!trace_path.empty()) w.KV("trace", trace_path);
  w.KV("rows", report.result_rows);
  w.KV("objects", report.objects_processed);
  w.KV("work_units", report.work_units);
  w.KV("execute_rounds", report.execute_rounds);
  w.KV("stats_collections", report.stats_collections);
  w.Key("udf_cache");
  w.BeginObject();
  w.KV("hits", report.udf_cache_hits);
  w.KV("misses", report.udf_cache_misses);
  w.EndObject();
  w.KV("degraded", report.degraded);
  w.Key("seconds");
  w.BeginObject();
  w.KV("total", report.total_seconds);
  w.KV("plan", report.plan_seconds);
  w.KV("stats", report.stats_seconds);
  w.KV("exec", report.exec_seconds);
  w.EndObject();
  w.EndObject();
  return out.str();
}

std::string RenderErrorResponse(uint64_t id, const Status& status,
                                const std::string& trace_path) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  OpenResponse(&w, id, "error", status.code());
  w.KV("error", status.message());
  if (!trace_path.empty()) w.KV("trace", trace_path);
  w.EndObject();
  return out.str();
}

std::string RenderPong(uint64_t id) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  OpenResponse(&w, id, "ok", StatusCode::kOk);
  w.KV("pong", true);
  w.EndObject();
  return out.str();
}

std::string RenderBye(uint64_t id) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  OpenResponse(&w, id, "ok", StatusCode::kOk);
  w.KV("bye", true);
  w.EndObject();
  return out.str();
}

std::string RenderStatsResponse(uint64_t id, const AdmissionStats& admission,
                                uint64_t sessions_total, size_t memo_entries,
                                const obs::MetricsSnapshot& delta) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  OpenResponse(&w, id, "ok", StatusCode::kOk);
  w.KV("sessions", sessions_total);
  w.KV("admitted", admission.admitted);
  w.KV("rejected", admission.rejected);
  w.KV("active", admission.active);
  w.KV("queued", admission.queued);
  w.KV("stats_memo_entries", static_cast<uint64_t>(memo_entries));
  w.Key("metrics_delta");
  obs::WriteMetricsJson(w, delta);
  w.EndObject();
  return out.str();
}

std::string RenderMetricsResponse(uint64_t id, const std::string& exposition) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  OpenResponse(&w, id, "ok", StatusCode::kOk);
  w.KV("content_type", "text/plain; version=0.0.4");
  w.KV("body", exposition);
  w.EndObject();
  return out.str();
}

std::string RenderHealthResponse(uint64_t id, const HealthInfo& health) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  OpenResponse(&w, id, "ok", StatusCode::kOk);
  w.KV("sessions", health.sessions_total);
  w.KV("active", health.active);
  w.KV("queued", health.queued);
  w.KV("degraded_queries", health.degraded_queries);
  w.KV("slow_queries", health.slow_queries);
  w.KV("tail_sampled", health.tail_sampled);
  w.KV("tail_dropped", health.tail_dropped);
  w.KV("fault_retries", health.fault_retries);
  w.KV("fault_failures", health.fault_failures);
  w.KV("shard_retries", health.shard_retries);
  w.KV("shard_failures", health.shard_failures);
  w.KV("shard_recoveries", health.shard_recoveries);
  w.KV("draining", health.draining);
  w.Key("window");
  w.BeginObject();
  w.KV("seconds", health.window_seconds);
  w.KV("qps", health.qps);
  w.KV("latency_p50_us", health.latency_p50_us);
  w.KV("latency_p95_us", health.latency_p95_us);
  w.KV("latency_p99_us", health.latency_p99_us);
  w.EndObject();
  w.EndObject();
  return out.str();
}

}  // namespace monsoon::server
