#include "obs/slowlog.h"

#include <sstream>
#include <utility>

#include "obs/json.h"
#include "obs/trace.h"

namespace monsoon::obs {

SlowQueryLog::SlowQueryLog(std::string path, uint64_t slow_us)
    : path_(std::move(path)), slow_us_(slow_us) {}

Status SlowQueryLog::Open() {
  MutexLock lock(log_mu_);
  out_.open(path_, std::ios::app);
  if (!out_) {
    return Status::Internal("cannot open slow-query log '" + path_ + "'");
  }
  opened_ = true;
  return Status::OK();
}

void SlowQueryLog::Log(const QueryReport& report, uint64_t elapsed_us,
                       QueryReason reason, const std::string& trace_path) {
  if (!opened_) return;
  std::ostringstream line;
  JsonWriter w(line);
  w.BeginObject();
  w.KV("sql", report.query);
  w.KV("fingerprint", report.strategy);
  w.KV("reason", QueryReasonName(reason));
  w.KV("status",
       reason == QueryReason::kCancelled ? "cancelled" : report.status);
  w.KV("elapsed_us", elapsed_us);
  w.KV("result_rows", report.result_rows);
  w.KV("objects_processed", report.objects_processed);
  w.KV("work_units", report.work_units);
  w.Key("udf_cache");
  w.BeginObject();
  w.KV("hits", report.udf_cache_hits);
  w.KV("misses", report.udf_cache_misses);
  w.EndObject();
  w.KV("degraded", report.degraded);
  if (!report.degraded_reasons.empty()) {
    w.Key("degraded_reasons");
    w.BeginArray();
    for (const std::string& why : report.degraded_reasons) w.String(why);
    w.EndArray();
  }
  if (!trace_path.empty()) w.KV("trace", trace_path);
  w.EndObject();
  MutexLock lock(log_mu_);
  out_ << line.str() << "\n";
  out_.flush();
  ++entries_;
}

uint64_t SlowQueryLog::entries_written() const {
  MutexLock lock(log_mu_);
  return entries_;
}

std::string FinishQuery(uint64_t tail_serial, const QueryReport& report,
                        uint64_t elapsed_us, SlowQueryLog* slow_log) {
  std::string trace_path = EndQueryTrace(
      tail_serial, ClassifyQuery(report, elapsed_us, TailSamplingSlowUs()),
      elapsed_us);
  if (slow_log != nullptr) {
    QueryReason reason =
        ClassifyQuery(report, elapsed_us, slow_log->slow_us());
    if (reason != QueryReason::kClean) {
      slow_log->Log(report, elapsed_us, reason, trace_path);
    }
  }
  return trace_path;
}

}  // namespace monsoon::obs
