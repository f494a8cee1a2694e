#include "harness/runner.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>

#include "common/env.h"
#include "common/string_util.h"
#include "fault/injector.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "parallel/runtime.h"

namespace monsoon {

void BenchRunner::AddStrategy(std::string name, StrategyFn fn) {
  strategies_.emplace_back(std::move(name), std::move(fn));
}

void BenchRunner::SetQueryFilter(std::vector<std::string> names) {
  query_filter_ = std::move(names);
}

Status BenchRunner::RunAll(const Workload& workload) {
  // MONSOON_TRACE=file.json turns on Chrome-trace capture for the whole
  // run without touching the bench binaries (no-op when already tracing);
  // MONSOON_TRACE_TAIL_MS flips to tail sampling instead (one trace file
  // per kept record). The two are mutually exclusive — full tracing wins
  // because it started first.
  obs::MaybeStartTracingFromEnv();
  obs::MaybeStartTailSamplingFromEnv();
  std::string slow_log_path = options_.slow_log;
  if (slow_log_path.empty()) {
    slow_log_path = EnvString("MONSOON_SLOW_LOG").value_or("");
  }
  std::unique_ptr<obs::SlowQueryLog> slow_log;
  if (!slow_log_path.empty()) {
    uint64_t slow_ms = options_.slow_ms;
    if (slow_ms == 0) slow_ms = EnvUint64("MONSOON_SLOW_MS", 0);
    slow_log =
        std::make_unique<obs::SlowQueryLog>(slow_log_path, slow_ms * 1000);
    MONSOON_RETURN_IF_ERROR(slow_log->Open());
  }
  int threads = options_.threads;
  if (threads <= 0) threads = EnvInt("MONSOON_THREADS", 0);
  if (threads > 0) {
    parallel::Config config = parallel::DefaultConfig();
    config.num_threads = threads;
    parallel::SetDefaultConfig(config);
  }
  // Fault injection: MONSOON_FAULTS is the ambient knob; unset leaves the
  // installed state alone (tests install their own specs directly).
  std::string faults = EnvString("MONSOON_FAULTS").value_or("");
  if (!faults.empty()) {
    MONSOON_RETURN_IF_ERROR(
        fault::InstallSpec(faults, fault::BaseConfigFromEnv())
            .WithContext("installing fault spec"));
  }
  for (const BenchQuery& query : workload.queries) {
    if (!query_filter_.empty() &&
        std::find(query_filter_.begin(), query_filter_.end(), query.name) ==
            query_filter_.end()) {
      continue;
    }
    for (const auto& [name, fn] : strategies_) {
      QueryRecord record;
      record.query = query.name;
      record.strategy = name;
      obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
      uint64_t tail_serial = obs::BeginQueryTrace();
      record.result = fn(workload, query);
      record.metrics_delta =
          obs::SnapshotDelta(before, obs::Registry::Global().Snapshot());
      obs::FinishQuery(tail_serial,
                       MakeQueryReport(record.result, query.name, name),
                       static_cast<uint64_t>(record.result.total_seconds * 1e6),
                       slow_log.get());
      records_.push_back(std::move(record));
    }
  }
  std::string report_path = options_.report_out;
  if (report_path.empty()) {
    report_path = EnvString("MONSOON_REPORT").value_or("");
  }
  if (!report_path.empty()) {
    MONSOON_RETURN_IF_ERROR(WriteRunReportFile(report_path));
  }
  return Status::OK();
}

double BenchRunner::DisplaySeconds(const RunResult& result) const {
  if (result.timed_out()) return options_.timeout_display_seconds;
  return result.total_seconds;
}

StrategySummary BenchRunner::Summarize(const std::string& strategy) const {
  StrategySummary summary;
  summary.strategy = strategy;
  std::vector<double> seconds;
  std::vector<double> mobjects;
  double sum = 0;
  for (const QueryRecord& record : records_) {
    if (record.strategy != strategy) continue;
    if (!record.result.ok() && !record.result.timed_out()) {
      ++summary.errors;
      continue;
    }
    ++summary.runs;
    if (record.result.timed_out()) ++summary.timeouts;
    double display = DisplaySeconds(record.result);
    seconds.push_back(display);
    sum += record.result.total_seconds;
    mobjects.push_back(static_cast<double>(record.result.objects_processed) / 1e6);
  }
  if (seconds.empty()) return summary;
  std::sort(seconds.begin(), seconds.end());
  std::sort(mobjects.begin(), mobjects.end());
  summary.mean_valid = summary.timeouts == 0;
  summary.mean_seconds = sum / static_cast<double>(seconds.size());
  summary.median_seconds = seconds[seconds.size() / 2];
  summary.max_seconds = seconds.back();
  summary.median_mobjects = mobjects[mobjects.size() / 2];
  return summary;
}

StatusOr<RelativeBuckets> BenchRunner::RelativeTo(const std::string& strategy,
                                                  const std::string& baseline,
                                                  Metric metric) const {
  auto measure = [&](const RunResult& result) {
    return metric == Metric::kSeconds
               ? DisplaySeconds(result)
               : static_cast<double>(result.objects_processed);
  };
  std::map<std::string, double> base_value;
  for (const QueryRecord& record : records_) {
    if (record.strategy != baseline) continue;
    if (!record.result.ok() && !record.result.timed_out()) continue;
    base_value[record.query] = measure(record.result);
  }
  if (base_value.empty()) {
    return Status::NotFound("no records for baseline strategy '" + baseline + "'");
  }
  RelativeBuckets buckets;
  int faster = 0, similar = 0, slower = 0;
  for (const QueryRecord& record : records_) {
    if (record.strategy != strategy) continue;
    auto it = base_value.find(record.query);
    if (it == base_value.end()) continue;
    if (!record.result.ok() && !record.result.timed_out()) continue;
    ++buckets.comparable;
    if (record.result.timed_out()) {
      ++slower;
      continue;
    }
    double ratio = measure(record.result) / std::max(1e-9, it->second);
    if (ratio < 0.9) {
      ++faster;
    } else if (ratio < 1.1) {
      ++similar;
    } else {
      ++slower;
    }
  }
  if (buckets.comparable > 0) {
    buckets.faster = 100.0 * faster / buckets.comparable;
    buckets.similar = 100.0 * similar / buckets.comparable;
    buckets.slower = 100.0 * slower / buckets.comparable;
  }
  return buckets;
}

std::vector<std::string> BenchRunner::StrategyNames() const {
  std::vector<std::string> names;
  names.reserve(strategies_.size());
  for (const auto& [name, fn] : strategies_) names.push_back(name);
  return names;
}

void BenchRunner::PrintSummaryTable(std::ostream& out) const {
  TablePrinter table({"Implementation", "TO", "Mean(s)", "Median(s)", "Max(s)",
                      "Median(Mobj)"});
  for (const std::string& name : StrategyNames()) {
    StrategySummary s = Summarize(name);
    if (s.runs == 0 && s.errors > 0) {
      table.AddRow({name, "-", "n/a", "n/a", "n/a", "n/a"});
      continue;
    }
    table.AddRow({name, std::to_string(s.timeouts),
                  s.mean_valid ? StrFormat("%.3f", s.mean_seconds) : "N/A",
                  s.timeouts > 0 && s.median_seconds >= options_.timeout_display_seconds
                      ? "TO"
                      : StrFormat("%.3f", s.median_seconds),
                  s.max_seconds >= options_.timeout_display_seconds
                      ? "TO"
                      : StrFormat("%.3f", s.max_seconds),
                  StrFormat("%.3f", s.median_mobjects)});
  }
  table.Print(out);
}

void BenchRunner::WriteCsv(std::ostream& out) const {
  out << "query,strategy,status,seconds,objects,work_units,plan_seconds,"
         "stats_seconds,exec_seconds,result_rows,execute_rounds,"
         "udf_cache_hits,udf_cache_misses,udf_cache_bytes\n";
  for (const QueryRecord& record : records_) {
    const RunResult& r = record.result;
    out << record.query << "," << record.strategy << ","
        << RunStatusLabel(r) << ","
        << StrFormat("%.6f", r.total_seconds) << "," << r.objects_processed << ","
        << r.work_units << "," << StrFormat("%.6f", r.plan_seconds) << ","
        << StrFormat("%.6f", r.stats_seconds) << ","
        << StrFormat("%.6f", r.exec_seconds) << "," << r.result_rows << ","
        << r.execute_rounds << "," << r.udf_cache_hits << ","
        << r.udf_cache_misses << "," << r.udf_cache_bytes << "\n";
  }
}

void BenchRunner::WriteRunReport(std::ostream& out) const {
  std::vector<obs::QueryReport> reports;
  reports.reserve(records_.size());
  for (const QueryRecord& record : records_) {
    reports.push_back(MakeQueryReport(record.result, record.query,
                                      record.strategy, record.metrics_delta));
  }
  obs::WriteRunReport(out, reports, obs::Registry::Global().Snapshot());
}

Status BenchRunner::WriteRunReportFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open run report file '" + path + "'");
  }
  WriteRunReport(out);
  out.flush();
  if (!out) {
    return Status::Internal("failed writing run report file '" + path + "'");
  }
  return Status::OK();
}

void BenchRunner::PrintPerQueryTable(std::ostream& out) const {
  std::vector<std::string> headers = {"Query"};
  std::vector<std::string> strategies = StrategyNames();
  for (const auto& s : strategies) headers.push_back(s);
  TablePrinter table(std::move(headers));

  // Preserve query order of first appearance.
  std::vector<std::string> queries;
  for (const QueryRecord& record : records_) {
    if (std::find(queries.begin(), queries.end(), record.query) == queries.end()) {
      queries.push_back(record.query);
    }
  }
  for (const std::string& query : queries) {
    std::vector<std::string> row = {query};
    for (const std::string& strategy : strategies) {
      std::string cell = "-";
      for (const QueryRecord& record : records_) {
        if (record.query == query && record.strategy == strategy) {
          if (record.result.timed_out()) {
            cell = "TO";
          } else if (!record.result.ok()) {
            cell = "err";
          } else {
            cell = StrFormat("%.3f", record.result.total_seconds);
          }
          break;
        }
      }
      row.push_back(std::move(cell));
    }
    table.AddRow(std::move(row));
  }
  table.Print(out);
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& out) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    out << "|";
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::string cell = i < cells.size() ? cells[i] : "";
      out << " " << cell << std::string(widths[i] - cell.size(), ' ') << " |";
    }
    out << "\n";
  };
  print_row(headers_);
  out << "|";
  for (size_t width : widths) out << std::string(width + 2, '-') << "|";
  out << "\n";
  for (const auto& row : rows_) print_row(row);
}

}  // namespace monsoon
