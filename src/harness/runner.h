#ifndef MONSOON_HARNESS_RUNNER_H_
#define MONSOON_HARNESS_RUNNER_H_

#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "exec/run_result.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "workloads/workload.h"

namespace monsoon {

/// Experiment configuration shared by the table-reproduction benches.
struct HarnessOptions {
  /// Per-query physical work budget (the analogue of the paper's
  /// 20-minute timeout, expressed in the deterministic work metric).
  uint64_t work_budget = 3000000;
  /// Value substituted for timed-out entries when computing median / max,
  /// mirroring the paper's convention of reporting "1200" (the timeout)
  /// for such queries.
  double timeout_display_seconds = 1200;
  /// Threads per query. > 0 installs that level as the process-wide
  /// parallel::DefaultConfig() before running, so Monsoon AND every
  /// baseline execute (and Monsoon plans) at the same concurrency; 0
  /// leaves the current config untouched, which starts out from the
  /// MONSOON_THREADS environment knob (parallel/runtime.h). Shard count and
  /// the UDF cache budget come from the process defaults, which honor
  /// MONSOON_SHARDS and MONSOON_UDF_CACHE.
  int threads = 0;
  /// When non-empty, RunAll writes the per-query JSON run report
  /// (obs::WriteRunReport) here after the last record. Empty honors the
  /// MONSOON_REPORT environment knob instead.
  std::string report_out;
  /// Structured slow-query log path (JSONL, obs/slowlog.h). Non-empty
  /// opens the log before the first query and appends an entry for every
  /// record obs::ClassifyQuery keeps; empty honors the MONSOON_SLOW_LOG
  /// environment knob.
  std::string slow_log;
  /// Clean records at/over this latency count as slow for the slow-query
  /// log; 0 logs only retried / degraded / failed records. Env:
  /// MONSOON_SLOW_MS.
  uint64_t slow_ms = 0;
};

/// One (query, strategy) execution. `metrics_delta` is the global metrics
/// registry delta observed across the run (SnapshotDelta of before/after
/// snapshots), attributing registry counters — MCTS iterations, operator
/// counts, pool activity — to this specific (query, strategy) pair.
struct QueryRecord {
  std::string query;
  std::string strategy;
  RunResult result;
  obs::MetricsSnapshot metrics_delta;
};

/// Per-strategy aggregate in the style of the paper's Tables 3/5/6/7.
struct StrategySummary {
  std::string strategy;
  int runs = 0;
  int timeouts = 0;
  int errors = 0;  // non-timeout failures (e.g. strategy not applicable)
  bool mean_valid = false;  // "N/A" when any query timed out
  double mean_seconds = 0;
  double median_seconds = 0;
  double max_seconds = 0;
  double median_mobjects = 0;  // millions of objects (paper cost metric)
};

/// Relative performance vs a baseline strategy (Table 4): the fraction of
/// queries finishing in < 0.9×, [0.9, 1.1)× and >= 1.1× the baseline's
/// time. Timed-out queries land in the slowest bucket.
struct RelativeBuckets {
  double faster = 0;
  double similar = 0;
  double slower = 0;
  int comparable = 0;
};

/// Runs a set of named strategies over a workload and tabulates results.
class BenchRunner {
 public:
  using StrategyFn =
      std::function<RunResult(const Workload& workload, const BenchQuery& query)>;

  explicit BenchRunner(HarnessOptions options) : options_(options) {}

  /// Strategies run in registration order for each query.
  void AddStrategy(std::string name, StrategyFn fn);

  /// Executes every (query, strategy) pair; records accumulate.
  Status RunAll(const Workload& workload);

  /// Restrict a subsequent RunAll to a subset of query names (Table 5's
  /// "20 most expensive"). Empty = all.
  void SetQueryFilter(std::vector<std::string> names);

  const std::vector<QueryRecord>& records() const { return records_; }
  const HarnessOptions& options() const { return options_; }

  /// Seconds a record contributes to aggregates (timeout display value
  /// for timed-out runs).
  double DisplaySeconds(const RunResult& result) const;

  StrategySummary Summarize(const std::string& strategy) const;

  /// Metric used for relative comparisons: wall seconds (the paper's
  /// Table 4) or processed objects (the paper's own cost model — more
  /// stable at laptop scale, where wall time is dominated by fixed
  /// planning overhead).
  enum class Metric { kSeconds, kObjects };

  StatusOr<RelativeBuckets> RelativeTo(const std::string& strategy,
                                       const std::string& baseline,
                                       Metric metric = Metric::kSeconds) const;

  /// Paper-style summary table ("Impl | TO | Mean | Median | Max").
  void PrintSummaryTable(std::ostream& out) const;
  /// Machine-readable per-record dump (query, strategy, status, seconds,
  /// objects, work units, component breakdown) for replotting.
  void WriteCsv(std::ostream& out) const;
  /// JSON run report: one entry per record (CSV scalars + per-run registry
  /// delta) plus the end-of-run registry snapshot (Table 8-style
  /// breakdown). RunAll writes this automatically when
  /// HarnessOptions::report_out (or MONSOON_REPORT) names a file.
  void WriteRunReport(std::ostream& out) const;
  Status WriteRunReportFile(const std::string& path) const;
  /// Per-query seconds matrix (queries × strategies); used for Table 5
  /// and Figure 3.
  void PrintPerQueryTable(std::ostream& out) const;

  std::vector<std::string> StrategyNames() const;

 private:
  HarnessOptions options_;
  std::vector<std::pair<std::string, StrategyFn>> strategies_;
  std::vector<std::string> query_filter_;
  std::vector<QueryRecord> records_;
};

/// Minimal fixed-width ASCII table writer used by all bench binaries.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace monsoon

#endif  // MONSOON_HARNESS_RUNNER_H_
