#ifndef MONSOON_OBS_REPORT_H_
#define MONSOON_OBS_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace monsoon::obs {

/// The figures one strategy run reports. RunResult (exec/run_result.h)
/// fills them and QueryReport carries them to every sink, so the field
/// list exists once. The scalars are the harness CSV columns (same
/// source), so the JSON report reproduces the CSV bit-identically.
struct RunFigures {
  uint64_t result_rows = 0;
  uint64_t objects_processed = 0;  // the paper's cost metric
  uint64_t work_units = 0;         // physical work incl. NL candidates
  double total_seconds = 0;
  // Component breakdown (Table 8): planning / statistics collection /
  // relational execution.
  double plan_seconds = 0;   // MCTS for Monsoon, optimize() for baselines
  double stats_seconds = 0;  // Σ passes, HLL scans, sampling pilot runs
  double exec_seconds = 0;
  int execute_rounds = 0;
  int stats_collections = 0;
  // UDF column cache counters (exec/udf_cache.h): column reuses, columns
  // built, and resident bytes at the end of the run. Wall-clock telemetry
  // only; objects/work_units above are identical with the cache off.
  uint64_t udf_cache_hits = 0;
  uint64_t udf_cache_misses = 0;
  uint64_t udf_cache_bytes = 0;
  // Recovery accounting: fault-injector retries attributed to this run
  // (registry delta around the run) and the shard supervisor's retried,
  // failed-past-budget and recovered shards. All zero on a clean run, so
  // CI can assert a fault-injected run both recovered (recoveries > 0,
  // failures == 0) and produced clean-run-identical accounting.
  uint64_t fault_retries = 0;
  uint64_t shard_retries = 0;
  uint64_t shard_failures = 0;
  uint64_t shard_recoveries = 0;
  // Graceful degradation: true when at least one Σ statistics pass failed
  // (injected fault, transient error, per-UDF timeout) and the optimizer
  // fell back to the spike-and-slab prior-only estimate, with one reason
  // per skipped observation. The run's status stays OK — degraded runs
  // complete. Not a harness CSV column, so the CSV stays byte-identical
  // across fault configurations.
  bool degraded = false;
  std::vector<std::string> degraded_reasons;
};

/// One finished query: the record every sink reads (the run report, the
/// slow-query log, the tail sampler and the server reply), built from a
/// RunResult by MakeQueryReport (exec/run_result.h).
struct QueryReport : RunFigures {
  /// Query name (harness) or request SQL (server); the slow log's `sql`.
  std::string query;
  /// Strategy label (harness) or spec fingerprint (server); the slow log's
  /// `fingerprint`.
  std::string strategy;
  /// "ok" | "timeout" | "error" (RunStatusLabel).
  std::string status;
  /// The run's status code and message ("" when ok). The server reply
  /// carries both and ClassifyQuery reads kCancelled from the code; the run
  /// report writes neither.
  StatusCode code = StatusCode::kOk;
  std::string error;

  /// Registry delta captured around this run (SnapshotDelta of the global
  /// registry before/after) — the Table 8-style breakdown of where objects
  /// and time went.
  MetricsSnapshot metrics;
};

/// Why a finished query is worth keeping, in ascending precedence
/// (QueryReasonName indexes its spellings by this order). kRetried: it
/// completed only by retrying transient faults. kClean queries are dropped
/// by the tail sampler and skipped by the slow-query log.
enum class QueryReason { kClean, kSlow, kRetried, kDegraded, kError, kCancelled };

/// The one classification of a finished query. The tail sampler and the
/// slow-query log both call it, each with its own threshold; `slow_us` = 0
/// never classifies a query as slow, and the threshold is inclusive.
QueryReason ClassifyQuery(const QueryReport& report, uint64_t elapsed_us,
                          uint64_t slow_us);

/// The slow log's spelling of a reason: "cancelled", "error", "degraded",
/// "retried", "slow" (and "clean"). Tail trace files say "faulted" where
/// the log says "error" (EndQueryTrace).
const char* QueryReasonName(QueryReason reason);

/// Writes the run-report JSON document: a "queries" array (one entry per
/// QueryReport, scalar fields + per-run metrics delta) and a "registry"
/// object holding the full end-of-run registry snapshot. Histograms are
/// emitted sparsely as [[bucket_lower_bound, count], ...].
void WriteRunReport(std::ostream& out, const std::vector<QueryReport>& queries,
                    const MetricsSnapshot& registry);

class JsonWriter;

/// Writes one MetricsSnapshot as the report's {"counters":{...},
/// "gauges":{...}, "histograms":{...}} object — the same layout the run
/// report embeds per query. Shared with the server's `.stats` reply, which
/// carries a per-connection registry delta in this form.
void WriteMetricsJson(JsonWriter& writer, const MetricsSnapshot& snap);

}  // namespace monsoon::obs

#endif  // MONSOON_OBS_REPORT_H_
