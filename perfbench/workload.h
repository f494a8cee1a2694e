#ifndef MONSOON_PERFBENCH_WORKLOAD_H_
#define MONSOON_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/status.h"
#include "monsoon/monsoon_optimizer.h"
#include "obs/metrics.h"
#include "workloads/workload.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// One pass at a tiny scale, for the self-test.
  bool smoke = false;
  /// Where the traced run writes its spans ("" = keep them in memory only).
  std::string trace_out;
};

/// What one timed phase observed.
struct Tally {
  /// The completed runs of one suite query.
  struct PerQuery {
    std::vector<double> latency_ms;
    double objects = 0;  // summed over the runs
  };
  std::map<size_t, PerQuery> completed_by_query;
  uint64_t attempted = 0;
  uint64_t failed = 0;      // errors, timeouts and wrong results
  uint64_t mismatched = 0;  // wrong results (a subset of failed)
  double wall_s = 0;
  std::vector<double> pass_s;  // seconds per pass

  void AddCompleted(size_t query, double latency_ms, double objects);
  uint64_t completed() const;
  /// Each query's median latency.
  std::vector<double> MedianLatencies() const;
  /// Mean over the suite's queries of each one's mean objects processed.
  double MeanObjects() const;
  /// Adds `other`'s samples and counts; wall seconds add up.
  void Merge(const Tally& other);
};

/// The per-layer ledger of a traced phase: one span per query plus the
/// module probes, reduced to the per-layer metrics at the end.
struct Ledger {
  SpanLog spans;
  uint64_t queries = 0;
  double plan_s = 0;
  double sigma_s = 0;
  double exec_s = 0;
  double run_s = 0;  // the Run spans
  monsoon::obs::MetricsSnapshot registry;  // delta over the whole phase
  std::vector<double> parse_us;
  std::vector<double> search_ms;
  std::vector<double> fixed_plan_ms;

  /// Fills every per-layer metric. `qps_untraced` / `qps_traced` give the
  /// tracing overhead.
  void Report(double qps_untraced, double qps_traced, MetricSet* out) const;
};

/// One benchmark workload: a generated catalog and query suite, the
/// reference row count of every query, and whole passes over the suite
/// through MonsoonOptimizer::Run, one query at a time.
class BenchWorkload {
 public:
  using Generator = std::function<monsoon::StatusOr<monsoon::Workload>()>;

  BenchWorkload(const RunOptions& options, int threads, int shards, int iterations,
                uint64_t work_budget, Generator generate);

  /// Generates data and catalog, replacing any earlier set-up.
  monsoon::Status Setup();
  /// Runs one pass so the timed phase starts warm.
  monsoon::Status Warmup();
  /// Runs whole passes for about `seconds`, and until `min_samples`
  /// queries completed. A non-null ledger traces them.
  Tally Measure(double seconds, uint64_t min_samples, Ledger* ledger);
  /// Releases the data Setup built; the reference row counts stay.
  void Teardown() { data_ = monsoon::Workload(); }

  /// Records every query's row count under an independent reference plan
  /// on the same engine; timed results must match it.
  monsoon::Status ComputeReference();

  /// Times the module entry points on every query of the suite: SQL
  /// parsing, one MCTS search from the initial state, and execution of
  /// the reference plan.
  void Probe(Ledger* ledger) const;

 private:
  // One pass over the suite, in an order drawn from the run's seed.
  Tally RunPass(Ledger* ledger);

  bool smoke_;
  monsoon::Pcg32 order_rng_;
  int threads_;
  int shards_;
  Generator generate_;
  monsoon::MonsoonOptimizer::Options monsoon_;
  monsoon::Workload data_;
  std::vector<uint64_t> reference_;
};

/// Names of the workloads MakeWorkload knows.
std::vector<std::string> WorkloadNames();

/// The named workload, or null for an unknown name.
std::unique_ptr<BenchWorkload> MakeWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // MONSOON_PERFBENCH_WORKLOAD_H_
