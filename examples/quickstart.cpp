// Quickstart: build a small database, write a SQL query whose predicates
// are obscured by UDFs, and let the Monsoon optimizer interleave
// statistics collection with execution.
//
// Run:  ./build/examples/quickstart [--threads=N] [--batch-size=N]
//                                   [--shards=N] [--udf-cache-bytes=B]
//                                   [--trace-out=F] [--report-out=F]
//
// --threads=N runs the morsel-driven executor and root-parallel MCTS on
// N threads (default 1 = fully serial). --batch-size=N sets the rows per
// vectorized executor batch (1 = row-at-a-time; flag wins over
// MONSOON_BATCH_SIZE). --shards=N splits every materialized table into N
// hash-range shards executed as independently supervised tasks (1 = the
// unsharded layout; flag wins over MONSOON_SHARDS). --udf-cache-bytes=B
// sets the evaluate-once UDF column cache budget (0 disables it; the
// default also honors MONSOON_UDF_CACHE). The result rows and Mobjects
// are the same either way; only wall-clock time changes.
//
// --trace-out=F writes a Chrome trace_event JSON to F: open it in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing to see every MDP step,
// MCTS phase, executor operator, and thread-pool task on a timeline.
// MONSOON_TRACE=F does the same without the flag. --report-out=F writes
// the per-query JSON run report (counters + Table 8-style breakdown).
//
// Fault tolerance (DESIGN.md "Fault-tolerant execution"):
// --faults=SPEC arms seeded fault injection (grammar: pattern=prob[:kind
// [:param_ms]], ';'-separated; e.g. "exec.udf_eval*=0.01"), seeded by
// MONSOON_FAULT_SEED and honoring MONSOON_UDF_TIMEOUT_MS.
// --deadline-ms=N gives every Monsoon query a cooperative wall-clock
// deadline. --workload={tpch,imdb,ott,udf} switches from the demo query
// to a small-scale benchmark soak (Monsoon + Defaults over the full query
// suite) that reports degraded / timed-out / hard-error counts and exits
// nonzero only on hard errors — under transient fault specs every query
// must finish, retried or degraded, never crashed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "exec/udf_cache.h"
#include "fault/injector.h"
#include "harness/runner.h"
#include "monsoon/monsoon_optimizer.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "parallel/runtime.h"
#include "shard/shard.h"
#include "sql/parser.h"
#include "workloads/genutil.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

using namespace monsoon;

namespace {

// R is a fact table; S and T are dimensions. F2(S) has very few distinct
// values (a bad join to do early); F4(T) is a key (a great join to do
// early). No statistics reveal this up front — Monsoon has to discover it.
Status BuildDatabase(Catalog* catalog) {
  Pcg32 rng(7);

  auto r = std::make_shared<Table>(Schema(
      {{"x", ValueType::kInt64}, {"y", ValueType::kInt64}, {"a", ValueType::kDouble}}));
  for (int64_t i = 0; i < 50000; ++i) {
    MONSOON_RETURN_IF_ERROR(r->AppendRow({Value(i % 1000), Value(i % 2000),
                                          Value(rng.NextDouble())}));
  }
  MONSOON_RETURN_IF_ERROR(catalog->AddTable("r", r));

  auto s = std::make_shared<Table>(
      Schema({{"k", ValueType::kInt64}, {"payload", ValueType::kString}}));
  for (int64_t i = 0; i < 2000; ++i) {
    // Only 4 distinct join values: joining S early multiplies rows.
    MONSOON_RETURN_IF_ERROR(s->AppendRow({Value(i % 4), Value(std::string("s-row"))}));
  }
  MONSOON_RETURN_IF_ERROR(catalog->AddTable("s", s));

  auto t = std::make_shared<Table>(
      Schema({{"k", ValueType::kInt64}, {"payload", ValueType::kString}}));
  for (int64_t i = 0; i < 2000; ++i) {
    // A key column: joining T early keeps intermediates small.
    MONSOON_RETURN_IF_ERROR(t->AppendRow({Value(i), Value(std::string("t-row"))}));
  }
  MONSOON_RETURN_IF_ERROR(catalog->AddTable("t", t));
  return Status::OK();
}

// Small-scale instance of one of the four benchmark workloads, for the
// fault-injection soak (scripts/ci.sh stage "fault").
StatusOr<Workload> MakeNamedWorkload(const std::string& name) {
  if (name == "tpch") {
    TpchOptions options;
    options.scale = 0.2;
    return MakeTpchWorkload(options);
  }
  if (name == "imdb") {
    ImdbOptions options;
    options.scale = 0.2;
    return MakeImdbWorkload(options);
  }
  if (name == "ott") {
    OttOptions options;
    options.rows_per_table = 2000;
    options.key_cardinality = 100;
    return MakeOttWorkload(options);
  }
  if (name == "udf") {
    UdfBenchOptions options;
    options.scale = 0.2;
    return MakeUdfBenchWorkload(options);
  }
  return Status::InvalidArgument("unknown workload '" + name +
                                 "' (expected tpch, imdb, ott or udf)");
}

// Runs Monsoon + the Defaults baseline over a whole benchmark suite and
// tallies the fault-tolerance outcome. Degraded and timed-out queries are
// expected under fault injection; only hard errors fail the run.
Status RunWorkloadBench(const std::string& workload_name, uint64_t deadline_ms,
                        const std::string& report_out) {
  MONSOON_ASSIGN_OR_RETURN(Workload workload, MakeNamedWorkload(workload_name));

  HarnessOptions harness_options;
  harness_options.work_budget = 2000000;
  harness_options.report_out = report_out;
  BenchRunner runner(harness_options);

  MonsoonOptimizer::Options monsoon_options;
  monsoon_options.mcts.iterations = 120;
  monsoon_options.work_budget = harness_options.work_budget;
  monsoon_options.deadline_ms = deadline_ms;
  runner.AddStrategy("Monsoon", [monsoon_options](const Workload& w,
                                                  const BenchQuery& query) {
    MonsoonOptimizer monsoon(w.catalog.get(), monsoon_options);
    return monsoon.Run(query.spec);
  });
  std::shared_ptr<Strategy> defaults = MakeDefaultsStrategy();
  uint64_t budget = harness_options.work_budget;
  runner.AddStrategy("Defaults", [defaults, budget](const Workload& w,
                                                    const BenchQuery& query) {
    return defaults->Run(*w.catalog, query.spec, budget);
  });

  MONSOON_RETURN_IF_ERROR(runner.RunAll(workload));
  runner.PrintSummaryTable(std::cout);

  int degraded = 0, timeouts = 0, hard_errors = 0;
  for (const QueryRecord& record : runner.records()) {
    if (record.result.degraded) ++degraded;
    if (record.result.timed_out()) {
      ++timeouts;
    } else if (!record.result.ok()) {
      ++hard_errors;
      std::cerr << "[hard error] " << record.query << " / " << record.strategy
                << ": " << record.result.status.ToString() << "\n";
    }
  }
  std::printf(
      "\nWorkload %s: %d records, %d degraded, %d timeouts, %d hard errors\n",
      workload.name.c_str(), static_cast<int>(runner.records().size()),
      degraded, timeouts, hard_errors);
  if (!report_out.empty()) {
    std::cout << "Run report written to " << report_out << "\n";
  }
  if (hard_errors > 0) {
    return Status::Internal(std::to_string(hard_errors) +
                            " queries failed with hard errors");
  }
  return Status::OK();
}

Status RunDemo(const std::string& report_out, uint64_t deadline_ms) {
  Catalog catalog;
  MONSOON_RETURN_IF_ERROR(BuildDatabase(&catalog));

  // The paper's Sec. 2.3 query shape: R joins both dimensions through
  // opaque UDFs.
  const char* sql =
      "SELECT * FROM r, s, t "
      "WHERE bucket1000(r.x) = s.k AND bucket10000(r.y) = t.k";
  SqlParser parser(&catalog);
  MONSOON_ASSIGN_OR_RETURN(QuerySpec query, parser.Parse(sql));
  std::cout << "Query: " << query.ToString() << "\n\n";

  // Monsoon: MCTS over the exploration-vs-execution MDP.
  MonsoonOptimizer::Options options;
  options.prior = PriorKind::kSpikeAndSlab;
  options.mcts.iterations = 400;
  options.deadline_ms = deadline_ms;
  MonsoonOptimizer monsoon(&catalog, options);
  obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  RunResult result = monsoon.Run(query);
  if (!result.ok()) return result.status;
  std::vector<obs::QueryReport> reports;
  reports.push_back(MakeQueryReport(
      result, "quickstart", "monsoon",
      obs::SnapshotDelta(before, obs::Registry::Global().Snapshot())));

  std::cout << "Monsoon actions taken:\n";
  for (const std::string& action : result.action_log) {
    std::cout << "  - " << action << "\n";
  }
  if (result.degraded) {
    std::cout << "Run degraded (Σ passes skipped on transient faults):\n";
    for (const std::string& reason : result.degraded_reasons) {
      std::cout << "  - " << reason << "\n";
    }
  }
  std::printf(
      "\nMonsoon:  %llu result rows, %.2f Mobjects processed, %.3f s total\n"
      "          (planning %.3f s, stats %.3f s, execution %.3f s)\n",
      static_cast<unsigned long long>(result.result_rows),
      static_cast<double>(result.objects_processed) / 1e6, result.total_seconds,
      result.plan_seconds, result.stats_seconds, result.exec_seconds);

  // Compare with the Defaults baseline (d = 10% magic constant).
  before = obs::Registry::Global().Snapshot();
  RunResult defaults = MakeDefaultsStrategy()->Run(catalog, query, 0);
  if (!defaults.ok()) return defaults.status;
  reports.push_back(MakeQueryReport(
      defaults, "quickstart", "defaults",
      obs::SnapshotDelta(before, obs::Registry::Global().Snapshot())));
  std::printf("Defaults: %llu result rows, %.2f Mobjects processed, %.3f s total\n",
              static_cast<unsigned long long>(defaults.result_rows),
              static_cast<double>(defaults.objects_processed) / 1e6,
              defaults.total_seconds);

  if (!report_out.empty()) {
    std::ofstream out(report_out);
    if (!out) return Status::Internal("cannot open '" + report_out + "'");
    obs::WriteRunReport(out, reports, obs::Registry::Global().Snapshot());
    std::cout << "\nRun report written to " << report_out << "\n";
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string report_out;
  std::string faults;
  std::string workload;
  uint64_t deadline_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      int threads = std::atoi(argv[i] + 10);
      if (threads < 1) {
        std::cerr << "--threads expects a positive integer\n";
        return 1;
      }
      parallel::Config config = parallel::DefaultConfig();
      config.num_threads = threads;
      parallel::SetDefaultConfig(config);
      std::cout << "Running with " << threads << " thread(s)\n";
    } else if (std::strncmp(argv[i], "--batch-size=", 13) == 0) {
      int batch_size = std::atoi(argv[i] + 13);
      if (batch_size < 1) {
        std::cerr << "--batch-size expects a positive integer (1 = row-at-a-time)\n";
        return 1;
      }
      // Explicit flag wins over MONSOON_BATCH_SIZE (common/env.h rule).
      parallel::Config config = parallel::DefaultConfig();
      config.batch_size = static_cast<size_t>(batch_size);
      parallel::SetDefaultConfig(config);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      int shards = std::atoi(argv[i] + 9);
      if (shards < 1) {
        std::cerr << "--shards expects a positive integer (1 = unsharded)\n";
        return 1;
      }
      // Explicit flag wins over MONSOON_SHARDS (common/env.h rule).
      shard::SetDefaultShardCount(shards);
    } else if (std::strncmp(argv[i], "--udf-cache-bytes=", 18) == 0) {
      SetDefaultUdfCacheBytes(
          static_cast<size_t>(std::strtoull(argv[i] + 18, nullptr, 10)));
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--report-out=", 13) == 0) {
      report_out = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      faults = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      deadline_ms = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--workload=", 11) == 0) {
      workload = argv[i] + 11;
    } else {
      std::cerr << "unknown flag: " << argv[i]
                << " (supported: --threads=N, --batch-size=N, --shards=N, "
                   "--udf-cache-bytes=B, --trace-out=F, --report-out=F, "
                   "--faults=SPEC, --deadline-ms=N, "
                   "--workload=tpch|imdb|ott|udf)\n";
      return 1;
    }
  }
  if (!faults.empty()) {
    fault::FaultConfig base = fault::BaseConfigFromEnv();
    Status installed = fault::InstallSpec(faults, base);
    if (!installed.ok()) {
      std::cerr << "error: " << installed.ToString() << "\n";
      return 1;
    }
    std::cout << "Fault injection armed: " << faults << " (seed " << base.seed
              << ")\n";
  }
  if (!trace_out.empty()) {
    Status status = obs::StartTracing(trace_out);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << "\n";
      return 1;
    }
  } else {
    obs::MaybeStartTracingFromEnv();
  }
  Status status = workload.empty()
                      ? RunDemo(report_out, deadline_ms)
                      : RunWorkloadBench(workload, deadline_ms, report_out);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  if (!trace_out.empty()) {
    Status stop = obs::StopTracing();
    if (!stop.ok()) {
      std::cerr << "error: " << stop.ToString() << "\n";
      return 1;
    }
    std::cout << "Trace written to " << trace_out
              << " (open in https://ui.perfetto.dev or chrome://tracing)\n";
  }
  return 0;
}
