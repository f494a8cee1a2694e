// Vectorized batch execution vs row-at-a-time: the same plans driven with
// batch_size=1 (the legacy strategy) and the default 1024-row batches,
// swept at 1 and 4 threads.
//
// Four configurations cover the executor's hot paths:
//   tpch_scan / imdb_scan — leaf-heavy filtered scans (cache on): typed
//       selection loops against flat columns are where batching pays; the
//       bench hard-fails unless batches are >= 2x faster at threads=1.
//   tpch_join — full greedy join plans (cache on): the batched probe adds
//       a build-side Bloom filter, reported as check/reject counts.
//   udf_heavy — UDF-bench plans with the column cache OFF: per-row UDF
//       evaluation dominates, so batching is allowed to be neutral here —
//       the bench hard-fails on any slowdown beyond 5% at threads=1.
//
// Every (config, threads) pair also requires the full observable surface —
// result rows, work_units, objects_processed, observed counts, Σ distinct
// observations — to be identical between batch sizes: batching is an
// execution-speed change, invisible to results and to the cost model.
// Results are written to BENCH_exec_batch.json.
//
// Each round (every plan of a config executed once) is timed on its own,
// and the speed gates compare the two arms' fastest rounds, so a round in
// which the host descheduled the bench cannot fail a gate.
//
// Knobs: MONSOON_BENCH_SCALE (default 1.0), MONSOON_BATCH_ROUNDS (default
// 12 repetitions per plan set; timing stability).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "exec/executor.h"
#include "exec/udf_cache.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "parallel/thread_pool.h"
#include "plan/logical_ops.h"
#include "workloads/imdb.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

using namespace monsoon;

namespace {

struct BenchConfig {
  std::string name;
  Workload workload;
  // (query, plan) pairs executed once per round, all against one store.
  std::vector<std::pair<const BenchQuery*, PlanNode::Ptr>> plans;
  bool cache_on = true;
  bool scan_gate = false;  // batches must be >= 2x at threads=1
  bool udf_gate = false;   // batches must not lose > 5% at threads=1
};

struct RunResultDigest {
  double seconds = 0;                 // every round of every plan, with set-up
  std::vector<double> round_seconds;  // per round: every plan executed once
  uint64_t rows = 0;
  uint64_t work_units = 0;
  uint64_t objects = 0;
  std::vector<std::pair<uint64_t, uint64_t>> counts;
  std::vector<std::pair<int, double>> distincts;

  bool SameOutputs(const RunResultDigest& other) const {
    return rows == other.rows && work_units == other.work_units &&
           objects == other.objects && counts == other.counts &&
           distincts == other.distincts;
  }

  // The fastest round: a round in which the host descheduled the bench
  // is slower, never faster, so the minimum is the steadiest figure.
  double BestRoundSeconds() const {
    return round_seconds.empty()
               ? 0
               : *std::min_element(round_seconds.begin(), round_seconds.end());
  }
};

StatusOr<RunResultDigest> RunConfig(const BenchConfig& config,
                                    parallel::ThreadPool* pool, int rounds,
                                    size_t batch_size) {
  RunResultDigest digest;
  digest.round_seconds.assign(static_cast<size_t>(rounds), 0);
  WallTimer timer;
  for (const auto& [query, plan] : config.plans) {
    MONSOON_ASSIGN_OR_RETURN(
        MaterializedStore store,
        MaterializedStore::ForQuery(*config.workload.catalog, query->spec));
    store.udf_cache()->set_byte_budget(config.cache_on ? size_t{256} << 20 : 0);
    Executor executor(query->spec, &UdfRegistry::Global());
    ExecContext ctx;
    ctx.SetParallel(pool, parallel::DefaultConfig().morsel_size);
    ctx.SetBatchSize(batch_size);
    for (int round = 0; round < rounds; ++round) {
      WallTimer round_timer;
      MONSOON_ASSIGN_OR_RETURN(ExecResult exec,
                               executor.Execute(plan, &store, &ctx));
      digest.round_seconds[static_cast<size_t>(round)] += round_timer.Seconds();
      digest.rows += exec.output.table->num_rows();
      for (const auto& [sig, n] : exec.observed_counts) {
        digest.counts.emplace_back(
            sig.rels ^ (sig.preds * 0x9e3779b97f4a7c15ULL), n);
      }
      for (const DistinctObservation& obs : exec.observed_distincts) {
        digest.distincts.emplace_back(obs.term_id, obs.distinct_count);
      }
    }
    digest.work_units += ctx.work_units();
    digest.objects += ctx.objects_processed();
  }
  digest.seconds = timer.Seconds();
  std::sort(digest.counts.begin(), digest.counts.end());
  std::sort(digest.distincts.begin(), digest.distincts.end());
  return digest;
}

// Leaf-only plans (selection filters included) for every relation of the
// first `max_queries` queries: a pure filtered-scan workload.
void AddLeafPlans(BenchConfig* config, size_t max_queries) {
  size_t taken = 0;
  for (const BenchQuery& query : config->workload.queries) {
    if (taken++ >= max_queries) break;
    for (int i = 0; i < query.spec.num_relations(); ++i) {
      config->plans.emplace_back(&query, MakeLeaf(query.spec, i));
    }
  }
}

// Full greedy plans (joins + Σ on top) for the first `max_queries`.
void AddGreedyPlans(BenchConfig* config, size_t max_queries) {
  size_t taken = 0;
  for (const BenchQuery& query : config->workload.queries) {
    if (taken >= max_queries) break;
    StatsStore stats;
    bool sized = true;
    for (int i = 0; i < query.spec.num_relations(); ++i) {
      auto n = config->workload.catalog->RowCount(
          query.spec.relation(i).table_name);
      if (!n.ok()) { sized = false; break; }
      stats.SetCount(ExprSig::Of(RelSet::Single(i), 0),
                     static_cast<double>(*n));
    }
    if (!sized) continue;
    auto plan = GreedyOptimizer().Optimize(query.spec, stats);
    if (!plan.ok()) continue;
    config->plans.emplace_back(&query, PlanNode::StatsCollect(*plan));
    ++taken;
  }
}

}  // namespace

int main() {
  std::cout << "\n==========================================================\n"
            << "Vectorized batch execution: batch=1024 vs row-at-a-time\n"
            << "==========================================================\n";

  const double scale = bench::BenchScale(1.0);
  const int rounds = EnvInt("MONSOON_BATCH_ROUNDS", 12);
  const size_t batch_rows = parallel::DefaultConfig().batch_size;

  std::vector<BenchConfig> configs;
  {
    TpchOptions options;
    options.scale = scale;
    options.skew = SkewProfile::kHigh;
    auto workload = MakeTpchWorkload(options);
    if (!workload.ok()) {
      std::cerr << workload.status().ToString() << "\n";
      return 1;
    }
    BenchConfig config{"tpch_scan", std::move(*workload), {}, true, true, false};
    AddLeafPlans(&config, 4);
    configs.push_back(std::move(config));
  }
  {
    ImdbOptions options;
    options.scale = scale;
    auto workload = MakeImdbWorkload(options);
    if (!workload.ok()) {
      std::cerr << workload.status().ToString() << "\n";
      return 1;
    }
    BenchConfig config{"imdb_scan", std::move(*workload), {}, true, true, false};
    AddLeafPlans(&config, 4);
    configs.push_back(std::move(config));
  }
  {
    TpchOptions options;
    options.scale = scale;
    options.skew = SkewProfile::kHigh;
    auto workload = MakeTpchWorkload(options);
    if (!workload.ok()) {
      std::cerr << workload.status().ToString() << "\n";
      return 1;
    }
    BenchConfig config{"tpch_join", std::move(*workload), {}, true, false,
                       false};
    AddGreedyPlans(&config, 4);
    configs.push_back(std::move(config));
  }
  {
    UdfBenchOptions options;
    options.scale = scale;
    auto workload = MakeUdfBenchWorkload(options);
    if (!workload.ok()) {
      std::cerr << workload.status().ToString() << "\n";
      return 1;
    }
    BenchConfig config{"udf_heavy", std::move(*workload), {}, false, false,
                       true};
    AddGreedyPlans(&config, 2);
    configs.push_back(std::move(config));
  }

  obs::Counter* bloom_checks =
      obs::Registry::Global().GetCounter("exec.bloom_checks");
  obs::Counter* bloom_rejects =
      obs::Registry::Global().GetCounter("exec.bloom_rejects");

  parallel::ThreadPool pool(4);
  TablePrinter table({"Config", "Threads", "Row best round(s)", "Batch best round(s)",
                      "Speedup", "Bloom rej", "Identical"});
  std::vector<std::string> json_rows;
  bool all_identical = true;
  bool gates_ok = true;

  for (const BenchConfig& config : configs) {
    if (config.plans.empty()) {
      std::cerr << "FAIL: config " << config.name << " built no plans\n";
      return 1;
    }
    for (int threads : {1, 4}) {
      parallel::ThreadPool* run_pool = threads > 1 ? &pool : nullptr;
      auto row_run = RunConfig(config, run_pool, rounds, 1);
      uint64_t checks_before = bloom_checks->Value();
      uint64_t rejects_before = bloom_rejects->Value();
      auto batch_run = RunConfig(config, run_pool, rounds, batch_rows);
      if (!row_run.ok() || !batch_run.ok()) {
        std::cerr << config.name << ": "
                  << (!row_run.ok() ? row_run.status() : batch_run.status())
                         .ToString()
                  << "\n";
        return 1;
      }
      uint64_t checked = bloom_checks->Value() - checks_before;
      uint64_t rejected = bloom_rejects->Value() - rejects_before;

      bool identical = row_run->SameOutputs(*batch_run);
      all_identical = all_identical && identical;
      // Gated on each arm's fastest round, not on its total: one
      // descheduling during a round must not fail the gate.
      const double row_best = row_run->BestRoundSeconds();
      const double batch_best = batch_run->BestRoundSeconds();
      double speedup = batch_best > 0 ? row_best / batch_best : 0;
      if (threads == 1 && config.scan_gate && speedup < 2.0) {
        std::cerr << StrFormat(
            "FAIL: %s at threads=1: batch speedup %.2fx < 2x\n",
            config.name.c_str(), speedup);
        gates_ok = false;
      }
      if (threads == 1 && config.udf_gate && speedup < 0.95) {
        std::cerr << StrFormat(
            "FAIL: %s at threads=1: batch path is %.1f%% slower than the "
            "row path (allowed: 5%%)\n",
            config.name.c_str(), 100 * (1 / speedup - 1));
        gates_ok = false;
      }

      table.AddRow({config.name, std::to_string(threads),
                    StrFormat("%.6f", row_best),
                    StrFormat("%.6f", batch_best),
                    StrFormat("%.2fx", speedup),
                    checked > 0 ? StrFormat("%llu/%llu",
                                            static_cast<unsigned long long>(
                                                rejected),
                                            static_cast<unsigned long long>(
                                                checked))
                                : "-",
                    identical ? "yes" : "NO"});
      json_rows.push_back(bench::JsonObject([&](obs::JsonWriter& w) {
        w.KV("config", config.name);
        w.KV("threads", threads);
        bench::KVFixed(w, "row_seconds", row_run->seconds, 6);
        bench::KVFixed(w, "batch_seconds", batch_run->seconds, 6);
        bench::KVFixed(w, "row_best_round_seconds", row_best, 6);
        bench::KVFixed(w, "batch_best_round_seconds", batch_best, 6);
        bench::KVFixed(w, "speedup", speedup, 3);
        w.KV("rows", batch_run->rows);
        w.KV("work_units", batch_run->work_units);
        w.KV("bloom_checks", checked);
        w.KV("bloom_rejects", rejected);
        w.KV("identical", identical);
      }));
    }
  }
  table.Print(std::cout);

  std::string summary = bench::JsonObject([&](obs::JsonWriter& w) {
    w.KV("bench", "exec_batch");
    bench::KVFixed(w, "scale", scale, 3);
    w.KV("rounds", rounds);
    w.KV("batch_rows", static_cast<uint64_t>(batch_rows));
    w.KV("all_identical", all_identical);
    w.Key("runs");
    w.BeginArray();
    for (const std::string& row : json_rows) w.Raw(row);
    w.EndArray();
  });
  std::ofstream("BENCH_exec_batch.json") << summary << "\n";
  std::cout << "Wrote BENCH_exec_batch.json\n";

  if (!all_identical) {
    std::cerr << "FAIL: batch and row runs disagree on an observable output "
                 "— batching must be invisible to results and accounting\n";
    return 1;
  }
  if (!gates_ok) return 1;
  return 0;
}
