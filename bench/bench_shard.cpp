// Sharded execution sweep: the same greedy plans driven at shards=1/2/4/8
// (threads=4), plus one kill-and-recover arm — shards=4 with a seeded
// "shard.exec" transient fault that kills exactly one shard's first
// attempt per pass and lets the supervisor re-execute it.
//
// Two configurations cover the sharded hot paths:
//   tpch_join — full greedy join plans on skewed TPC-H: sharded leaf
//       scans, join build/probe, and Σ passes.
//   udf_join  — UDF-bench plans: UDF evaluation through the column
//       cache, whose whole-expression columns every shard reads.
//
// Every (config, shards) arm requires the full observable surface —
// result rows, work_units, objects_processed, observed counts, Σ distinct
// observations — to be identical to the shards=1 run, INCLUDING the
// kill-and-recover arm: sharding and shard failover are wall-time-only
// changes, invisible to results and to the cost model. The recover arm
// additionally hard-fails unless the supervisor actually retried
// (retries > 0, recoveries > 0) and nothing failed past the budget
// (failures == 0). Results are written to BENCH_shard.json.
//
// Knobs: MONSOON_BENCH_SCALE (default 1.0), MONSOON_SHARD_ROUNDS (default
// 8 repetitions per plan set; timing stability).

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
#include "fault/injector.h"
#include "optimizer/optimizer.h"
#include "parallel/thread_pool.h"
#include "plan/logical_ops.h"
#include "shard/shard.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

using namespace monsoon;

namespace {

struct BenchConfig {
  std::string name;
  Workload workload;
  std::vector<std::pair<const BenchQuery*, PlanNode::Ptr>> plans;
};

struct RunResultDigest {
  double seconds = 0;
  uint64_t rows = 0;
  uint64_t work_units = 0;
  uint64_t objects = 0;
  uint64_t retries = 0;
  uint64_t failures = 0;
  uint64_t recoveries = 0;
  std::vector<std::pair<uint64_t, uint64_t>> counts;
  std::vector<std::pair<int, double>> distincts;

  bool SameOutputs(const RunResultDigest& other) const {
    return rows == other.rows && work_units == other.work_units &&
           objects == other.objects && counts == other.counts &&
           distincts == other.distincts;
  }
};

StatusOr<RunResultDigest> RunConfig(const BenchConfig& config,
                                    parallel::ThreadPool* pool, int rounds,
                                    int shards) {
  RunResultDigest digest;
  WallTimer timer;
  for (const auto& [query, plan] : config.plans) {
    MONSOON_ASSIGN_OR_RETURN(
        MaterializedStore store,
        MaterializedStore::ForQuery(*config.workload.catalog, query->spec));
    store.udf_cache()->set_byte_budget(size_t{256} << 20);
    Executor executor(query->spec, &UdfRegistry::Global());
    ExecContext ctx;
    ctx.SetParallel(pool, kMorselRows);
    ctx.SetShards(static_cast<size_t>(shards));
    for (int round = 0; round < rounds; ++round) {
      MONSOON_ASSIGN_OR_RETURN(ExecResult exec,
                               executor.Execute(plan, &store, &ctx));
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
    digest.retries += ctx.shard_retries();
    digest.failures += ctx.shard_failures();
    digest.recoveries += ctx.shard_recoveries();
  }
  digest.seconds = timer.Seconds();
  std::sort(digest.counts.begin(), digest.counts.end());
  std::sort(digest.distincts.begin(), digest.distincts.end());
  return digest;
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

// Fault draws are a pure function of (seed, point, coord, attempt) with
// coord = shard index, so a seed where exactly one shard fires at attempt
// 0 and clears at attempt 1 kills that same shard once in EVERY sharded
// pass — maximal failover coverage with guaranteed recovery.
uint64_t FindKillOnceSeed(size_t shards, double probability) {
  for (uint64_t seed = 1; seed <= 100000; ++seed) {
    int fired = 0;
    size_t victim = 0;
    for (size_t s = 0; s < shards; ++s) {
      if (fault::ShouldFire(seed, shard::kShardExecPoint, s, 0, probability)) {
        ++fired;
        victim = s;
      }
    }
    if (fired == 1 && !fault::ShouldFire(seed, shard::kShardExecPoint, victim,
                                         1, probability)) {
      return seed;
    }
  }
  return 0;
}

}  // namespace

int main() {
  std::cout << "\n==========================================================\n"
            << "Sharded execution: shards=1/2/4/8 + kill-and-recover arm\n"
            << "==========================================================\n";

  const double scale = bench::BenchScale(1.0);
  const int rounds = EnvNumber("MONSOON_SHARD_ROUNDS", 8, kPositiveIntRange);
  const double kill_prob = 0.4;
  const uint64_t kill_seed = FindKillOnceSeed(4, kill_prob);
  if (kill_seed == 0) {
    std::cerr << "FAIL: no kill-once seed in 100000 draws\n";
    return 1;
  }

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
    BenchConfig config{"tpch_join", std::move(*workload), {}};
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
    BenchConfig config{"udf_join", std::move(*workload), {}};
    AddGreedyPlans(&config, 2);
    configs.push_back(std::move(config));
  }

  parallel::ThreadPool pool(4);
  TablePrinter table({"Config", "Shards", "Arm", "Seconds", "vs shards=1",
                      "Retries", "Recovered", "Identical"});
  std::vector<std::string> json_rows;
  bool all_identical = true;
  bool recover_ok = true;

  for (const BenchConfig& config : configs) {
    if (config.plans.empty()) {
      std::cerr << "FAIL: config " << config.name << " built no plans\n";
      return 1;
    }
    RunResultDigest reference;
    for (int shards : {1, 2, 4, 8}) {
      auto run = RunConfig(config, &pool, rounds, shards);
      if (!run.ok()) {
        std::cerr << config.name << ": " << run.status().ToString() << "\n";
        return 1;
      }
      if (shards == 1) reference = *run;
      bool identical = run->SameOutputs(reference);
      all_identical = all_identical && identical;
      double rel = run->seconds > 0 ? reference.seconds / run->seconds : 0;
      table.AddRow({config.name, std::to_string(shards), "clean",
                    StrFormat("%.3f", run->seconds), StrFormat("%.2fx", rel),
                    "0", "-", identical ? "yes" : "NO"});
      json_rows.push_back(bench::JsonObject([&](obs::JsonWriter& w) {
        w.KV("config", config.name);
        w.KV("shards", shards);
        w.KV("arm", "clean");
        bench::KVFixed(w, "seconds", run->seconds, 6);
        bench::KVFixed(w, "speedup", rel, 3);
        w.KV("rows", run->rows);
        w.KV("work_units", run->work_units);
        w.KV("retries", 0);
        w.KV("recoveries", 0);
        w.KV("identical", identical);
      }));
    }

    // Kill-and-recover arm: shards=4, one shard killed on its first
    // attempt in every sharded pass, re-executed by the supervisor.
    fault::FaultConfig base;
    base.seed = kill_seed;
    Status installed = fault::InstallSpec(
        std::string(shard::kShardExecPoint) + "=" +
            StrFormat("%.1f", kill_prob) + ":transient",
        base);
    if (!installed.ok()) {
      std::cerr << installed.ToString() << "\n";
      return 1;
    }
    auto recover = RunConfig(config, &pool, rounds, 4);
    fault::Clear();
    if (!recover.ok()) {
      std::cerr << config.name << " (recover): "
                << recover.status().ToString() << "\n";
      return 1;
    }
    bool identical = recover->SameOutputs(reference);
    all_identical = all_identical && identical;
    bool recovered = recover->retries > 0 && recover->recoveries > 0 &&
                     recover->failures == 0;
    recover_ok = recover_ok && recovered;
    double rel =
        recover->seconds > 0 ? reference.seconds / recover->seconds : 0;
    table.AddRow({config.name, "4", "kill+recover",
                  StrFormat("%.3f", recover->seconds),
                  StrFormat("%.2fx", rel),
                  std::to_string(recover->retries),
                  recovered ? "yes" : "NO", identical ? "yes" : "NO"});
    json_rows.push_back(bench::JsonObject([&](obs::JsonWriter& w) {
      w.KV("config", config.name);
      w.KV("shards", 4);
      w.KV("arm", "kill_recover");
      bench::KVFixed(w, "seconds", recover->seconds, 6);
      bench::KVFixed(w, "speedup", rel, 3);
      w.KV("rows", recover->rows);
      w.KV("work_units", recover->work_units);
      w.KV("retries", recover->retries);
      w.KV("recoveries", recover->recoveries);
      w.KV("identical", identical);
    }));
  }
  table.Print(std::cout);

  std::string summary = bench::JsonObject([&](obs::JsonWriter& w) {
    w.KV("bench", "shard");
    bench::KVFixed(w, "scale", scale, 3);
    w.KV("rounds", rounds);
    w.KV("kill_seed", kill_seed);
    w.KV("all_identical", all_identical);
    w.Key("runs");
    w.BeginArray();
    for (const std::string& row : json_rows) w.Raw(row);
    w.EndArray();
  });
  std::ofstream("BENCH_shard.json") << summary << "\n";
  std::cout << "Wrote BENCH_shard.json\n";

  if (!all_identical) {
    std::cerr << "FAIL: a sharded run disagrees with shards=1 on an "
                 "observable output — sharding must be invisible to results "
                 "and accounting\n";
    return 1;
  }
  if (!recover_ok) {
    std::cerr << "FAIL: the kill-and-recover arm did not recover cleanly "
                 "(expected retries > 0, recoveries > 0, failures == 0)\n";
    return 1;
  }
  return 0;
}
