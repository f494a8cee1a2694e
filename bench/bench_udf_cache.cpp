// Cached vs uncached UDF evaluation on the repeated-Σ pattern that
// dominates Monsoon's wall clock: the interleaved MDP re-scans the same
// materialized expressions round after round (Σ over every leaf, then an
// EXECUTE of the full plan), so without the evaluate-once column cache
// each round pays a fresh per-row pass through the expensive UDFs
// (canonical_set / city_from_ip / extract_*). With the cache, the first
// round builds each (expression, term) column once and every later pass
// reads flat memory.
//
// The bench takes the UDF benchmark's queries that go through the
// expensive UDFs (canonical_set / city_from_ip), and for each one runs
// several Σ rounds over every base relation followed by one EXECUTE of
// the full plan — all against a single MaterializedStore — with the
// cache off and then on. It reports the wall-clock ratio and hit rate,
// and hard-fails unless (a) every observable output — result rows,
// observed counts, Σ distinct observations, work_units,
// objects_processed — is identical between the two configurations, and
// (b) the cached run is at least 2x faster overall. Results are also
// written to BENCH_udf_cache.json.
//
// Knobs: MONSOON_BENCH_SCALE (default 1.0), MONSOON_UDF_ROUNDS (default
// 10 Σ rounds), MONSOON_UDF_QUERIES (default 4 — expensive-UDF queries
// taken in suite order).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "exec/executor.h"
#include "exec/udf_cache.h"
#include "optimizer/optimizer.h"
#include "plan/logical_ops.h"
#include "workloads/udfbench.h"

using namespace monsoon;

namespace {

struct RoundsResult {
  double seconds = 0;
  uint64_t final_rows = 0;
  uint64_t work_units = 0;
  uint64_t objects = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // Order-insensitive digests of the observed counts / Σ observations
  // accumulated over every round; must match across configurations.
  std::vector<std::pair<uint64_t, uint64_t>> counts;
  std::vector<std::pair<int, double>> distincts;
};

StatusOr<RoundsResult> RunRounds(const Workload& workload,
                                 const BenchQuery& query,
                                 const PlanNode::Ptr& plan, int rounds,
                                 bool cache_on) {
  MONSOON_ASSIGN_OR_RETURN(
      MaterializedStore store,
      MaterializedStore::ForQuery(*workload.catalog, query.spec));
  store.udf_cache()->set_byte_budget(cache_on ? size_t{256} << 20 : 0);
  Executor executor(query.spec, &UdfRegistry::Global());
  ExecContext ctx;
  RoundsResult result;
  auto record = [&result](const ExecResult& exec) {
    for (const auto& [sig, n] : exec.observed_counts) {
      result.counts.emplace_back(
          sig.rels ^ (sig.preds * 0x9e3779b97f4a7c15ULL), n);
    }
    for (const DistinctObservation& obs : exec.observed_distincts) {
      result.distincts.emplace_back(obs.term_id, obs.distinct_count);
    }
  };
  WallTimer timer;
  // The exploration half of the MDP: round after round of Σ over the
  // base relations, each re-scanning the same materialized expressions.
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < query.spec.num_relations(); ++i) {
      PlanNode::Ptr sigma = PlanNode::StatsCollect(
          PlanNode::Leaf(ExprSig::Of(RelSet::Single(i), 0), {}));
      MONSOON_ASSIGN_OR_RETURN(ExecResult exec,
                               executor.Execute(sigma, &store, &ctx));
      record(exec);
    }
  }
  // ...then one EXECUTE of the full plan: its leaf residual filters and
  // join keys over the base relations hit the columns the Σ rounds built.
  MONSOON_ASSIGN_OR_RETURN(ExecResult exec,
                           executor.Execute(plan, &store, &ctx));
  result.final_rows = exec.output.table->num_rows();
  record(exec);
  result.seconds = timer.Seconds();
  result.work_units = ctx.work_units();
  result.objects = ctx.objects_processed();
  result.cache_hits = ctx.udf_cache_hits();
  result.cache_misses = ctx.udf_cache_misses();
  std::sort(result.counts.begin(), result.counts.end());
  std::sort(result.distincts.begin(), result.distincts.end());
  return result;
}

}  // namespace

int main() {
  std::cout << "\n==========================================================\n"
            << "UDF column cache: repeated-Σ workload, cached vs uncached\n"
            << "==========================================================\n";

  UdfBenchOptions options;
  options.scale = bench::BenchScale(1.0);
  const int rounds = EnvInt("MONSOON_UDF_ROUNDS", 10);
  const int max_queries = EnvInt("MONSOON_UDF_QUERIES", 4);
  auto workload = MakeUdfBenchWorkload(options);
  if (!workload.ok()) {
    std::cerr << "generator failed: " << workload.status().ToString() << "\n";
    return 1;
  }

  TablePrinter table({"Query", "Uncached(s)", "Cached(s)", "Speedup",
                      "Hit rate", "Identical"});
  double total_uncached = 0;
  double total_cached = 0;
  uint64_t total_hits = 0;
  uint64_t total_lookups = 0;
  bool all_identical = true;
  std::vector<std::string> json_rows;

  int ran = 0;
  for (const BenchQuery& query : workload->queries) {
    if (ran >= max_queries) break;
    // Only queries that pay for the expensive UDFs on every scan.
    bool expensive = false;
    for (const UdfTerm* term : query.spec.AllTerms()) {
      if (term->function == "canonical_set" ||
          term->function == "city_from_ip") {
        expensive = true;
        break;
      }
    }
    if (!expensive) continue;
    StatsStore stats;
    bool sized = true;
    for (int i = 0; i < query.spec.num_relations(); ++i) {
      auto n = workload->catalog->RowCount(query.spec.relation(i).table_name);
      if (!n.ok()) { sized = false; break; }
      stats.SetCount(ExprSig::Of(RelSet::Single(i), 0),
                     static_cast<double>(*n));
    }
    if (!sized) continue;
    auto plan_or = GreedyOptimizer().Optimize(query.spec, stats);
    if (!plan_or.ok()) continue;
    PlanNode::Ptr plan = PlanNode::StatsCollect(*plan_or);
    ++ran;

    auto uncached = RunRounds(*workload, query, plan, rounds, false);
    auto cached = RunRounds(*workload, query, plan, rounds, true);
    if (!uncached.ok() || !cached.ok()) {
      std::cerr << query.name << ": "
                << (!uncached.ok() ? uncached.status() : cached.status())
                       .ToString()
                << "\n";
      return 1;
    }

    bool identical = uncached->final_rows == cached->final_rows &&
                     uncached->work_units == cached->work_units &&
                     uncached->objects == cached->objects &&
                     uncached->counts == cached->counts &&
                     uncached->distincts == cached->distincts;
    all_identical = all_identical && identical;

    uint64_t lookups = cached->cache_hits + cached->cache_misses;
    double hit_rate =
        lookups > 0 ? static_cast<double>(cached->cache_hits) / lookups : 0;
    double speedup =
        cached->seconds > 0 ? uncached->seconds / cached->seconds : 0;
    total_uncached += uncached->seconds;
    total_cached += cached->seconds;
    total_hits += cached->cache_hits;
    total_lookups += lookups;

    table.AddRow({query.name, StrFormat("%.3f", uncached->seconds),
                  StrFormat("%.3f", cached->seconds),
                  StrFormat("%.2fx", speedup), StrFormat("%.2f", hit_rate),
                  identical ? "yes" : "NO"});
    json_rows.push_back(bench::JsonObject([&](obs::JsonWriter& w) {
      w.KV("query", query.name);
      bench::KVFixed(w, "uncached_seconds", uncached->seconds, 6);
      bench::KVFixed(w, "cached_seconds", cached->seconds, 6);
      bench::KVFixed(w, "speedup", speedup, 3);
      bench::KVFixed(w, "hit_rate", hit_rate, 4);
      w.KV("rows", cached->final_rows);
      w.KV("work_units", cached->work_units);
      w.KV("identical", identical);
    }));
  }
  table.Print(std::cout);

  double overall = total_cached > 0 ? total_uncached / total_cached : 0;
  double overall_hit_rate =
      total_lookups > 0 ? static_cast<double>(total_hits) / total_lookups : 0;
  std::cout << StrFormat(
      "\nOverall: %.3fs uncached vs %.3fs cached = %.2fx speedup, "
      "%.1f%% hit rate over %d rounds\n",
      total_uncached, total_cached, overall, 100 * overall_hit_rate, rounds);

  std::string summary = bench::JsonObject([&](obs::JsonWriter& w) {
    w.KV("bench", "udf_cache");
    bench::KVFixed(w, "scale", options.scale, 3);
    w.KV("rounds", rounds);
    bench::KVFixed(w, "overall_speedup", overall, 3);
    bench::KVFixed(w, "overall_hit_rate", overall_hit_rate, 4);
    w.KV("all_identical", all_identical);
    w.Key("queries");
    w.BeginArray();
    for (const std::string& row : json_rows) w.Raw(row);
    w.EndArray();
  });
  std::ofstream("BENCH_udf_cache.json") << summary << "\n";
  std::cout << "Wrote BENCH_udf_cache.json\n";

  if (ran == 0) {
    std::cerr << "FAIL: no queries ran\n";
    return 1;
  }
  if (!all_identical) {
    std::cerr << "FAIL: cached and uncached runs disagree on an observable "
                 "output — the cache must be invisible\n";
    return 1;
  }
  if (overall < 2.0) {
    std::cerr << StrFormat(
        "FAIL: overall speedup %.2fx < 2x — the cache is not paying for "
        "itself on the repeated-Σ workload\n", overall);
    return 1;
  }
  return 0;
}
