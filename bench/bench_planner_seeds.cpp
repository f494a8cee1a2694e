// Plan quality over optimizer seeds: Monsoon's mean objects processed per
// query, and its mean planning time, for each of several MCTS seeds at
// several iteration counts. One draw of the seed says little about a
// change that alters decisions; this sweep gives the spread to judge it
// by (median and quartiles over the seeds). There is no gate.
//
// Two set-ups, those of the repository benchmark (perfbench/):
//   imdb — IMDB scale 0.25 without imdb-q26, threads=2 (two root-parallel
//          MCTS workers), shards=1, work budget 50M;
//   tpch — TPC-H scale 4, threads=2, shards=4, work budget 50M.
// Every query runs once per (seed, iterations); the first seed is the
// optimizer's default, 0x5eed, and the others are 1, 2, ... A query that
// fails (a work-budget timeout) is left out of its seed's means and
// counted under Failed.
//
// MONSOON_BENCH_SCALE multiplies both data scales (default 1.0). Results
// are written to BENCH_planner_seeds.json.

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "parallel/runtime.h"
#include "shard/shard.h"
#include "workloads/imdb.h"
#include "workloads/tpch.h"

using namespace monsoon;

namespace {

constexpr uint64_t kWorkBudget = 50'000'000;
constexpr int kSeeds = 12;
constexpr int kIterationCounts[] = {100, 300, 900};

// The value at quantile q of `values` (linear between order statistics).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

struct SetUp {
  std::string name;
  int shards = 1;
  std::function<StatusOr<Workload>()> generate;
};

// One seed's pass over the suite.
struct SeedRun {
  uint64_t seed = 0;
  double mean_objects = 0;  // per query
  double mean_plan_ms = 0;  // per query
  int failed = 0;
};

SeedRun RunSeed(const Workload& workload, int iterations, uint64_t seed) {
  MonsoonOptimizer::Options options;
  options.mcts.iterations = iterations;
  options.work_budget = kWorkBudget;
  options.seed = seed;
  MonsoonOptimizer optimizer(workload.catalog.get(), options);
  SeedRun run;
  run.seed = seed;
  int completed = 0;
  for (const BenchQuery& query : workload.queries) {
    RunResult result = optimizer.Run(query.spec);
    if (!result.ok()) {
      ++run.failed;
      std::cerr << query.name << " (seed " << seed << ", " << iterations
                << " iterations): " << result.status.ToString() << "\n";
      continue;
    }
    ++completed;
    run.mean_objects += static_cast<double>(result.objects_processed);
    run.mean_plan_ms += result.plan_seconds * 1e3;
  }
  if (completed > 0) {
    run.mean_objects /= completed;
    run.mean_plan_ms /= completed;
  }
  return run;
}

}  // namespace

int main() {
  std::cout << "\n==========================================================\n"
            << "Plan quality over MCTS seeds (mean objects and plan ms per query)\n"
            << "==========================================================\n";

  const double scale = bench::BenchScale(1.0);
  std::vector<uint64_t> seeds = {0x5eed};
  for (int i = 1; i < kSeeds; ++i) seeds.push_back(static_cast<uint64_t>(i));

  const std::vector<SetUp> setups = {
      {"imdb", 1,
       [scale]() -> StatusOr<Workload> {
         ImdbOptions options;
         options.scale = 0.25 * scale;
         MONSOON_ASSIGN_OR_RETURN(Workload workload, MakeImdbWorkload(options));
         // As in perfbench's imdb_serial: q26 alone takes half a pass.
         std::erase_if(workload.queries,
                       [](const BenchQuery& query) { return query.name == "imdb-q26"; });
         return workload;
       }},
      {"tpch", 4,
       [scale]() -> StatusOr<Workload> {
         TpchOptions options;
         options.scale = 4.0 * scale;
         return MakeTpchWorkload(options);
       }},
  };

  parallel::Config config;
  config.num_threads = 2;
  parallel::SetDefaultConfig(config);

  TablePrinter summary({"Workload", "Iters", "Objects median", "Objects Q1", "Objects Q3",
                        "Plan ms median", "Plan ms Q1", "Plan ms Q3", "Failed"});
  std::vector<std::string> json_rows;
  for (const SetUp& setup : setups) {
    shard::SetDefaultShardCount(setup.shards);
    StatusOr<Workload> workload = setup.generate();
    if (!workload.ok()) {
      std::cerr << setup.name << ": " << workload.status().ToString() << "\n";
      return 1;
    }
    for (int iterations : kIterationCounts) {
      TablePrinter per_seed({"Seed", "Mean objects", "Mean plan ms", "Failed"});
      std::vector<SeedRun> runs;
      std::vector<double> objects;
      std::vector<double> plan_ms;
      int failed = 0;
      for (uint64_t seed : seeds) {
        SeedRun run = RunSeed(*workload, iterations, seed);
        per_seed.AddRow({StrFormat("%#llx", static_cast<unsigned long long>(seed)),
                         StrFormat("%.0f", run.mean_objects),
                         StrFormat("%.2f", run.mean_plan_ms), std::to_string(run.failed)});
        objects.push_back(run.mean_objects);
        plan_ms.push_back(run.mean_plan_ms);
        failed += run.failed;
        runs.push_back(run);
      }
      std::cout << "\n" << setup.name << ", " << iterations << " iterations\n";
      per_seed.Print(std::cout);
      summary.AddRow({setup.name, std::to_string(iterations),
                      StrFormat("%.0f", Quantile(objects, 0.5)),
                      StrFormat("%.0f", Quantile(objects, 0.25)),
                      StrFormat("%.0f", Quantile(objects, 0.75)),
                      StrFormat("%.2f", Quantile(plan_ms, 0.5)),
                      StrFormat("%.2f", Quantile(plan_ms, 0.25)),
                      StrFormat("%.2f", Quantile(plan_ms, 0.75)), std::to_string(failed)});
      json_rows.push_back(bench::JsonObject([&](obs::JsonWriter& w) {
        w.KV("workload", setup.name);
        w.KV("iterations", iterations);
        w.Key("seeds");
        w.BeginArray();
        for (const SeedRun& run : runs) {
          w.Raw(bench::JsonObject([&](obs::JsonWriter& s) {
            s.KV("seed", run.seed);
            bench::KVFixed(s, "mean_objects", run.mean_objects, 1);
            bench::KVFixed(s, "mean_plan_ms", run.mean_plan_ms, 3);
            s.KV("failed", run.failed);
          }));
        }
        w.EndArray();
        bench::KVFixed(w, "objects_median", Quantile(objects, 0.5), 1);
        bench::KVFixed(w, "objects_q1", Quantile(objects, 0.25), 1);
        bench::KVFixed(w, "objects_q3", Quantile(objects, 0.75), 1);
        bench::KVFixed(w, "plan_ms_median", Quantile(plan_ms, 0.5), 3);
        bench::KVFixed(w, "plan_ms_q1", Quantile(plan_ms, 0.25), 3);
        bench::KVFixed(w, "plan_ms_q3", Quantile(plan_ms, 0.75), 3);
      }));
    }
  }
  std::cout << "\nSummary over " << seeds.size() << " seeds\n";
  summary.Print(std::cout);

  std::string out = bench::JsonObject([&](obs::JsonWriter& w) {
    w.KV("bench", "planner_seeds");
    bench::KVFixed(w, "scale", scale, 3);
    w.Key("runs");
    w.BeginArray();
    for (const std::string& row : json_rows) w.Raw(row);
    w.EndArray();
  });
  std::ofstream("BENCH_planner_seeds.json") << out << "\n";
  std::cout << "Wrote BENCH_planner_seeds.json\n";
  return 0;
}
