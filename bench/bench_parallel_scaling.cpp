// Thread-scaling sweep for the src/parallel/ runtime: runs the UDF
// benchmark end to end at 1/2/4/8 threads and reports wall-clock speedup
// over the single-thread run, for Monsoon (morsel-driven execution +
// root-parallel MCTS) and for the Greedy baseline (morsel-driven
// execution only — the planner is trivial, so it isolates the executor's
// scaling). The work metric (Mobj) is thread-count-invariant by
// construction, which the sweep asserts: parallelism must change seconds,
// never the paper's cost accounting.
//
// Knobs: MONSOON_BENCH_SCALE / MONSOON_BENCH_BUDGET / MONSOON_BENCH_ITERS
// as in the table benches, plus MONSOON_SCALING_THREADS (comma-separated
// list, default "1,2,4,8").
//
// Note: speedup is bounded by the machine — on a single-core container
// every row reports ~1.0x (plus scheduling overhead); the sweep is only
// meaningful on hardware with as many cores as the largest thread count.

#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "parallel/runtime.h"
#include "workloads/udfbench.h"

using namespace monsoon;

namespace {

struct SweepPoint {
  int threads = 0;
  StrategySummary monsoon;
  StrategySummary greedy;
};

}  // namespace

int main() {
  std::cout << "\n==========================================================\n"
            << "Parallel scaling: UDF benchmark at 1/2/4/8 threads\n"
            << "(src/parallel/ runtime; not a paper table)\n"
            << "==========================================================\n";

  const uint64_t budget = bench::BenchBudget(900000);
  UdfBenchOptions options;
  options.scale = bench::BenchScale(1.0);
  auto workload = MakeUdfBenchWorkload(options);
  if (!workload.ok()) {
    std::cerr << "generator failed: " << workload.status().ToString() << "\n";
    return 1;
  }

  std::vector<SweepPoint> sweep;
  for (int threads :
       bench::BenchCounts("MONSOON_SCALING_THREADS", {1, 2, 4, 8})) {
    std::cout << "[sweep] " << threads << " thread(s)...\n";
    HarnessOptions harness;
    harness.work_budget = budget;
    harness.threads = threads;  // installs the global parallel config
    BenchRunner runner(harness);
    bench::AddBaseline(runner, MakeGreedyStrategy(), budget);
    bench::AddMonsoon(runner, budget);
    if (!runner.RunAll(*workload).ok()) return 1;
    SweepPoint point;
    point.threads = threads;
    point.monsoon = runner.Summarize("Monsoon");
    point.greedy = runner.Summarize("Greedy");
    sweep.push_back(point);
  }
  // Leave the process-wide config as we found it for any embedding code.
  parallel::Config restore = parallel::DefaultConfig();
  restore.num_threads = 1;
  parallel::SetDefaultConfig(restore);

  if (sweep.empty()) return 1;
  const SweepPoint& base = sweep.front();
  auto speedup = [](double base_seconds, double seconds) {
    if (seconds <= 0) return std::string("n/a");
    return StrFormat("%.2fx", base_seconds / seconds);
  };

  std::cout << "\n--- Wall-clock scaling relative to " << base.threads
            << " thread(s) ---\n";
  TablePrinter table({"Threads", "Monsoon(s)", "Speedup", "Greedy(s)",
                      "Speedup", "Greedy Mobj"});
  for (const SweepPoint& point : sweep) {
    table.AddRow({std::to_string(point.threads),
                  StrFormat("%.3f", point.monsoon.mean_seconds),
                  speedup(base.monsoon.mean_seconds, point.monsoon.mean_seconds),
                  StrFormat("%.3f", point.greedy.mean_seconds),
                  speedup(base.greedy.mean_seconds, point.greedy.mean_seconds),
                  StrFormat("%.3f", point.greedy.median_mobjects)});
  }
  table.Print(std::cout);

  // The deterministic work metric must not move with the thread count.
  // Checked on Greedy, whose plan is fixed: any drift is executor
  // accounting, not planning. (Monsoon's Mobj MAY move — root-parallel
  // MCTS with K workers is a different, equally valid search than K=1,
  // so it can pick different plans.)
  for (const SweepPoint& point : sweep) {
    if (point.greedy.median_mobjects != base.greedy.median_mobjects) {
      std::cerr << "FAIL: Greedy Mobj drifted with thread count ("
                << base.greedy.median_mobjects << " at " << base.threads
                << "T vs " << point.greedy.median_mobjects << " at "
                << point.threads << "T) — parallel accounting is broken\n";
      return 1;
    }
  }
  std::cout << "\nwork metric invariant across thread counts: OK\n";
  return 0;
}
