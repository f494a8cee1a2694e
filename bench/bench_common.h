#ifndef MONSOON_BENCH_BENCH_COMMON_H_
#define MONSOON_BENCH_BENCH_COMMON_H_

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "common/env.h"
#include "common/string_util.h"
#include "harness/runner.h"
#include "monsoon/monsoon_optimizer.h"
#include "obs/json.h"

namespace monsoon::bench {

/// Environment knobs so the tables can be regenerated at larger scale:
///   MONSOON_BENCH_SCALE  — multiplies workload sizes (default 1.0)
///   MONSOON_BENCH_BUDGET — per-query work budget (default per bench)
///   MONSOON_BENCH_ITERS  — MCTS iterations per decision (default 300)
inline constexpr Range<double> kBenchScaleRange{0.001, 1000.0};

inline double BenchScale(double fallback = 1.0) {
  return EnvNumber("MONSOON_BENCH_SCALE", fallback, kBenchScaleRange);
}

inline uint64_t BenchBudget(uint64_t fallback) {
  return EnvNumber("MONSOON_BENCH_BUDGET", fallback, kWideRange);
}

inline int BenchIters(int fallback = 300) {
  return EnvNumber("MONSOON_BENCH_ITERS", fallback, kPositiveIntRange);
}

/// The comma-separated counts in `name`, each in kCountRange; `fallback`
/// when the variable is unset or empty. A bad entry is reported and the
/// whole variable ignored, as EnvNumber does for one number.
inline std::vector<int> BenchCounts(const char* name,
                                    std::vector<int> fallback) {
  const std::string text = EnvString(name).value_or("");
  if (text.empty()) return fallback;
  std::vector<int> counts;
  for (const std::string& token : SplitString(text, ',')) {
    std::optional<int> count = ParseNumber(token, kCountRange);
    if (!count.has_value()) {
      std::cerr << "ignoring " << name << "='" << text
                << "': expects integers in [1, 1024] joined by ','\n";
      return fallback;
    }
    counts.push_back(*count);
  }
  return counts;
}

/// Writes `key` with `value` at `digits` decimals, the precision the
/// BENCH_*.json files record (JsonWriter::Double prints every digit).
inline void KVFixed(obs::JsonWriter& writer, const std::string& key,
                    double value, int digits) {
  writer.Key(key);
  writer.Raw(StrFormat("%.*f", digits, value));
}

/// One JSON object written through obs::JsonWriter; `fill` writes its
/// members. Bench rows are built with it while their header fields are
/// still being tallied, then spliced into the file's array with Raw().
template <typename Fill>
std::string JsonObject(Fill&& fill) {
  std::ostringstream out;
  obs::JsonWriter writer(out);
  writer.BeginObject();
  fill(writer);
  writer.EndObject();
  return out.str();
}

inline MonsoonOptimizer::Options MonsoonBenchOptions(uint64_t budget,
                                                     PriorKind prior =
                                                         PriorKind::kSpikeAndSlab) {
  MonsoonOptimizer::Options options;
  options.prior = prior;
  options.mcts.iterations = BenchIters();
  options.work_budget = budget;
  return options;
}

/// Registers a Strategy (baseline) with the runner.
inline void AddBaseline(BenchRunner& runner, std::unique_ptr<Strategy> strategy,
                        uint64_t budget) {
  std::shared_ptr<Strategy> shared = std::move(strategy);
  std::string name = shared->name();
  runner.AddStrategy(name,
                     [shared, budget](const Workload& workload,
                                      const BenchQuery& query) {
                       return shared->Run(*workload.catalog, query.spec, budget);
                     });
}

/// Registers Monsoon with the runner.
inline void AddMonsoon(BenchRunner& runner, uint64_t budget,
                       PriorKind prior = PriorKind::kSpikeAndSlab,
                       const std::string& name = "Monsoon") {
  MonsoonOptimizer::Options options = MonsoonBenchOptions(budget, prior);
  runner.AddStrategy(name, [options](const Workload& workload,
                                     const BenchQuery& query) {
    MonsoonOptimizer monsoon(workload.catalog.get(), options);
    return monsoon.Run(query.spec);
  });
}

/// Registers the "Hand-written" strategy backed by per-query plans.
inline void AddHandWritten(BenchRunner& runner, uint64_t budget) {
  runner.AddStrategy("Hand-written", [budget](const Workload& workload,
                                              const BenchQuery& query) {
    auto strategy = MakeHandPlanStrategy(
        "Hand-written", [&query](const QuerySpec&) -> StatusOr<PlanNode::Ptr> {
          if (query.hand_plan == nullptr) {
            return Status::NotFound("no hand plan for " + query.name);
          }
          return query.hand_plan;
        });
    return strategy->Run(*workload.catalog, query.spec, budget);
  });
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n==========================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << " of Sikdar & Jermaine, SIGMOD'20)\n"
            << "==========================================================\n";
}

}  // namespace monsoon::bench

#endif  // MONSOON_BENCH_BENCH_COMMON_H_
