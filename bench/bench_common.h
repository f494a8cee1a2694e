#ifndef MONSOON_BENCH_BENCH_COMMON_H_
#define MONSOON_BENCH_BENCH_COMMON_H_

#include <iostream>
#include <sstream>
#include <string>

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
inline double BenchScale(double fallback = 1.0) {
  return EnvDouble("MONSOON_BENCH_SCALE", fallback);
}

inline uint64_t BenchBudget(uint64_t fallback) {
  return EnvUint64("MONSOON_BENCH_BUDGET", fallback);
}

inline int BenchIters(int fallback = 300) {
  return EnvInt("MONSOON_BENCH_ITERS", fallback);
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
