#ifndef MONSOON_MONSOON_MONSOON_OPTIMIZER_H_
#define MONSOON_MONSOON_MONSOON_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/stats_store.h"
#include "exec/executor.h"
#include "exec/run_result.h"
#include "exec/udf_cache.h"
#include "fault/cancellation.h"
#include "mcts/mcts.h"
#include "mdp/mdp.h"
#include "priors/prior.h"

namespace monsoon {

/// The Monsoon optimizer (Sec. 5): interleaved MCTS planning and real
/// execution. Before every real-world action an MCTS search runs from the
/// current state; planning actions mutate R_p, and EXECUTE hands every
/// planned tree to the engine, feeding observed cardinalities and Σ
/// distinct counts back into the statistics store before planning resumes.
class MonsoonOptimizer {
 public:
  struct Options {
    PriorKind prior = PriorKind::kSpikeAndSlab;
    MctsSearch::Options mcts;
    QueryMdp::Options mdp;
    /// Physical work budget per query; 0 = unlimited. Exceeding it aborts
    /// the query with ResourceExhausted ("timeout").
    uint64_t work_budget = 0;
    uint64_t seed = 0x5eed;
    /// Root-parallel MCTS searchers per decision. 0 = follow the global
    /// parallel::DefaultConfig() (so --threads=N parallelizes planning and
    /// execution together); 1 forces the serial search.
    int mcts_workers = 0;
    /// Wall-clock deadline for the whole query in milliseconds. Expiry
    /// cancels planning and execution cooperatively and the run returns
    /// DeadlineExceeded with whatever accounting accumulated. 0 honors
    /// the MONSOON_DEADLINE_MS environment knob, or no deadline when that
    /// is unset too.
    uint64_t deadline_ms = 0;
    /// External cancellation token (not owned; must outlive Run). When set,
    /// planning and execution poll it instead of a run-local token, so a
    /// server can cancel a session from outside; `deadline_ms` is armed on
    /// it. When null the run creates its own token as before.
    fault::CancellationToken* cancel_token = nullptr;
    /// Cross-query UDF column cache. When set it replaces the run-local
    /// cache, so identical UDF columns over the same base tables hit across
    /// queries. Correctness-safe under sharing: entries are validated
    /// against exact Table identity before being served.
    std::shared_ptr<UdfColumnCache> udf_cache;
    /// Warm-start statistics: when set, the MDP's initial S is a copy of
    /// this store instead of empty, so Σ distinct counts learned by earlier
    /// queries with the same fingerprint skip their collection passes.
    const StatsStore* warm_stats = nullptr;
    /// When set, receives the final hardened statistics store S on success
    /// (untouched on failure), for a server-side cross-query memo.
    StatsStore* learned_stats_out = nullptr;
  };

  MonsoonOptimizer(const Catalog* catalog, Options options);

  /// Optimizes and executes `query`, returning the run's accounting. On
  /// timeout the result carries status ResourceExhausted and whatever
  /// accounting accumulated.
  RunResult Run(const QuerySpec& query) const;

 private:
  Status RunImpl(const QuerySpec& query, RunResult* result) const;

  const Catalog* catalog_;
  Options options_;
};

}  // namespace monsoon

#endif  // MONSOON_MONSOON_MONSOON_OPTIMIZER_H_
