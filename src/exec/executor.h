#ifndef MONSOON_EXEC_EXECUTOR_H_
#define MONSOON_EXEC_EXECUTOR_H_

#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "exec/bound_term.h"
#include "exec/exec_context.h"
#include "exec/materialized_store.h"
#include "exec/udf_cache.h"
#include "expr/udf.h"
#include "plan/plan_node.h"
#include "query/query_spec.h"

namespace monsoon {

/// One distinct-count observation produced by a Σ operator:
/// d(term_id, expr) estimated by HyperLogLog over the materialized result.
struct DistinctObservation {
  int term_id;
  ExprSig expr;
  double distinct_count;
};

/// Result of executing one plan tree.
struct ExecResult {
  MaterializedExpr output;
  std::vector<DistinctObservation> observed_distincts;  // from Σ nodes
  /// Exact cardinality observed for every node of the executed tree
  /// (interior temporaries included); these harden c(r) entries in S.
  std::vector<std::pair<ExprSig, uint64_t>> observed_counts;
  /// Σ passes that failed with a transient fault (injected fault or
  /// per-UDF timeout) and were skipped instead of aborting the tree: one
  /// human-readable reason each. The MDP plans those d(F, r|_s) from the
  /// spike-and-slab prior alone (graceful degradation). Empty on clean
  /// runs; budget trips, cancellation and hard errors never land here.
  std::vector<std::string> degraded;
};

/// The mini relational engine. Executes logical plan trees against a
/// MaterializedStore:
///  * leaves scan an already-materialized expression, applying selection
///    predicates inline;
///  * joins hash-join on every equi predicate whose sides separate across
///    the two inputs, and apply the remaining predicates (multi-table-UDF
///    terms, '<>', cycle-closing filters) as residual filters — falling
///    back to a nested-loop cross product when no equi predicate exists;
///  * Σ nodes materialize their child, then take one more pass computing
///    an HLL distinct count for every UDF term evaluable over the result.
///
/// Every table an interior node produces is materialized (this repo
/// reproduces logical optimization; pipelining is out of scope, exactly as
/// in the paper's object-count cost model).
///
/// Each operator is one body over a row range; one driver runs it over the
/// ranges of a pass — a single inline range, morsels on the context's
/// pool, or the context's shards under the shard supervisor. Per-range
/// results merge at a barrier in range order, and Σ merges per-range HLL
/// sketches exactly, so rows, observed counts, distincts and both
/// accounting counters are identical in every mode (see DESIGN.md
/// "Parallel runtime" and "Shards").
///
/// Leaf residual filters, hash-join keys and the Σ HLL pass read each UDF
/// term through one binder: the store's evaluate-once column when the
/// input is store-resident and the cache returns one, else one kernel call
/// per batch into a batch-local column. Rows, counts, distincts and both
/// accounting counters are bit-identical either way (DESIGN.md "UDF
/// evaluation cache").
class Executor {
 public:
  Executor(const QuerySpec& query, const UdfRegistry* registry)
      : query_(query), registry_(registry) {}

  /// Executes `plan`, charging `ctx`. On success the output expression is
  /// also Put() into `store`.
  StatusOr<ExecResult> Execute(const PlanNode::Ptr& plan, MaterializedStore* store,
                               ExecContext* ctx) const;

 private:
  StatusOr<MaterializedExpr> ExecuteNode(const PlanNode::Ptr& node,
                                         MaterializedStore* store, ExecContext* ctx,
                                         ExecResult* result) const;

  StatusOr<MaterializedExpr> ExecuteLeaf(const PlanNode::Ptr& node,
                                         MaterializedStore* store,
                                         ExecContext* ctx) const;

  StatusOr<MaterializedExpr> ExecuteJoin(const PlanNode::Ptr& node,
                                         MaterializedExpr left, MaterializedExpr right,
                                         MaterializedStore* store,
                                         ExecContext* ctx) const;

  Status CollectStats(const MaterializedExpr& expr, MaterializedStore* store,
                      ExecContext* ctx,
                      std::vector<DistinctObservation>* obs) const;

  const QuerySpec& query_;
  const UdfRegistry* registry_;
};

}  // namespace monsoon

#endif  // MONSOON_EXEC_EXECUTOR_H_
