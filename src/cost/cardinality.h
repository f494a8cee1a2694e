#ifndef MONSOON_COST_CARDINALITY_H_
#define MONSOON_COST_CARDINALITY_H_

#include <span>
#include <vector>

#include "catalog/stats_store.h"
#include "common/random.h"
#include "common/status.h"
#include "plan/plan_node.h"
#include "priors/prior.h"
#include "query/query_spec.h"

namespace monsoon {

/// Policy for distinct counts that are missing from the StatsStore.
enum class MissingStatPolicy {
  /// Sample from the prior and record the sample in the store. This is the
  /// paper's recursive statistics generation (Sec. 4.3), used during MDP
  /// transition simulation so repeated references see a consistent value.
  kSampleFromPrior,
  /// Use `default_fraction * c(r)` without recording — the "Defaults"
  /// baseline and Postgres-style magic constants.
  kDefaultFraction,
  /// Fail with NotFound. Used by optimizers that require complete
  /// statistics (FullStats baseline after offline collection).
  kError,
};

/// The statistical model of Sec. 4.3: join and selection cardinalities as
/// deterministic functions of input counts and distinct-value counts,
/// with unknown distinct counts resolved per `MissingStatPolicy`.
///
/// All cardinalities are doubles (estimates); the executor supplies exact
/// observed counts back into the StatsStore after real execution.
class CardinalityModel {
 public:
  struct Options {
    MissingStatPolicy missing_policy = MissingStatPolicy::kDefaultFraction;
    const Prior* prior = nullptr;  // required for kSampleFromPrior
    Pcg32* rng = nullptr;          // required for kSampleFromPrior
    double default_fraction = 0.1;
    /// Record computed cardinalities of interior plan expressions in the
    /// store. Used by MDP transition simulation (Sec. 4.3's recursive
    /// generation) so that subsequent estimates see consistent values.
    bool record_counts = false;
  };

  /// `stats` must outlive the model. With kSampleFromPrior the store is
  /// mutated (samples are recorded).
  CardinalityModel(const QuerySpec& query, StatsStore* stats, Options options);

  /// d(term, expr |_ partner): lookup, then the missing-stat policy.
  /// c_expr / c_partner parameterize the prior (f(d | c(r), c(s))).
  StatusOr<double> ResolveDistinct(const UdfTerm& term, const ExprSig& expr,
                                   double c_expr, const ExprSig& partner,
                                   double c_partner);

  /// Cardinality of a leaf: c(source) (must be in the store) times the
  /// selectivity 1/d of each selection predicate.
  StatusOr<double> LeafCardinality(const ExprSig& source,
                                   std::span<const int> selection_preds);
  StatusOr<double> LeafCardinality(const ExprSig& source,
                                   const std::vector<int>& selection_preds) {
    return LeafCardinality(source, std::span<const int>(selection_preds));
  }

  /// Cardinality of a join of expressions with signatures/counts
  /// (left_sig, c_left) and (right_sig, c_right), applying `pred_ids`:
  ///   c = c_l * c_r * Π_p sel(p)
  /// where sel of an equi predicate is 1/max(d_l, d_r) (Eq. 2), sel of a
  /// '<>' predicate is 1 - 1/max(d_l, d_r), and predicates whose terms
  /// span both inputs are evaluated over the combined expression.
  StatusOr<double> JoinCardinality(const ExprSig& left_sig, double c_left,
                                   const ExprSig& right_sig, double c_right,
                                   std::span<const int> pred_ids);
  StatusOr<double> JoinCardinality(const ExprSig& left_sig, double c_left,
                                   const ExprSig& right_sig, double c_right,
                                   const std::vector<int>& pred_ids) {
    return JoinCardinality(left_sig, c_left, right_sig, c_right,
                           std::span<const int>(pred_ids));
  }

  /// Estimated output cardinality of a whole plan tree, resolving leaf
  /// counts through the store and recording computed counts for interior
  /// expressions when the policy samples (Sec. 4.3's recursive
  /// generation).
  StatusOr<double> PlanCardinality(const PlanNode::Ptr& node);

  /// cost(r) of Sec. 4.4: objects processed to execute the plan.
  ///   leaf          -> c(source)             (scan of the materialized input)
  ///   join          -> c(out) + cost(l) + cost(r)
  ///   stats collect -> c(child out) + cost(child)
  StatusOr<double> PlanCost(const PlanNode::Ptr& node);

  struct PlanEstimate {
    double cost = 0;
    double cardinality = 0;
  };
  /// Cost and output cardinality in one traversal.
  StatusOr<PlanEstimate> EstimatePlan(const PlanNode::Ptr& node) {
    return EstimateNode(node);
  }

  /// The per-node steps of EstimatePlan, for callers that walk their own
  /// plan representation (the MDP's flat plan forests). A leaf reads
  /// `source` and applies `preds`; a join combines its children's
  /// estimates. Both reuse a count already in the store for `output`.
  StatusOr<PlanEstimate> EstimateLeaf(const ExprSig& source, const ExprSig& output,
                                      std::span<const int> preds);
  StatusOr<PlanEstimate> EstimateJoin(const ExprSig& output, const ExprSig& left_sig,
                                      const PlanEstimate& left,
                                      const ExprSig& right_sig,
                                      const PlanEstimate& right,
                                      std::span<const int> preds);

  const StatsStore& stats() const { return *stats_; }

 private:
  using NodeEstimate = PlanEstimate;
  StatusOr<NodeEstimate> EstimateNode(const PlanNode::Ptr& node);
  /// LeafCardinality with c(source) already looked up.
  StatusOr<double> SelectionCardinality(const ExprSig& source, double c_source,
                                        std::span<const int> selection_preds);

  const QuerySpec& query_;
  StatsStore* stats_;
  Options options_;
};

}  // namespace monsoon

#endif  // MONSOON_COST_CARDINALITY_H_
