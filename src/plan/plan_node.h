#ifndef MONSOON_PLAN_PLAN_NODE_H_
#define MONSOON_PLAN_PLAN_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "query/query_spec.h"
#include "query/relset.h"

namespace monsoon {

/// Canonical identity of a relational-algebra expression: the set of
/// relations it covers plus the set of predicates applied inside it.
/// Two join orders over the same relations with the same predicates
/// produce the same multiset of rows, so they share one signature — this
/// is the key under which cardinalities c(r) and distinct counts
/// d(F, r|_s) are stored.
struct ExprSig {
  uint64_t rels = 0;   // RelSet mask
  uint64_t preds = 0;  // predicate-id mask

  static ExprSig Of(RelSet r, uint64_t preds_mask) { return {r.mask(), preds_mask}; }

  /// Wildcard used as "any partner" in distinct-count keys.
  static ExprSig Any() { return {0, 0}; }

  RelSet rel_set() const { return RelSet(rels); }
  bool IsAny() const { return rels == 0 && preds == 0; }

  bool operator==(const ExprSig& other) const {
    return rels == other.rels && preds == other.preds;
  }
  bool operator!=(const ExprSig& other) const { return !(*this == other); }
  bool operator<(const ExprSig& other) const {
    return rels != other.rels ? rels < other.rels : preds < other.preds;
  }

  uint64_t Hash() const { return HashCombine(Mix64(rels), Mix64(preds)); }

  std::string ToString() const;
};

struct ExprSigHash {
  size_t operator()(const ExprSig& sig) const { return sig.Hash(); }
};

/// A node of a (logical) query plan. Trees are immutable and shared. (The
/// MDP plans on flat PlanForests and builds these trees only for the
/// EXECUTE the executor runs.)
///
/// - kLeaf references an already-materialized expression (`source`) and
///   optionally applies selection predicates on top of it.
/// - kJoin combines two children, applying `pred_ids` (equi joins plus
///   residual filters).
/// - kStatsCollect is the paper's Σ operator: materialize the child, then
///   make another pass computing distinct-value counts for every UDF term
///   evaluable over it.
class PlanNode {
 public:
  enum class Kind { kLeaf, kJoin, kStatsCollect };

  using Ptr = std::shared_ptr<const PlanNode>;

  /// Leaf over materialized expression `source`, applying `selection_preds`
  /// (may be empty, in which case output == source).
  static Ptr Leaf(ExprSig source, std::vector<int> selection_preds);

  /// Join of two subplans applying `pred_ids` at this node.
  static Ptr Join(Ptr left, Ptr right, std::vector<int> pred_ids);

  /// Σ(child).
  static Ptr StatsCollect(Ptr child);

  Kind kind() const { return kind_; }
  const ExprSig& output_sig() const { return output_sig_; }
  const ExprSig& source() const { return source_; }  // kLeaf only
  const Ptr& left() const { return left_; }
  const Ptr& right() const { return right_; }
  const Ptr& child() const { return left_; }  // kStatsCollect alias
  const std::vector<int>& pred_ids() const { return pred_ids_; }

  bool HasStatsCollect() const;

  /// Renders the tree, e.g. "Σ((R ⋈ S) ⋈ T)", mapping relation indices
  /// through the query's aliases.
  std::string ToString(const QuerySpec& query) const;

 private:
  PlanNode() = default;

  Kind kind_ = Kind::kLeaf;
  ExprSig source_;             // kLeaf: the materialized input
  Ptr left_;                   // kJoin: left child; kStatsCollect: child
  Ptr right_;                  // kJoin: right child
  std::vector<int> pred_ids_;  // kLeaf: selections; kJoin: join preds + filters
  ExprSig output_sig_;
};

/// Predicate-id mask helper.
inline uint64_t PredMask(const std::vector<int>& pred_ids) {
  uint64_t mask = 0;
  for (int id : pred_ids) mask |= uint64_t{1} << id;
  return mask;
}

}  // namespace monsoon

#endif  // MONSOON_PLAN_PLAN_NODE_H_
