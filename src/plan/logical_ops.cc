#include "plan/logical_ops.h"

namespace monsoon {

PlanNode::Ptr MakeLeaf(const QuerySpec& query, int rel) {
  return PlanNode::Leaf(ExprSig::Of(RelSet::Single(rel), 0),
                        query.SelectionPredicatesOn(rel));
}

uint64_t ApplicableJoinPredMask(const QuerySpec& query, const ExprSig& left,
                                const ExprSig& right) {
  return ApplicableJoinPredMask(query, left, query.PredicatesTouching(RelSet(left.rels)),
                                right, query.PredicatesTouching(RelSet(right.rels)));
}

uint64_t ApplicableJoinPredMask(const QuerySpec& query, const ExprSig& left,
                                uint64_t left_touching, const ExprSig& right,
                                uint64_t right_touching) {
  const std::vector<uint64_t>& pred_rels = query.predicate_rels();
  const uint64_t union_rels = left.rels | right.rels;
  uint64_t out = 0;
  // Covered by neither input alone implies touching both.
  uint64_t open = left_touching & right_touching & ~(left.preds | right.preds);
  while (open != 0) {
    int pred_id = __builtin_ctzll(open);
    open &= open - 1;
    uint64_t prels = pred_rels[pred_id];
    // Covered by the union, but by neither input alone.
    if ((prels & ~union_rels) == 0 && (prels & ~left.rels) != 0 &&
        (prels & ~right.rels) != 0) {
      out |= uint64_t{1} << pred_id;
    }
  }
  return out;
}

std::vector<int> ApplicableJoinPreds(const QuerySpec& query, const ExprSig& left,
                                     const ExprSig& right) {
  std::vector<int> out;
  for (uint64_t m = ApplicableJoinPredMask(query, left, right); m != 0; m &= m - 1) {
    out.push_back(__builtin_ctzll(m));
  }
  return out;
}

bool AreConnected(const QuerySpec& query, const ExprSig& left, const ExprSig& right) {
  return ApplicableJoinPredMask(query, left, right) != 0;
}

bool CrossProductUnavoidable(const QuerySpec& query, RelSet a, RelSet b) {
  // If any relation of `a` shares a component with any relation of `b`,
  // a predicate path exists and the cross product is avoidable.
  return !query.ComponentOf(a).Intersects(b);
}

}  // namespace monsoon
