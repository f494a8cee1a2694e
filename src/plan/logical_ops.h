#ifndef MONSOON_PLAN_LOGICAL_OPS_H_
#define MONSOON_PLAN_LOGICAL_OPS_H_

#include <vector>

#include "plan/plan_node.h"
#include "query/query_spec.h"

namespace monsoon {

/// Builds the leaf plan for relation `rel`: a scan of the base table with
/// every selection predicate on that relation applied inline (selections
/// are always pushed to leaves in this repo; the paper restricts its MDP
/// to the join-ordering problem).
PlanNode::Ptr MakeLeaf(const QuerySpec& query, int rel);

/// Join predicates (by id) that become applicable when an expression with
/// signature `left` is joined with one with signature `right`: predicates
/// not yet applied on either side whose relations are covered by the
/// union but by neither input alone.
std::vector<int> ApplicableJoinPreds(const QuerySpec& query, const ExprSig& left,
                                     const ExprSig& right);

/// The same predicates as a mask (bit i = predicate i); allocation-free.
uint64_t ApplicableJoinPredMask(const QuerySpec& query, const ExprSig& left,
                                const ExprSig& right);
/// The same, given each input's QuerySpec::PredicatesTouching mask (for
/// callers that test one input against many).
uint64_t ApplicableJoinPredMask(const QuerySpec& query, const ExprSig& left,
                                uint64_t left_touching, const ExprSig& right,
                                uint64_t right_touching);

/// True if at least one applicable predicate connects the two inputs
/// (joining them is not a bare cross product).
bool AreConnected(const QuerySpec& query, const ExprSig& left, const ExprSig& right);

/// True if the relations of `a` and `b` lie in different connected
/// components of the query's predicate graph — i.e. a cross product
/// between them is unavoidable at some point.
bool CrossProductUnavoidable(const QuerySpec& query, RelSet a, RelSet b);

}  // namespace monsoon

#endif  // MONSOON_PLAN_LOGICAL_OPS_H_
