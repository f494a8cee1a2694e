#include "cost/cardinality.h"

#include <algorithm>
#include <cmath>

namespace monsoon {

CardinalityModel::CardinalityModel(const QuerySpec& query, StatsStore* stats,
                                   Options options)
    : query_(query), stats_(stats), options_(options) {}

StatusOr<double> CardinalityModel::ResolveDistinct(const UdfTerm& term,
                                                   const ExprSig& expr, double c_expr,
                                                   const ExprSig& partner,
                                                   double c_partner) {
  if (auto d = stats_->LookupDistinct(term.term_id, expr, partner)) {
    // A distinct count can never exceed the (possibly newly filtered)
    // expression's row count.
    return std::min(*d, std::max(c_expr, 1.0));
  }
  switch (options_.missing_policy) {
    case MissingStatPolicy::kSampleFromPrior: {
      if (options_.prior == nullptr || options_.rng == nullptr) {
        return Status::Internal("kSampleFromPrior requires prior and rng");
      }
      double d = options_.prior->Sample(*options_.rng, c_expr, c_partner);
      stats_->SetDistinct(term.term_id, expr, partner, d);
      return d;
    }
    case MissingStatPolicy::kDefaultFraction: {
      double d = std::max(1.0, options_.default_fraction * c_expr);
      return d;
    }
    case MissingStatPolicy::kError:
      return Status::NotFound("missing distinct count for term " +
                              term.ToString() + " over " + expr.ToString());
  }
  return Status::Internal("unknown missing-stat policy");
}

StatusOr<double> CardinalityModel::LeafCardinality(
    const ExprSig& source, std::span<const int> selection_preds) {
  auto c_source = stats_->LookupCount(source);
  if (!c_source.has_value()) {
    return Status::NotFound("no count for source expression " + source.ToString());
  }
  return SelectionCardinality(source, *c_source, selection_preds);
}

StatusOr<double> CardinalityModel::SelectionCardinality(
    const ExprSig& source, double c_source, std::span<const int> selection_preds) {
  double card = c_source;
  for (int pred_id : selection_preds) {
    const Predicate& pred = query_.predicate(pred_id);
    if (pred.kind != Predicate::Kind::kSelection) {
      return Status::InvalidArgument("leaf predicate is not a selection: " +
                                     pred.ToString());
    }
    // Classical formula: selectivity of F(r) = const is 1/d(F, r).
    MONSOON_ASSIGN_OR_RETURN(
        double d, ResolveDistinct(pred.left, source, c_source, source, c_source));
    card /= std::max(d, 1.0);
  }
  return card;
}

StatusOr<double> CardinalityModel::JoinCardinality(const ExprSig& left_sig,
                                                   double c_left,
                                                   const ExprSig& right_sig,
                                                   double c_right,
                                                   std::span<const int> pred_ids) {
  RelSet left_rels(left_sig.rels);
  RelSet right_rels(right_sig.rels);
  ExprSig combined{left_sig.rels | right_sig.rels, left_sig.preds | right_sig.preds};
  double c_cross = c_left * c_right;
  double card = c_cross;
  for (int pred_id : pred_ids) {
    const Predicate& pred = query_.predicate(pred_id);
    if (pred.kind == Predicate::Kind::kSelection) {
      // Selections normally live at leaves; applied here, the input is the
      // combined expression.
      MONSOON_ASSIGN_OR_RETURN(
          double d, ResolveDistinct(pred.left, combined, c_cross, combined, c_cross));
      card /= std::max(d, 1.0);
      continue;
    }
    const UdfTerm& lterm = pred.left;
    const UdfTerm& rterm = *pred.right;
    double d_l = 1.0;
    double d_r = 1.0;
    // Each term is evaluated over whichever input covers it; a term that
    // spans both inputs is evaluated over the combined expression (this is
    // the multi-table-UDF case: statistics only exist once the inputs are
    // brought together).
    auto resolve_side = [&](const UdfTerm& term) -> StatusOr<double> {
      if (left_rels.ContainsAll(term.rels)) {
        return ResolveDistinct(term, left_sig, c_left, right_sig, c_right);
      }
      if (right_rels.ContainsAll(term.rels)) {
        return ResolveDistinct(term, right_sig, c_right, left_sig, c_left);
      }
      return ResolveDistinct(term, combined, c_cross, combined, c_cross);
    };
    MONSOON_ASSIGN_OR_RETURN(d_l, resolve_side(lterm));
    MONSOON_ASSIGN_OR_RETURN(d_r, resolve_side(rterm));
    double d_max = std::max({d_l, d_r, 1.0});
    if (pred.equality) {
      card /= d_max;  // Eq. 2
    } else {
      card *= (1.0 - 1.0 / d_max);  // complement for '<>'
    }
  }
  return card;
}

StatusOr<CardinalityModel::PlanEstimate> CardinalityModel::EstimateLeaf(
    const ExprSig& source, const ExprSig& output, std::span<const int> preds) {
  auto c_source = stats_->LookupCount(source);
  if (!c_source.has_value()) {
    return Status::NotFound("no count for leaf source " + source.ToString());
  }
  // "If the count c(r) is already in S, return" (Sec. 4.3, step 1).
  double card;
  if (output == source) {
    card = *c_source;
  } else if (auto known = stats_->LookupCount(output)) {
    card = *known;
  } else {
    MONSOON_ASSIGN_OR_RETURN(card, SelectionCardinality(source, *c_source, preds));
    if (options_.record_counts) stats_->SetCount(output, card);
  }
  // Scanning the materialized input processes c(source) objects.
  return PlanEstimate{*c_source, card};
}

StatusOr<CardinalityModel::PlanEstimate> CardinalityModel::EstimateJoin(
    const ExprSig& output, const ExprSig& left_sig, const PlanEstimate& left,
    const ExprSig& right_sig, const PlanEstimate& right, std::span<const int> preds) {
  double card;
  if (auto known = stats_->LookupCount(output)) {
    card = *known;
  } else {
    MONSOON_ASSIGN_OR_RETURN(card, JoinCardinality(left_sig, left.cardinality, right_sig,
                                                   right.cardinality, preds));
    if (options_.record_counts) stats_->SetCount(output, card);
  }
  return PlanEstimate{card + left.cost + right.cost, card};
}

StatusOr<CardinalityModel::NodeEstimate> CardinalityModel::EstimateNode(
    const PlanNode::Ptr& node) {
  switch (node->kind()) {
    case PlanNode::Kind::kLeaf:
      return EstimateLeaf(node->source(), node->output_sig(), node->pred_ids());
    case PlanNode::Kind::kJoin: {
      MONSOON_ASSIGN_OR_RETURN(NodeEstimate left, EstimateNode(node->left()));
      MONSOON_ASSIGN_OR_RETURN(NodeEstimate right, EstimateNode(node->right()));
      return EstimateJoin(node->output_sig(), node->left()->output_sig(), left,
                          node->right()->output_sig(), right, node->pred_ids());
    }
    case PlanNode::Kind::kStatsCollect: {
      MONSOON_ASSIGN_OR_RETURN(NodeEstimate child, EstimateNode(node->child()));
      // Statistics collection re-scans the materialized child output.
      return NodeEstimate{child.cost + child.cardinality, child.cardinality};
    }
  }
  return Status::Internal("unknown plan node kind");
}

StatusOr<double> CardinalityModel::PlanCardinality(const PlanNode::Ptr& node) {
  MONSOON_ASSIGN_OR_RETURN(NodeEstimate est, EstimateNode(node));
  return est.cardinality;
}

StatusOr<double> CardinalityModel::PlanCost(const PlanNode::Ptr& node) {
  MONSOON_ASSIGN_OR_RETURN(NodeEstimate est, EstimateNode(node));
  return est.cost;
}

}  // namespace monsoon
