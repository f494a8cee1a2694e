#include "mdp/mdp.h"

#include <algorithm>
#include <bitset>
#include <sstream>

#include "cost/cardinality.h"
#include "plan/logical_ops.h"

namespace monsoon {

std::string MdpAction::ToString(const QuerySpec& query) const {
  auto rels_name = [&](const ExprSig& sig) {
    std::string out;
    for (int idx : RelSet(sig.rels).Indices()) {
      if (!out.empty()) out += "⋈";
      out += query.relation(idx).alias;
    }
    return out;
  };
  switch (type) {
    case Type::kAddStatsPlan:
      return "plan Σ(" + rels_name(exec_a) + ")";
    case Type::kTopWithStats:
      return "top plan #" + std::to_string(plan_a) + " with Σ";
    case Type::kJoinExecExec:
      return "plan (" + rels_name(exec_a) + " ⋈ " + rels_name(exec_b) + ")";
    case Type::kJoinPlanPlan:
      return "join plans #" + std::to_string(plan_a) + ", #" + std::to_string(plan_b);
    case Type::kJoinExecPlan:
      return "join " + rels_name(exec_a) + " into plan #" + std::to_string(plan_a);
    case Type::kExecute:
      return "EXECUTE";
  }
  return "?";
}

int32_t PlanForest::Append(PlanForestNode node) {
  nodes_.push_back(node);
  return static_cast<int32_t>(nodes_.size()) - 1;
}

int32_t PlanForest::AddLeaf(const ExprSig& source, std::span<const int> preds) {
  PlanForestNode node;
  node.kind_ = PlanNode::Kind::kLeaf;
  node.source_ = source;
  node.output_ = source;
  node.pred_begin_ = static_cast<uint32_t>(pred_ids_.size());
  node.pred_count_ = static_cast<uint32_t>(preds.size());
  for (int pred_id : preds) {
    pred_ids_.push_back(pred_id);
    node.output_.preds |= uint64_t{1} << pred_id;
  }
  return Append(node);
}

int32_t PlanForest::AddJoin(int32_t left, int32_t right, uint64_t pred_mask) {
  const PlanForestNode& l = nodes_[left];
  const PlanForestNode& r = nodes_[right];
  PlanForestNode node;
  node.kind_ = PlanNode::Kind::kJoin;
  node.has_stats_ = l.has_stats_ || r.has_stats_;
  node.left_ = left;
  node.right_ = right;
  node.output_ = ExprSig{l.output_.rels | r.output_.rels,
                         l.output_.preds | r.output_.preds | pred_mask};
  node.pred_begin_ = static_cast<uint32_t>(pred_ids_.size());
  node.pred_count_ = static_cast<uint32_t>(__builtin_popcountll(pred_mask));
  for (uint64_t m = pred_mask; m != 0; m &= m - 1) {
    pred_ids_.push_back(__builtin_ctzll(m));
  }
  return Append(node);
}

int32_t PlanForest::AddStatsCollect(int32_t child) {
  PlanForestNode node;
  node.kind_ = PlanNode::Kind::kStatsCollect;
  node.has_stats_ = true;
  node.left_ = child;
  node.output_ = nodes_[child].output_;
  return Append(node);
}

void PlanForest::clear() {
  nodes_.clear();
  pred_ids_.clear();
  roots_.clear();
}

PlanNode::Ptr PlanForest::Materialize(int32_t id) const {
  const PlanForestNode& node = nodes_[id];
  std::span<const int> ids = preds(node);
  switch (node.kind_) {
    case PlanNode::Kind::kLeaf:
      return PlanNode::Leaf(node.source_, std::vector<int>(ids.begin(), ids.end()));
    case PlanNode::Kind::kJoin:
      return PlanNode::Join(Materialize(node.left_), Materialize(node.right_),
                            std::vector<int>(ids.begin(), ids.end()));
    case PlanNode::Kind::kStatsCollect:
      return PlanNode::StatsCollect(Materialize(node.left_));
  }
  return nullptr;
}

namespace {

bool SigLess(const ExecutedSet::value_type& entry, const ExprSig& sig) {
  return entry.first < sig;
}

}  // namespace

size_t ExecutedSet::count(const ExprSig& sig) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), sig, SigLess);
  return it != entries_.end() && it->first == sig ? 1 : 0;
}

double& ExecutedSet::operator[](const ExprSig& sig) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), sig, SigLess);
  if (it == entries_.end() || it->first != sig) it = entries_.insert(it, {sig, 0.0});
  return it->second;
}

std::string MdpState::ToString(const QuerySpec& query) const {
  std::ostringstream out;
  out << "R_p = {";
  for (size_t i = 0; i < planned.size(); ++i) {
    if (i > 0) out << ", ";
    out << planned.Materialize(planned.root_id(i))->ToString(query);
  }
  out << "}  R_e = {";
  bool first = true;
  for (const auto& [sig, count] : executed) {
    if (!first) out << ", ";
    first = false;
    out << sig.ToString() << ":" << count;
  }
  out << "}  |S| = " << stats.num_counts() << "+" << stats.num_distincts();
  return out.str();
}

QueryMdp::QueryMdp(const QuerySpec& query, const Prior* prior, Options options)
    : query_(query),
      prior_(prior),
      options_(options),
      goal_(ExprSig::Of(query.AllRelations(), query.AllPredicatesMask())) {
  selection_masks_.resize(query.num_relations(), 0);
  for (int rel = 0; rel < query.num_relations(); ++rel) {
    for (int pred_id : query.SelectionPredicatesOn(rel)) {
      selection_masks_[rel] |= uint64_t{1} << pred_id;
    }
  }
  for (const UdfTerm* term : query.AllTerms()) {
    int slot = static_cast<int>(terms_.size());
    for (const TermInfo& earlier : terms_) {
      if (earlier.term_id == term->term_id) {
        slot = earlier.slot;
        break;
      }
    }
    terms_.push_back(TermInfo{term->term_id, term->rels.mask(), slot});
    if (term->term_id < 0 || term->term_id >= 64) term_ids_fit_mask_ = false;
  }
  if (term_ids_fit_mask_) {
    term_bits_on_rel_.resize(query.num_relations(), 0);
    for (const TermInfo& term : terms_) {
      all_term_bits_ |= uint64_t{1} << term.term_id;
      for (uint64_t m = term.rels; m != 0; m &= m - 1) {
        term_bits_on_rel_[__builtin_ctzll(m)] |= uint64_t{1} << term.term_id;
      }
    }
  }
}

MdpState QueryMdp::InitialState(const StatsStore& initial_stats,
                                const std::map<ExprSig, double>& base_counts) const {
  MdpState state;
  state.stats = initial_stats;
  for (const auto& [sig, count] : base_counts) {
    state.executed[sig] = count;
    state.stats.SetCount(sig, count);
  }
  return state;
}

bool QueryMdp::IsTerminal(const MdpState& state) const {
  return state.executed.count(goal_) > 0;
}

PlanNode::Ptr QueryMdp::LeafFor(const ExprSig& sig) const {
  PlanForest forest;
  return forest.Materialize(AddLeafFor(sig, &forest));
}

int32_t QueryMdp::AddLeafFor(const ExprSig& sig, PlanForest* forest) const {
  // Unapplied selections, relation by relation (each in predicate-id
  // order): the order the leaf's prior samples are drawn in.
  int unapplied[64];
  size_t n = 0;
  for (uint64_t rels = sig.rels; rels != 0; rels &= rels - 1) {
    for (uint64_t m = selection_masks_[__builtin_ctzll(rels)] & ~sig.preds; m != 0;
         m &= m - 1) {
      unapplied[n++] = __builtin_ctzll(m);
    }
  }
  return forest->AddLeaf(sig, std::span<const int>(unapplied, n));
}

ExprSig QueryMdp::LeafSigFor(const ExprSig& sig) const {
  uint64_t preds = sig.preds;
  for (uint64_t rels = sig.rels; rels != 0; rels &= rels - 1) {
    preds |= selection_masks_[__builtin_ctzll(rels)];
  }
  return ExprSig{sig.rels, preds};
}

QueryMdp::JoinSide QueryMdp::SideOf(const ExprSig& sig) const {
  RelSet rels(sig.rels);
  return JoinSide{sig, query_.PredicatesTouching(rels), query_.ComponentOf(rels).mask()};
}

std::optional<uint64_t> QueryMdp::JoinPreds(const JoinSide& a, const JoinSide& b) const {
  if ((a.sig.rels & b.sig.rels) != 0) return std::nullopt;
  // Selections never join two inputs, so a's and b's unapplied selections
  // do not change the mask: it is also the mask of their leaves' join.
  uint64_t preds =
      (a.touching & b.touching) == 0
          ? 0
          : ApplicableJoinPredMask(query_, a.sig, a.touching, b.sig, b.touching);
  if (preds != 0 || options_.allow_unconstrained_cross_products) return preds;
  // A cross product is still proposed when the query graph itself leaves
  // the two sides disconnected (it has to happen eventually); see
  // CrossProductUnavoidable.
  if ((a.component & b.sig.rels) == 0) return preds;
  return std::nullopt;
}

// Does expression `rels` have an evaluable term with unknown statistics?
// (Σ pruning.)
bool QueryMdp::StatsUnknownFor(const StatsStore& stats, RelSet rels) const {
  if (term_ids_fit_mask_) {
    // Evaluable: every term, minus those over a relation outside `rels`.
    uint64_t evaluable = all_term_bits_;
    for (uint64_t m = goal_.rels & ~rels.mask(); m != 0; m &= m - 1) {
      evaluable &= ~term_bits_on_rel_[__builtin_ctzll(m)];
    }
    return !stats.HasDistinctInfoForAll(evaluable, rels);
  }
  for (const TermInfo& term : terms_) {
    if ((term.rels & ~rels.mask()) != 0) continue;
    if (!stats.HasDistinctInfo(term.term_id, rels)) return true;
  }
  return false;
}

std::vector<MdpAction> QueryMdp::LegalActions(const MdpState& state) const {
  std::pmr::vector<MdpAction> actions;
  LegalActions(state, &actions);
  return std::vector<MdpAction>(actions.begin(), actions.end());
}

void QueryMdp::LegalActions(const MdpState& state,
                            std::pmr::vector<MdpAction>* out) const {
  std::pmr::vector<MdpAction>& actions = *out;
  actions.clear();
  if (IsTerminal(state)) return;

  const PlanForest& planned = state.planned;
  const ExecutedSet& executed = state.executed;
  bool planned_full = static_cast<int>(planned.size()) >= options_.max_planned;

  // Signatures already scheduled, to avoid duplicate plans.
  auto planned_dup = [&](const ExprSig& out_sig) {
    for (size_t i = 0; i < planned.size(); ++i) {
      if (planned.root(i).output_sig() == out_sig) return true;
    }
    return executed.count(out_sig) > 0;
  };

  // Two Σ-less planned trees with overlapping relation sets can never
  // both feed the final expression (joins require disjoint inputs), so
  // one of them would be wasted work. Join proposals whose result would
  // overlap another Σ-less planned tree are dominated and pruned.
  // Σ-topped trees are exempt: they exist to gather statistics.
  auto overlaps_planned = [&](uint64_t rels, int exclude_idx) {
    for (size_t i = 0; i < planned.size(); ++i) {
      if (static_cast<int>(i) == exclude_idx) continue;
      const PlanForestNode& root = planned.root(i);
      if (root.HasStatsCollect()) continue;
      if ((root.output_sig().rels & rels) != 0) return true;
    }
    return false;
  };

  // A Σ plan creates statistics, not a new expression, so its duplicate
  // check only looks for an identical Σ already planned (its output
  // signature may legitimately already be materialized).
  auto sigma_dup = [&](const ExprSig& out_sig) {
    for (size_t i = 0; i < planned.size(); ++i) {
      const PlanForestNode& root = planned.root(i);
      if (root.kind() == PlanNode::Kind::kStatsCollect && root.output_sig() == out_sig) {
        return true;
      }
    }
    return false;
  };

  auto push = [&](MdpAction::Type type, const ExprSig& exec_a, const ExprSig& exec_b,
                  int plan_a, int plan_b) {
    MdpAction& action = actions.emplace_back();
    action.type = type;
    action.exec_a = exec_a;
    action.exec_b = exec_b;
    action.plan_a = plan_a;
    action.plan_b = plan_b;
  };
  const ExprSig none;

  // Per R_e entry, once: its join side and its leaf's predicates. Up to 64
  // entries live on the stack.
  struct ExecutedInfo {
    JoinSide side;
    uint64_t leaf_preds;  // LeafSigFor(sig).preds
  };
  alignas(ExecutedInfo) std::byte info_buffer[64 * sizeof(ExecutedInfo)];
  std::pmr::monotonic_buffer_resource info_arena(info_buffer, sizeof(info_buffer));
  std::pmr::vector<ExecutedInfo> infos(&info_arena);
  infos.reserve(executed.size());
  for (const auto& [sig, count] : executed) {
    infos.push_back(ExecutedInfo{SideOf(sig), LeafSigFor(sig).preds});
  }

  // (1) Copy r ∈ R_e topped with Σ.
  if (!planned_full && options_.enable_stats_actions) {
    for (const ExecutedInfo& info : infos) {
      const ExprSig& sig = info.side.sig;
      if (!StatsUnknownFor(state.stats, RelSet(sig.rels))) continue;
      if (sigma_dup(ExprSig{sig.rels, info.leaf_preds})) continue;
      push(MdpAction::Type::kAddStatsPlan, sig, none, -1, -1);
    }
  }

  // (2) Top a planned expression with Σ.
  for (size_t i = 0; options_.enable_stats_actions && i < planned.size(); ++i) {
    const PlanForestNode& root = planned.root(i);
    if (root.HasStatsCollect()) continue;
    if (!StatsUnknownFor(state.stats, RelSet(root.output_sig().rels))) continue;
    push(MdpAction::Type::kTopWithStats, none, none, static_cast<int>(i), -1);
  }

  // (3) Join two materialized expressions.
  if (!planned_full) {
    for (auto it_a = infos.begin(); it_a != infos.end(); ++it_a) {
      for (auto it_b = std::next(it_a); it_b != infos.end(); ++it_b) {
        const ExprSig& a = it_a->side.sig;
        const ExprSig& b = it_b->side.sig;
        std::optional<uint64_t> join_preds = JoinPreds(it_a->side, it_b->side);
        if (!join_preds.has_value()) continue;
        if (overlaps_planned(a.rels | b.rels, -1)) continue;
        ExprSig join_sig{a.rels | b.rels,
                         it_a->leaf_preds | it_b->leaf_preds | *join_preds};
        if (planned_dup(join_sig)) continue;
        push(MdpAction::Type::kJoinExecExec, a, b, -1, -1);
      }
    }
  }

  // (4) Join two planned expressions (neither contains Σ).
  for (size_t i = 0; i < planned.size(); ++i) {
    if (planned.root(i).HasStatsCollect()) continue;
    for (size_t j = i + 1; j < planned.size(); ++j) {
      if (planned.root(j).HasStatsCollect()) continue;
      if (!JoinPreds(SideOf(planned.root(i).output_sig()),
                     SideOf(planned.root(j).output_sig()))) {
        continue;
      }
      push(MdpAction::Type::kJoinPlanPlan, none, none, static_cast<int>(i),
           static_cast<int>(j));
    }
  }

  // (5) Join a materialized expression into a planned one.
  for (size_t j = 0; j < planned.size(); ++j) {
    if (planned.root(j).HasStatsCollect()) continue;
    const JoinSide b_side = SideOf(planned.root(j).output_sig());
    const ExprSig& b = b_side.sig;
    for (const ExecutedInfo& info : infos) {
      const ExprSig& sig = info.side.sig;
      ExprSig leaf_sig{sig.rels, info.leaf_preds};
      std::optional<uint64_t> join_preds =
          JoinPreds(JoinSide{leaf_sig, info.side.touching, info.side.component}, b_side);
      if (!join_preds.has_value()) continue;
      if (overlaps_planned(sig.rels | b.rels, static_cast<int>(j))) continue;
      ExprSig join_sig{leaf_sig.rels | b.rels, leaf_sig.preds | b.preds | *join_preds};
      if (executed.count(join_sig) > 0) continue;
      bool dup = false;
      for (size_t k = 0; k < planned.size(); ++k) {
        if (k != j && planned.root(k).output_sig() == join_sig) dup = true;
      }
      if (dup) continue;
      push(MdpAction::Type::kJoinExecPlan, sig, none, static_cast<int>(j), -1);
    }
  }

  // (6) EXECUTE.
  if (!planned.empty()) push(MdpAction::Type::kExecute, none, none, -1, -1);
}

namespace {

// CardinalityModel::EstimatePlan over a flat plan tree.
StatusOr<CardinalityModel::PlanEstimate> EstimateTree(const PlanForest& forest,
                                                      const PlanForestNode& node,
                                                      CardinalityModel* model) {
  switch (node.kind()) {
    case PlanNode::Kind::kLeaf:
      return model->EstimateLeaf(node.source(), node.output_sig(), forest.preds(node));
    case PlanNode::Kind::kJoin: {
      const PlanForestNode& l = forest.left(node);
      const PlanForestNode& r = forest.right(node);
      MONSOON_ASSIGN_OR_RETURN(CardinalityModel::PlanEstimate left,
                               EstimateTree(forest, l, model));
      MONSOON_ASSIGN_OR_RETURN(CardinalityModel::PlanEstimate right,
                               EstimateTree(forest, r, model));
      return model->EstimateJoin(node.output_sig(), l.output_sig(), left, r.output_sig(),
                                 right, forest.preds(node));
    }
    case PlanNode::Kind::kStatsCollect: {
      MONSOON_ASSIGN_OR_RETURN(CardinalityModel::PlanEstimate child,
                               EstimateTree(forest, forest.left(node), model));
      // Statistics collection re-scans the materialized child output.
      return CardinalityModel::PlanEstimate{child.cost + child.cardinality,
                                            child.cardinality};
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

StatusOr<double> QueryMdp::Apply(const MdpAction& action, MdpState* state,
                                 Pcg32& rng) const {
  PlanForest& planned = state->planned;
  const int size = static_cast<int>(planned.size());
  switch (action.type) {
    case MdpAction::Type::kAddStatsPlan:
      planned.PushRoot(planned.AddStatsCollect(AddLeafFor(action.exec_a, &planned)));
      return 0.0;
    case MdpAction::Type::kTopWithStats: {
      if (action.plan_a < 0 || action.plan_a >= size) {
        return Status::InvalidArgument("bad plan index in kTopWithStats");
      }
      planned.SetRoot(action.plan_a,
                      planned.AddStatsCollect(planned.root_id(action.plan_a)));
      return 0.0;
    }
    case MdpAction::Type::kJoinExecExec: {
      int32_t la = AddLeafFor(action.exec_a, &planned);
      int32_t lb = AddLeafFor(action.exec_b, &planned);
      uint64_t preds = ApplicableJoinPredMask(query_, planned.node(la).output_sig(),
                                              planned.node(lb).output_sig());
      planned.PushRoot(planned.AddJoin(la, lb, preds));
      return 0.0;
    }
    case MdpAction::Type::kJoinPlanPlan: {
      int i = action.plan_a;
      int j = action.plan_b;
      if (i < 0 || j <= i || j >= size) {
        return Status::InvalidArgument("bad plan indices in kJoinPlanPlan");
      }
      int32_t a = planned.root_id(i);
      int32_t b = planned.root_id(j);
      uint64_t preds = ApplicableJoinPredMask(query_, planned.node(a).output_sig(),
                                              planned.node(b).output_sig());
      planned.EraseRoot(j);
      planned.EraseRoot(i);
      planned.PushRoot(planned.AddJoin(a, b, preds));
      return 0.0;
    }
    case MdpAction::Type::kJoinExecPlan: {
      int j = action.plan_a;
      if (j < 0 || j >= size) {
        return Status::InvalidArgument("bad plan index in kJoinExecPlan");
      }
      int32_t leaf = AddLeafFor(action.exec_a, &planned);
      int32_t b = planned.root_id(j);
      uint64_t preds = ApplicableJoinPredMask(query_, planned.node(leaf).output_sig(),
                                              planned.node(b).output_sig());
      planned.SetRoot(j, planned.AddJoin(leaf, b, preds));
      return 0.0;
    }
    case MdpAction::Type::kExecute: {
      if (planned.empty()) return Status::InvalidArgument("EXECUTE with empty R_p");
      double cost = 0;
      CardinalityModel::Options model_options;
      model_options.missing_policy = MissingStatPolicy::kSampleFromPrior;
      model_options.prior = prior_;
      model_options.rng = &rng;
      model_options.record_counts = true;
      CardinalityModel model(query_, &state->stats, model_options);
      for (size_t i = 0; i < planned.size(); ++i) {
        MONSOON_ASSIGN_OR_RETURN(CardinalityModel::PlanEstimate est,
                                 EstimateTree(planned, planned.root(i), &model));
        cost += est.cost;
        const PlanForestNode& root = planned.root(i);
        ExprSig sig = root.output_sig();
        state->executed[sig] = est.cardinality;
        state->stats.SetCount(sig, est.cardinality);
        if (root.kind() == PlanNode::Kind::kStatsCollect) {
          SimulateStatsCollection(sig, est.cardinality, rng, &state->stats);
        }
      }
      planned.clear();
      return cost;
    }
  }
  return Status::Internal("unknown action type");
}

// After a simulated Σ over `expr` (cardinality c_expr), harden a distinct
// count for every UDF term evaluable over it, against every "useful"
// partner: the relation set on the other side of each predicate the term
// participates in (Sec. 4.3).
void QueryMdp::SimulateStatsCollection(const ExprSig& expr, double c_expr, Pcg32& rng,
                                       StatsStore* stats) const {
  RelSet expr_rels(expr.rels);
  // Terms hardened partner-independently so far, by TermInfo::slot (at
  // most two terms per predicate, at most 64 predicates).
  std::bitset<128> seen;
  size_t position = 0;  // of the current term in terms_ (AllTerms order)
  for (const Predicate& pred : query_.predicates()) {
    const UdfTerm* terms[2] = {&pred.left,
                               pred.right.has_value() ? &*pred.right : nullptr};
    for (int side = 0; side < 2; ++side) {
      const UdfTerm* term = terms[side];
      if (term == nullptr) continue;
      const int slot = terms_[position++].slot;
      if (!expr_rels.ContainsAll(term->rels)) continue;
      const UdfTerm* other = terms[1 - side];
      if (other != nullptr && !expr_rels.ContainsAll(other->rels)) {
        // Join predicate with an external partner.
        ExprSig partner = ExprSig::Of(other->rels, 0);
        if (stats->LookupDistinct(term->term_id, expr, partner).has_value()) continue;
        double c_partner;
        if (auto known = stats->LookupCountByRels(other->rels)) {
          c_partner = *known;
        } else {
          // Partner not materialized: bound by the product of its base
          // relation sizes.
          c_partner = 1;
          for (uint64_t m = other->rels.mask(); m != 0; m &= m - 1) {
            auto base = stats->LookupCount(
                ExprSig::Of(RelSet::Single(__builtin_ctzll(m)), 0));
            c_partner *= base.value_or(1.0);
          }
        }
        double d = prior_->Sample(rng, c_expr, c_partner);
        stats->SetDistinct(term->term_id, expr, partner, d);
      } else {
        // Selection predicate, or a join predicate fully inside the
        // expression: harden a partner-independent value once.
        if (seen.test(slot)) continue;
        seen.set(slot);
        if (stats->LookupDistinct(term->term_id, expr, ExprSig::Any()).has_value()) {
          continue;
        }
        double d = prior_->Sample(rng, c_expr, c_expr);
        stats->SetDistinctObserved(term->term_id, expr, d);
      }
    }
  }
}

StatusOr<MdpState> QueryMdp::ApplyPlanAction(const MdpState& state,
                                             const MdpAction& action) const {
  if (action.IsExecute()) {
    return Status::InvalidArgument("kExecute is not a planning action");
  }
  const MdpAction applied = action;  // `action` may alias storage freed below
  MdpState next = state;
  Pcg32 unused(0);
  MONSOON_RETURN_IF_ERROR(Apply(applied, &next, unused).status());
  return next;
}

StatusOr<QueryMdp::TransitionResult> QueryMdp::SimulateExecute(const MdpState& state,
                                                               Pcg32& rng) const {
  MdpAction execute;
  execute.type = MdpAction::Type::kExecute;
  return Step(state, execute, rng);
}

StatusOr<QueryMdp::TransitionResult> QueryMdp::Step(const MdpState& state,
                                                    const MdpAction& action,
                                                    Pcg32& rng) const {
  const MdpAction applied = action;
  TransitionResult result;
  result.state = state;
  MONSOON_ASSIGN_OR_RETURN(result.cost, Apply(applied, &result.state, rng));
  return result;
}

}  // namespace monsoon
