#include "mdp/mdp.h"

#include <algorithm>
#include <bitset>
#include <memory>
#include <sstream>

#include "common/check.h"
#include "cost/cardinality.h"
#include "plan/logical_ops.h"

namespace monsoon {

namespace {

/// Cap on |R_p| to bound the branching factor.
constexpr int kMaxPlanned = 3;

}  // namespace

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
  for (const auto& [sig, count] : epoch->executed()) {
    if (!first) out << ", ";
    first = false;
    out << sig.ToString() << ":" << count;
  }
  out << "}  |S| = " << epoch->stats().num_counts() << "+"
      << epoch->stats().num_distincts();
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
  auto epoch = std::make_shared<MdpEpoch>();
  StatsStore& stats = epoch->mutable_stats();
  stats = initial_stats;
  for (const auto& [sig, count] : base_counts) {
    epoch->mutable_executed()[sig] = count;
    stats.SetCount(sig, count);
  }
  DeriveFacts(epoch.get());
  MdpState state;
  state.epoch = std::move(epoch);
  return state;
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
  if (preds != 0) return preds;
  // Joins with no connecting predicate are not proposed (the paper's
  // optimizer avoids bare cross products), except when the query graph
  // itself leaves the two sides disconnected (it has to happen
  // eventually); see CrossProductUnavoidable.
  if ((a.component & b.sig.rels) == 0) return preds;
  return std::nullopt;
}

// The Σ pruning: an evaluable term of `rels` with unknown statistics.
int QueryMdp::UnknownTermFor(const StatsStore& stats, RelSet rels) const {
  if (term_ids_fit_mask_) {
    // Evaluable: every term, minus those over a relation outside `rels`.
    uint64_t evaluable = all_term_bits_;
    for (uint64_t m = goal_.rels & ~rels.mask(); m != 0; m &= m - 1) {
      evaluable &= ~term_bits_on_rel_[__builtin_ctzll(m)];
    }
    return stats.TermWithoutDistinctInfo(evaluable, rels);
  }
  for (const TermInfo& term : terms_) {
    if ((term.rels & ~rels.mask()) != 0) continue;
    if (!stats.HasDistinctInfo(term.term_id, rels)) return term.term_id;
  }
  return -1;
}

std::vector<MdpAction> QueryMdp::LegalActions(const MdpState& state) const {
  std::pmr::vector<MdpAction> actions;
  LegalActions(state, &actions);
  return std::vector<MdpAction>(actions.begin(), actions.end());
}

void QueryMdp::DeriveFacts(MdpEpoch* epoch) const {
  using Entry = MdpEpoch::Entry;
  using Pair = MdpEpoch::Pair;
  std::pmr::vector<Entry>& entries = epoch->entries_;
  std::pmr::vector<Pair>& pairs = epoch->pairs_;
  const ExecutedSet& executed = epoch->executed_;
  const StatsStore& stats = epoch->stats_;
  epoch->stale_ = false;
  if (IsTerminal(*epoch)) {
    entries.clear();
    pairs.clear();
    return;
  }
  // R_e and S only grow (EXECUTE adds to both, and a StatsStore never drops
  // an entry), so the facts already derived for an entry still hold, but
  // for two: S may have learnt an entry's unknown term, and a pair's join
  // may have been executed since. Those two are re-tested, and the rest is
  // derived only for entries new to R_e. Up to 64 entries are tracked this
  // way; a larger R_e is derived from scratch.
  const size_t n = executed.size();
  const bool incremental = n <= 64;
  if (!incremental) {
    entries.clear();
    pairs.clear();
  }
  uint64_t is_new = 0;    // bit i: entry i is new to R_e
  uint8_t new_index[64];  // of each old entry
  // Old entries move up to their new index, back to front, so none is
  // overwritten before it is read.
  size_t old_left = entries.size();
  entries.resize(n);
  for (size_t i = n; i-- > 0;) {
    const ExprSig& sig = executed.begin()[static_cast<ptrdiff_t>(i)].first;
    if (old_left > 0 && entries[old_left - 1].side.sig == sig) {
      Entry entry = entries[--old_left];
      // A term without statistics keeps the entry Σ-unknown until S learns
      // it; only then is another one looked for.
      if (entry.unknown_term >= 0 &&
          stats.HasDistinctInfo(entry.unknown_term, RelSet(sig.rels))) {
        entry.unknown_term = UnknownTermFor(stats, RelSet(sig.rels));
      }
      entries[i] = entry;
      new_index[old_left] = static_cast<uint8_t>(i);
    } else {
      entries[i] = Entry{SideOf(sig), LeafSigFor(sig).preds,
                         options_.enable_stats_actions
                             ? UnknownTermFor(stats, RelSet(sig.rels))
                             : -1};
      if (incremental) is_new |= uint64_t{1} << i;
    }
  }
  MONSOON_DCHECK(old_left == 0) << "R_e lost an entry since its facts were derived";
  // An old pair's join can only have been executed by now if it is one of
  // the new entries.
  auto is_new_entry = [&](const ExprSig& sig) {
    for (uint64_t m = is_new; m != 0; m &= m - 1) {
      if (entries[__builtin_ctzll(m)].side.sig == sig) return true;
    }
    return false;
  };
  for (Pair& pair : pairs) {
    pair.a = new_index[pair.a];
    pair.b = new_index[pair.b];
    pair.join_executed = pair.join_executed || is_new_entry(pair.join_sig);
  }

  // The pairs in (a, b) order go after the old ones, which are in that
  // order too, and then replace them. A pair of two old entries is an old
  // pair or was rejected by JoinPreds before, so only pairs with a new
  // entry are tested: for a new `a`, every b after it; for an old `a`, the
  // new b's after it, merged by b with a's old pairs.
  const size_t old_pairs = pairs.size();
  size_t next_old = 0;
  auto add_pair = [&](uint32_t a, uint32_t b) {
    std::optional<uint64_t> join_preds = JoinPreds(entries[a].side, entries[b].side);
    if (!join_preds.has_value()) return;
    ExprSig join_sig{entries[a].side.sig.rels | entries[b].side.sig.rels,
                     entries[a].leaf_preds | entries[b].leaf_preds | *join_preds};
    pairs.push_back(Pair{a, b, join_sig, executed.count(join_sig) > 0});
  };
  for (uint32_t a = 0; a < n; ++a) {
    if (!incremental || ((is_new >> a) & 1) != 0) {
      for (uint32_t b = a + 1; b < n; ++b) add_pair(a, b);
      continue;
    }
    uint64_t new_after = is_new & ~((uint64_t{2} << a) - 1);
    for (;;) {
      const bool old_next = next_old < old_pairs && pairs[next_old].a == a;
      if (old_next && (new_after == 0 ||
                       pairs[next_old].b < static_cast<uint32_t>(__builtin_ctzll(new_after)))) {
        const Pair old = pairs[next_old++];
        pairs.push_back(old);
      } else if (new_after != 0) {
        add_pair(a, static_cast<uint32_t>(__builtin_ctzll(new_after)));
        new_after &= new_after - 1;
      } else {
        break;
      }
    }
  }
  MONSOON_DCHECK(next_old == old_pairs) << "an old pair was not met in order";
  pairs.erase(pairs.begin(), pairs.begin() + static_cast<ptrdiff_t>(old_pairs));
}

void QueryMdp::LegalActions(const MdpState& state,
                            std::pmr::vector<MdpAction>* out) const {
  std::pmr::vector<MdpAction>& actions = *out;
  actions.clear();
  const MdpEpoch& epoch = *state.epoch;
  if (IsTerminal(epoch)) return;
  MONSOON_DCHECK(!epoch.stale()) << "LegalActions on an epoch with stale facts";

  const PlanForest& planned = state.planned;
  const ExecutedSet& executed = epoch.executed();
  std::span<const MdpEpoch::Entry> entries = epoch.entries();
  bool planned_full = static_cast<int>(planned.size()) >= kMaxPlanned;

  // A planned tree with this output signature (excluding tree `exclude_idx`).
  auto planned_has = [&](const ExprSig& out_sig, int exclude_idx) {
    for (size_t i = 0; i < planned.size(); ++i) {
      if (static_cast<int>(i) != exclude_idx && planned.root(i).output_sig() == out_sig) {
        return true;
      }
    }
    return false;
  };

  // Two Σ-less planned trees with overlapping relation sets can never
  // both feed the final expression (joins require disjoint inputs), so
  // one of them would be wasted work. Join proposals whose result would
  // overlap another Σ-less planned tree are dominated and pruned.
  // Σ-topped trees are exempt: they exist to gather statistics. These are
  // the relations of the Σ-less trees but tree `exclude_idx`.
  auto plain_rels_except = [&](int exclude_idx) {
    uint64_t rels = 0;
    for (size_t i = 0; i < planned.size(); ++i) {
      const PlanForestNode& root = planned.root(i);
      if (static_cast<int>(i) != exclude_idx && !root.HasStatsCollect()) {
        rels |= root.output_sig().rels;
      }
    }
    return rels;
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

  // (1) Copy r ∈ R_e topped with Σ.
  if (!planned_full) {
    for (const MdpEpoch::Entry& entry : entries) {
      if (entry.unknown_term < 0) continue;
      const ExprSig& sig = entry.side.sig;
      if (sigma_dup(ExprSig{sig.rels, entry.leaf_preds})) continue;
      push(MdpAction::Type::kAddStatsPlan, sig, none, -1, -1);
    }
  }

  // (2) Top a planned expression with Σ.
  for (size_t i = 0; options_.enable_stats_actions && i < planned.size(); ++i) {
    const PlanForestNode& root = planned.root(i);
    if (root.HasStatsCollect()) continue;
    if (UnknownTermFor(epoch.stats(), RelSet(root.output_sig().rels)) < 0) continue;
    push(MdpAction::Type::kTopWithStats, none, none, static_cast<int>(i), -1);
  }

  // (3) Join two materialized expressions.
  if (!planned_full) {
    const uint64_t plain_rels = plain_rels_except(-1);
    for (const MdpEpoch::Pair& pair : epoch.pairs()) {
      if ((pair.join_sig.rels & plain_rels) != 0) continue;
      if (pair.join_executed || planned_has(pair.join_sig, -1)) continue;
      push(MdpAction::Type::kJoinExecExec, entries[pair.a].side.sig,
           entries[pair.b].side.sig, -1, -1);
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
    const uint64_t other_plain_rels = plain_rels_except(static_cast<int>(j));
    for (const MdpEpoch::Entry& entry : entries) {
      const ExprSig& sig = entry.side.sig;
      ExprSig leaf_sig{sig.rels, entry.leaf_preds};
      std::optional<uint64_t> join_preds =
          JoinPreds(JoinSide{leaf_sig, entry.side.touching, entry.side.component}, b_side);
      if (!join_preds.has_value()) continue;
      if (((sig.rels | b.rels) & other_plain_rels) != 0) continue;
      ExprSig join_sig{leaf_sig.rels | b.rels, leaf_sig.preds | b.preds | *join_preds};
      if (executed.count(join_sig) > 0) continue;
      if (planned_has(join_sig, static_cast<int>(j))) continue;
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
      auto next = std::make_shared<MdpEpoch>(*state->epoch);
      MONSOON_ASSIGN_OR_RETURN(double cost, Execute(planned, next.get(), rng));
      DeriveFacts(next.get());
      state->epoch = std::move(next);
      planned.clear();
      return cost;
    }
  }
  return Status::Internal("unknown action type");
}

StatusOr<double> QueryMdp::Execute(const PlanForest& planned, MdpEpoch* epoch,
                                   Pcg32& rng) const {
  if (planned.empty()) return Status::InvalidArgument("EXECUTE with empty R_p");
  StatsStore& stats = epoch->mutable_stats();
  ExecutedSet& executed = epoch->mutable_executed();
  double cost = 0;
  CardinalityModel::Options model_options;
  model_options.missing_policy = MissingStatPolicy::kSampleFromPrior;
  model_options.prior = prior_;
  model_options.rng = &rng;
  model_options.record_counts = true;
  CardinalityModel model(query_, &stats, model_options);
  for (size_t i = 0; i < planned.size(); ++i) {
    const PlanForestNode& root = planned.root(i);
    MONSOON_ASSIGN_OR_RETURN(CardinalityModel::PlanEstimate est,
                             EstimateTree(planned, root, &model));
    cost += est.cost;
    ExprSig sig = root.output_sig();
    executed[sig] = est.cardinality;
    // The estimate found c(sig) in S or recorded it there (record_counts).
    MONSOON_DCHECK(stats.LookupCount(sig) == est.cardinality);
    if (root.kind() == PlanNode::Kind::kStatsCollect) {
      SimulateStatsCollection(sig, est.cardinality, rng, &stats);
    }
  }
  return cost;
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
