#ifndef MONSOON_MDP_MDP_H_
#define MONSOON_MDP_MDP_H_

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "catalog/stats_store.h"
#include "common/random.h"
#include "common/status.h"
#include "plan/plan_node.h"
#include "priors/prior.h"
#include "query/query_spec.h"

namespace monsoon {

/// One action of the query-optimization MDP (Sec. 4.2).
struct MdpAction {
  enum class Type {
    /// Copy r from R_e into R_p, topped with Σ (statistics collection).
    kAddStatsPlan,
    /// Replace r ∈ R_p with Σ(r): materialize it AND collect statistics.
    kTopWithStats,
    /// Join two materialized expressions: add (r1 ⋈ r2) to R_p.
    kJoinExecExec,
    /// Join two planned expressions: replace both with (r1 ⋈ r2).
    kJoinPlanPlan,
    /// Join a materialized expression into a planned one.
    kJoinExecPlan,
    /// Execute and materialize everything in R_p (the stochastic action).
    kExecute,
  };

  Type type = Type::kExecute;
  ExprSig exec_a;      // kAddStatsPlan / kJoinExecExec / kJoinExecPlan
  ExprSig exec_b;      // kJoinExecExec
  int plan_a = -1;     // kTopWithStats / kJoinPlanPlan / kJoinExecPlan
  int plan_b = -1;     // kJoinPlanPlan

  bool IsExecute() const { return type == Type::kExecute; }

  /// Structural identity; root-parallel MCTS merges per-worker root edges
  /// by this.
  bool operator==(const MdpAction& other) const {
    return type == other.type && exec_a == other.exec_a &&
           exec_b == other.exec_b && plan_a == other.plan_a &&
           plan_b == other.plan_b;
  }
  bool operator!=(const MdpAction& other) const { return !(*this == other); }

  std::string ToString(const QuerySpec& query) const;
};

/// One node of a flat plan forest. Children are indices into the same
/// forest; selection / join predicate ids live in the forest's id pool.
class PlanForestNode {
 public:
  PlanNode::Kind kind() const { return kind_; }
  const ExprSig& output_sig() const { return output_; }
  const ExprSig& source() const { return source_; }  // kLeaf only
  bool HasStatsCollect() const { return has_stats_; }

 private:
  friend class PlanForest;

  PlanNode::Kind kind_ = PlanNode::Kind::kLeaf;
  bool has_stats_ = false;  // a Σ anywhere in the subtree
  int32_t left_ = -1;       // kJoin: left child; kStatsCollect: child
  int32_t right_ = -1;      // kJoin: right child
  uint32_t pred_begin_ = 0;
  uint32_t pred_count_ = 0;
  ExprSig source_;
  ExprSig output_;
};

/// R_p: the planned trees, stored flat. Every node of every tree lives in
/// one pool owned by the forest, so copying a state copies a few small
/// arrays and no tree is shared between states. Nodes are only appended
/// (a join or Σ references the roots it replaces), and EXECUTE clears the
/// whole forest, so the pool never holds garbage.
class PlanForest {
 public:
  using allocator_type = std::pmr::polymorphic_allocator<std::byte>;

  /// A planned tree as `state.planned[i]`: `->` reaches its root node, and
  /// it converts implicitly to an immutable PlanNode tree (built on
  /// demand), so callers that take a PlanNode::Ptr accept it as before.
  class Ref {
   public:
    Ref(const PlanForest* forest, int32_t node) : forest_(forest), node_(node) {}
    const PlanForestNode* operator->() const { return &forest_->node(node_); }
    operator PlanNode::Ptr() const { return forest_->Materialize(node_); }

   private:
    const PlanForest* forest_;
    int32_t node_;
  };

  PlanForest() = default;
  explicit PlanForest(allocator_type alloc)
      : nodes_(alloc), pred_ids_(alloc), roots_(alloc) {}
  PlanForest(const PlanForest& other, allocator_type alloc)
      : nodes_(other.nodes_, alloc),
        pred_ids_(other.pred_ids_, alloc),
        roots_(other.roots_, alloc) {}

  size_t size() const { return roots_.size(); }
  bool empty() const { return roots_.empty(); }
  Ref operator[](size_t i) const { return Ref(this, roots_[i]); }
  /// Root node of planned tree i.
  const PlanForestNode& root(size_t i) const { return nodes_[roots_[i]]; }
  int32_t root_id(size_t i) const { return roots_[i]; }
  const PlanForestNode& node(int32_t id) const { return nodes_[id]; }
  const PlanForestNode& left(const PlanForestNode& n) const { return nodes_[n.left_]; }
  const PlanForestNode& right(const PlanForestNode& n) const { return nodes_[n.right_]; }
  std::span<const int> preds(const PlanForestNode& n) const {
    return {pred_ids_.data() + n.pred_begin_, n.pred_count_};
  }

  /// Node builders; each returns the new node's id. `preds` is applied in
  /// the order given (it fixes the order prior samples are drawn in).
  int32_t AddLeaf(const ExprSig& source, std::span<const int> preds);
  int32_t AddJoin(int32_t left, int32_t right, uint64_t pred_mask);
  int32_t AddStatsCollect(int32_t child);

  void PushRoot(int32_t id) { roots_.push_back(id); }
  void SetRoot(size_t i, int32_t id) { roots_[i] = id; }
  void EraseRoot(size_t i) { roots_.erase(roots_.begin() + static_cast<ptrdiff_t>(i)); }
  void clear();

  /// The immutable PlanNode tree rooted at `id` (what the executor runs).
  PlanNode::Ptr Materialize(int32_t id) const;

 private:
  int32_t Append(PlanForestNode node);

  std::pmr::vector<PlanForestNode> nodes_;
  std::pmr::vector<int> pred_ids_;
  std::pmr::vector<int32_t> roots_;
};

/// R_e: materialized expressions with their known cardinality c(r), kept
/// sorted by ExprSig. The order is the one std::map gave, and it fixes the
/// order LegalActions enumerates actions in.
class ExecutedSet {
 public:
  using value_type = std::pair<ExprSig, double>;
  using allocator_type = std::pmr::polymorphic_allocator<std::byte>;
  using const_iterator = std::pmr::vector<value_type>::const_iterator;

  ExecutedSet() = default;
  explicit ExecutedSet(allocator_type alloc) : entries_(alloc) {}
  ExecutedSet(const ExecutedSet& other, allocator_type alloc)
      : entries_(other.entries_, alloc) {}

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t count(const ExprSig& sig) const;
  /// The cardinality slot for `sig`, inserted (as 0) if absent.
  double& operator[](const ExprSig& sig);

 private:
  std::pmr::vector<value_type> entries_;
};

/// An epoch of the MDP: R_e and S, which only EXECUTE changes (Sec. 4.3),
/// and the facts LegalActions derives from them. Planning actions touch
/// R_p alone, so every state between two EXECUTEs shares one epoch and
/// reads these facts instead of re-deriving them at each step.
///
/// Shared epochs are immutable (MdpState holds them as `const`). A
/// private copy may be changed through the mutable_ accessors, which mark
/// the facts stale until QueryMdp::DeriveFacts rebuilds them; LegalActions
/// checks that they are fresh. Changes may only add to R_e and S, as
/// EXECUTE does: DeriveFacts keeps what it derived for the old entries.
class MdpEpoch {
 public:
  using allocator_type = std::pmr::polymorphic_allocator<std::byte>;

  /// What a join test (QueryMdp::JoinPreds) reads of one input.
  struct JoinSide {
    ExprSig sig;
    uint64_t touching;   // QuerySpec::PredicatesTouching(sig.rels)
    uint64_t component;  // QuerySpec::ComponentOf(sig.rels)
  };
  /// One R_e entry's facts, in R_e order.
  struct Entry {
    JoinSide side;        // of the entry's signature
    uint64_t leaf_preds;  // QueryMdp::LeafSigFor(sig).preds
    /// A term evaluable over the entry with no statistics yet, or -1. The
    /// Σ pruning offers Σ over the entry only while there is one
    /// (QueryMdp::UnknownTermFor).
    int unknown_term;
  };
  /// Two R_e entries that JoinPreds lets join, `a` before `b` in R_e order.
  struct Pair {
    uint32_t a;
    uint32_t b;
    ExprSig join_sig;    // the join of their leaves
    bool join_executed;  // join_sig is in R_e
  };

  MdpEpoch() = default;
  explicit MdpEpoch(allocator_type alloc)
      : executed_(alloc), stats_(alloc), entries_(alloc), pairs_(alloc) {}
  MdpEpoch(const MdpEpoch& other, allocator_type alloc)
      : executed_(other.executed_, alloc),
        stats_(other.stats_, alloc),
        entries_(other.entries_, alloc),
        pairs_(other.pairs_, alloc),
        stale_(other.stale_) {}

  const ExecutedSet& executed() const { return executed_; }  // R_e with c(r)
  const StatsStore& stats() const { return stats_; }         // S
  ExecutedSet& mutable_executed() {
    stale_ = true;
    return executed_;
  }
  StatsStore& mutable_stats() {
    stale_ = true;
    return stats_;
  }

  std::span<const Entry> entries() const { return entries_; }
  std::span<const Pair> pairs() const { return pairs_; }
  /// R_e or S changed since the facts were derived.
  bool stale() const { return stale_; }

 private:
  friend class QueryMdp;

  ExecutedSet executed_;
  StatsStore stats_;
  std::pmr::vector<Entry> entries_;
  std::pmr::vector<Pair> pairs_;
  bool stale_ = true;
};

/// The MDP state (Sec. 4.1): the planned expressions R_p and the epoch
/// (R_e, S and their derived facts). A planning action changes only
/// `planned`; EXECUTE replaces `epoch`. Copying a state copies the flat
/// forest and one pointer, and states between two EXECUTEs share their
/// epoch. `planned` is allocator-aware, so MCTS keeps its states in
/// per-search arenas and transitions them in place; the tree borrows its
/// epochs (DESIGN.md §16).
struct MdpState {
  using allocator_type = std::pmr::polymorphic_allocator<std::byte>;

  MdpState() = default;
  explicit MdpState(allocator_type alloc) : planned(alloc) {}
  /// A state of `forest` (copied into `alloc`) over `shared`.
  MdpState(const PlanForest& forest, std::shared_ptr<const MdpEpoch> shared,
           allocator_type alloc = {})
      : planned(forest, alloc), epoch(std::move(shared)) {}

  PlanForest planned;  // R_p
  /// R_e, S and their facts. Inside an MctsSearch this pointer may not own
  /// its epoch: tree nodes and the scratch state borrow epochs that the
  /// search's arenas, or the caller's root state, keep alive. A state taken
  /// from the search's tree must not outlive that search (its next
  /// SearchBestAction or its destruction); copy what it needs out first.
  std::shared_ptr<const MdpEpoch> epoch;

  std::string ToString(const QuerySpec& query) const;
};

/// The query-optimization MDP: action enumeration, deterministic planning
/// transitions, and the stochastic EXECUTE transition simulated by
/// sampling unknown statistics from the prior (Sec. 4.3). This object is
/// the "simulator" MCTS plans against; the Monsoon driver mirrors EXECUTE
/// in the real world through the Executor and builds the next epoch from
/// what it observed, through DeriveFacts like a simulated one.
class QueryMdp {
 public:
  struct Options {
    /// Offer the Σ actions. Disabling them ablates Monsoon down to a
    /// prior-guided guess-and-execute optimizer (bench_ablation_monsoon
    /// measures what the statistics-collection actions are worth).
    bool enable_stats_actions = true;
  };

  QueryMdp(const QuerySpec& query, const Prior* prior, Options options);

  /// The start state: R_p empty, R_e = base relations with their sizes,
  /// S = `initial_stats` plus those sizes.
  MdpState InitialState(const StatsStore& initial_stats,
                        const std::map<ExprSig, double>& base_counts) const;

  /// Terminal once R_e contains the full query result (every relation,
  /// every predicate applied).
  bool IsTerminal(const MdpState& state) const { return IsTerminal(*state.epoch); }
  bool IsTerminal(const MdpEpoch& epoch) const {
    // No expression of the query sorts after the goal, which has every
    // relation and every predicate, so R_e can hold it only last.
    const ExecutedSet& executed = epoch.executed();
    return !executed.empty() && std::prev(executed.end())->first == goal_;
  }

  /// Legal actions with the pruning described in DESIGN.md (Σ only where
  /// statistics are still unknown, joins only between connected,
  /// non-overlapping expressions, no duplicate expressions). The first
  /// form fills `out` (cleared first), reusing its capacity. The epoch's
  /// facts must be fresh.
  void LegalActions(const MdpState& state, std::pmr::vector<MdpAction>* out) const;
  std::vector<MdpAction> LegalActions(const MdpState& state) const;

  /// Applies any action to `state` in place and returns its cost:
  /// planning actions change R_p and cost 0; EXECUTE gives the state a
  /// new epoch (see Execute) and clears R_p. On error `state` may be
  /// partially updated.
  StatusOr<double> Apply(const MdpAction& action, MdpState* state, Pcg32& rng) const;

  /// Simulates EXECUTE of `planned` into `epoch`, in place: hardens
  /// statistics by sampling the prior, computes the objects processed
  /// (Sec. 4.4), which it returns, and adds R_p's roots to R_e. It leaves
  /// the facts stale; call DeriveFacts before LegalActions reads them.
  StatusOr<double> Execute(const PlanForest& planned, MdpEpoch* epoch, Pcg32& rng) const;

  /// Rebuilds `epoch`'s facts from its R_e and S. A terminal epoch has no
  /// legal actions, so its facts are left empty.
  void DeriveFacts(MdpEpoch* epoch) const;

  /// Applies a deterministic planning action to a copy. Fails on kExecute.
  StatusOr<MdpState> ApplyPlanAction(const MdpState& state,
                                     const MdpAction& action) const;

  struct TransitionResult {
    MdpState state;
    /// Objects processed (Sec. 4.4). Reward = -cost.
    double cost = 0;
  };

  /// Simulates EXECUTE on a copy of `state` (see Apply).
  StatusOr<TransitionResult> SimulateExecute(const MdpState& state, Pcg32& rng) const;

  /// Applies any action to a copy of `state` (see Apply).
  StatusOr<TransitionResult> Step(const MdpState& state, const MdpAction& action,
                                  Pcg32& rng) const;

  const QuerySpec& query() const { return query_; }
  const Prior* prior() const { return prior_; }
  const Options& options() const { return options_; }

  /// The signature of the completed query.
  ExprSig GoalSig() const { return goal_; }

  /// Builds the leaf plan for joining `sig` (a member of R_e), applying
  /// any still-unapplied selection predicates over its relations.
  PlanNode::Ptr LeafFor(const ExprSig& sig) const;

  /// Output signature of LeafFor, computed without building a plan.
  ExprSig LeafSigFor(const ExprSig& sig) const;

 private:
  // A UDF term reduced to what the Σ pruning and Σ simulation test.
  struct TermInfo {
    int term_id;
    uint64_t rels;
    int slot;  // index in terms_ of the first term with this term_id
  };

  using JoinSide = MdpEpoch::JoinSide;
  JoinSide SideOf(const ExprSig& sig) const;

  /// The predicates a join of `a` and `b` would apply, or nullopt when the
  /// join is not proposed (overlapping inputs, or an avoidable cross
  /// product).
  std::optional<uint64_t> JoinPreds(const JoinSide& a, const JoinSide& b) const;
  /// A UDF term evaluable over `rels` whose statistics S does not hold
  /// (Σ over `rels` would learn it), or -1 when there is none.
  int UnknownTermFor(const StatsStore& stats, RelSet rels) const;
  /// Adds LeafFor(sig) to `forest`; returns its node id.
  int32_t AddLeafFor(const ExprSig& sig, PlanForest* forest) const;
  void SimulateStatsCollection(const ExprSig& expr, double c_expr, Pcg32& rng,
                               StatsStore* stats) const;

  const QuerySpec& query_;
  const Prior* prior_;
  Options options_;
  // Query-constant facts, computed once in the constructor.
  ExprSig goal_;
  std::vector<uint64_t> selection_masks_;  // per relation: selection pred ids
  std::vector<TermInfo> terms_;            // QuerySpec::AllTerms() order
  // When every term id is in [0, 64), the Σ pruning tests all evaluable
  // terms in one StatsStore::TermWithoutDistinctInfo pass, from the ids of
  // all terms and, per relation, of the terms over it.
  bool term_ids_fit_mask_ = true;
  uint64_t all_term_bits_ = 0;
  std::vector<uint64_t> term_bits_on_rel_;
};

}  // namespace monsoon

#endif  // MONSOON_MDP_MDP_H_
