#ifndef MONSOON_MCTS_MCTS_H_
#define MONSOON_MCTS_MCTS_H_

#include <cstdint>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "fault/cancellation.h"
#include "mdp/mdp.h"

namespace monsoon {

/// Child-selection strategies from Sec. 5.1.
enum class SelectionStrategy {
  /// Upper Confidence bounds applied to Trees (Kocsis & Szepesvári):
  /// pick argmax over  r̄_c + w · sqrt(log(v_p) / v_c)  with rewards
  /// normalized to [0, 1] using the running min/max return at the root.
  kUct,
  /// ε-greedy with adaptively decreasing ε (Tokic-style schedule): start
  /// fully exploratory (ε = 1), decay with iteration count, floor at 0.1.
  kEpsilonGreedy,
};

const char* SelectionStrategyToString(SelectionStrategy strategy);

/// Monte-Carlo tree search over the QueryMdp. Online planner: call
/// SearchBestAction from the current real-world state before every action,
/// as Sec. 5.1 describes (selection → expansion → simulation →
/// backpropagation, then commit the highest-value root action).
class MctsSearch {
 public:
  struct Options {
    SelectionStrategy strategy = SelectionStrategy::kUct;
    /// Rollouts per decision.
    int iterations = 400;
    /// UCT exploration weight w (the paper uses sqrt(2)).
    double uct_weight = 1.4142135623730951;
    uint64_t seed = 0xf00d;
    /// When non-null, polled once per iteration: a tripped token aborts
    /// the search with its Cancelled / DeadlineExceeded status. Root-
    /// parallel workers share the query's token, so a deadline (or a
    /// failing sibling) stops every worker at its next rollout boundary.
    /// Not owned.
    fault::CancellationToken* cancel_token = nullptr;
  };

  /// Per-root-action statistics after a search (for tests, diagnostics
  /// and the example MDP walk-through).
  struct RootEdgeInfo {
    MdpAction action;
    int visits = 0;
    double mean_return = 0;
  };

  struct SearchInfo {
    int iterations_run = 0;
    size_t tree_nodes = 0;
    /// Deepest selection descent of any iteration.
    int max_depth = 0;
    double best_mean_return = 0;
    int best_visits = 0;
    /// Simulated EXECUTE outcomes, each a new epoch (R_e, S and their
    /// facts), and LegalActions calls; every call between two EXECUTEs
    /// reads one epoch's facts, so their ratio is the reuse epochs buy.
    uint64_t epochs = 0;
    uint64_t legal_action_calls = 0;
    std::vector<RootEdgeInfo> root_edges;
  };

  MctsSearch(const QueryMdp* mdp, Options options);
  ~MctsSearch();

  MctsSearch(const MctsSearch&) = delete;
  MctsSearch& operator=(const MctsSearch&) = delete;

  /// Runs the configured number of rollouts from `root` and returns the
  /// action with the most visits. Fails if the state is terminal or has
  /// no legal action.
  StatusOr<MdpAction> SearchBestAction(const MdpState& root);

  const SearchInfo& last_info() const { return info_; }

 private:
  struct Node;
  struct Edge;

  Status RunIteration(Node* root);
  /// Plays random-but-biased actions from `from` to a terminal state, in
  /// scratch_; returns the total cost accumulated.
  StatusOr<double> Rollout(const MdpState& from);
  /// Simulates EXECUTE of `planned` over `epoch` into scratch_epoch_
  /// (which `epoch` may be); returns its cost. Leaves the facts stale.
  StatusOr<double> ExecuteIntoScratch(const PlanForest& planned, const MdpEpoch& epoch);
  double NormalizeReturn(double ret) const;
  size_t SelectEdge(const Node& node);
  /// A tree node in tree_arena_ holding a copy of `planned` over `epoch`,
  /// which it borrows; call Expand once the state is final.
  Node* NewNode(const PlanForest& planned, const MdpEpoch* epoch, uint64_t key);
  /// The child for the EXECUTE outcome in scratch_epoch_: its facts are
  /// derived and the epoch copied into tree_arena_ for the child to own.
  Node* NewExecuteChild(uint64_t key);
  /// Marks `node` terminal or fills its untried actions.
  void Expand(Node* node);

  const QueryMdp* mdp_;
  Options options_;
  Pcg32 rng_;
  SearchInfo info_;
  // Running bounds on observed returns, for UCT normalization.
  double min_return_ = 0;
  double max_return_ = 0;
  bool bounds_init_ = false;
  int iteration_ = 0;
  // Per-search memory (DESIGN.md §16). Tree nodes, their edges, forests
  // and the epochs of EXECUTE children live in tree_arena_ and are dropped
  // together when the next search starts. A planning child borrows its
  // parent's epoch. scratch_ is the one state that rollouts transition in
  // place, and scratch_epoch_ the one mutable epoch that simulated
  // EXECUTEs write; their pool recycles memory across iterations.
  std::pmr::monotonic_buffer_resource tree_arena_;
  std::pmr::unsynchronized_pool_resource scratch_pool_;
  MdpState scratch_;
  MdpEpoch scratch_epoch_;
  std::pmr::vector<MdpAction> actions_;  // legal actions, reused per step
  std::vector<std::pair<Node*, size_t>> path_;
  Node* root_ = nullptr;
  size_t tree_nodes_ = 0;
};

}  // namespace monsoon

#endif  // MONSOON_MCTS_MCTS_H_
