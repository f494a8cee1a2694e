#include "mcts/mcts.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace monsoon {

const char* SelectionStrategyToString(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kUct:
      return "UCT";
    case SelectionStrategy::kEpsilonGreedy:
      return "eps-greedy";
  }
  return "?";
}

struct MctsSearch::Edge {
  MdpAction action;
  int visits = 0;
  double total_return = 0;
  // Deterministic actions have a single child keyed 0; EXECUTE children
  // are keyed by the fingerprint of the hardened statistics (chance
  // outcomes). Children are chained through Node::next_sibling.
  Node* children = nullptr;

  double MeanReturn() const { return visits > 0 ? total_return / visits : 0; }
  Node* FindChild(uint64_t key) const;
};

struct MctsSearch::Node {
  Node(const PlanForest& planned, std::shared_ptr<const MdpEpoch> epoch,
       uint64_t child_key, MdpState::allocator_type alloc)
      : state(planned, std::move(epoch), alloc),
        untried(alloc),
        edges(alloc),
        key(child_key) {}

  MdpState state;  // its epoch is borrowed (see Borrow)
  bool terminal = false;
  std::pmr::vector<MdpAction> untried;
  std::pmr::vector<Edge> edges;
  int visits = 0;
  uint64_t key;                  // outcome key under the parent edge
  Node* next_sibling = nullptr;  // next outcome of the parent edge
};

MctsSearch::Node* MctsSearch::Edge::FindChild(uint64_t key) const {
  for (Node* child = children; child != nullptr; child = child->next_sibling) {
    if (child->key == key) return child;
  }
  return nullptr;
}

namespace {

// Largest block the scratch pool serves itself; bigger requests (bucket
// arrays of very large statistics stores) go to the heap.
std::pmr::pool_options ScratchPoolOptions() {
  std::pmr::pool_options options;
  options.largest_required_pool_block = size_t{1} << 16;
  return options;
}

// A handle on `epoch` that does not own it (an aliasing shared_ptr with no
// control block), so copying it touches no reference count. The tree and
// scratch_ borrow epochs that the caller's root state, tree_arena_ or
// scratch_epoch_ keep alive for the whole search.
std::shared_ptr<const MdpEpoch> Borrow(const MdpEpoch* epoch) {
  return std::shared_ptr<const MdpEpoch>(std::shared_ptr<const MdpEpoch>(), epoch);
}

}  // namespace

MctsSearch::MctsSearch(const QueryMdp* mdp, Options options)
    : mdp_(mdp),
      options_(options),
      rng_(options.seed),
      tree_arena_(size_t{1} << 16),
      scratch_pool_(ScratchPoolOptions()),
      scratch_(&scratch_pool_),
      scratch_epoch_(&scratch_pool_) {}

MctsSearch::~MctsSearch() = default;

// Nodes are never destroyed one by one: everything they own lives in
// tree_arena_, whose release() frees it all at once.
MctsSearch::Node* MctsSearch::NewNode(const PlanForest& planned, const MdpEpoch* epoch,
                                      uint64_t key) {
  std::pmr::polymorphic_allocator<std::byte> alloc(&tree_arena_);
  ++tree_nodes_;
  return alloc.new_object<Node>(planned, Borrow(epoch), key, alloc);
}

MctsSearch::Node* MctsSearch::NewExecuteChild(uint64_t key) {
  mdp_->DeriveFacts(&scratch_epoch_);
  std::pmr::polymorphic_allocator<std::byte> alloc(&tree_arena_);
  const MdpEpoch* epoch = alloc.new_object<MdpEpoch>(scratch_epoch_);
  return NewNode(PlanForest(), epoch, key);
}

StatusOr<double> MctsSearch::ExecuteIntoScratch(const PlanForest& planned,
                                                const MdpEpoch& epoch) {
  if (&epoch != &scratch_epoch_) scratch_epoch_ = epoch;
  ++info_.epochs;
  return mdp_->Execute(planned, &scratch_epoch_, rng_);
}

void MctsSearch::Expand(Node* node) {
  node->terminal = mdp_->IsTerminal(node->state);
  if (node->terminal) return;
  ++info_.legal_action_calls;
  mdp_->LegalActions(node->state, &actions_);
  node->untried.assign(actions_.begin(), actions_.end());
  node->edges.reserve(actions_.size());  // edges never reallocate
}

namespace {

/// Safety bound on rollout length; rollouts that fail to reach a terminal
/// state are scored with the worst return seen so far.
constexpr int kMaxRolloutDepth = 96;
/// ε-greedy floor.
constexpr double kEpsilonMin = 0.1;

// Weighted rollout-policy choice: joins are preferred over statistics
// collection, and EXECUTE fires often enough to keep rollouts short.
int RolloutWeight(const MdpAction& action) {
  switch (action.type) {
    case MdpAction::Type::kExecute:
      return 4;
    case MdpAction::Type::kJoinExecExec:
    case MdpAction::Type::kJoinPlanPlan:
    case MdpAction::Type::kJoinExecPlan:
      return 3;
    case MdpAction::Type::kAddStatsPlan:
    case MdpAction::Type::kTopWithStats:
      return 1;
  }
  return 1;
}

}  // namespace

StatusOr<double> MctsSearch::Rollout(const MdpState& from) {
  scratch_ = from;
  double cost = 0;
  for (int depth = 0; depth < kMaxRolloutDepth; ++depth) {
    if (mdp_->IsTerminal(scratch_)) return cost;
    ++info_.legal_action_calls;
    mdp_->LegalActions(scratch_, &actions_);
    if (actions_.empty()) {
      return Status::Internal("rollout reached a dead-end non-terminal state");
    }
    int total_weight = 0;
    for (const auto& action : actions_) total_weight += RolloutWeight(action);
    int pick = static_cast<int>(rng_.NextBounded(static_cast<uint32_t>(total_weight)));
    const MdpAction* chosen = &actions_.back();
    for (const auto& action : actions_) {
      pick -= RolloutWeight(action);
      if (pick < 0) {
        chosen = &action;
        break;
      }
    }
    double step_cost = 0;
    if (chosen->IsExecute()) {
      // The first EXECUTE copies the borrowed epoch into scratch_epoch_;
      // later ones update it in place.
      MONSOON_ASSIGN_OR_RETURN(step_cost,
                               ExecuteIntoScratch(scratch_.planned, *scratch_.epoch));
      scratch_.planned.clear();
      scratch_.epoch = Borrow(&scratch_epoch_);
      mdp_->DeriveFacts(&scratch_epoch_);
    } else {
      MONSOON_ASSIGN_OR_RETURN(step_cost, mdp_->Apply(*chosen, &scratch_, rng_));
    }
    cost += step_cost;
  }
  // Depth exhausted: score as the worst return observed so far (a strong
  // discouragement without poisoning the normalization bounds).
  double worst_cost = bounds_init_ ? -min_return_ : cost;
  return std::max(cost, worst_cost) * 2 + 1;
}

double MctsSearch::NormalizeReturn(double ret) const {
  if (!bounds_init_ || max_return_ <= min_return_) return 0.5;
  double x = (ret - min_return_) / (max_return_ - min_return_);
  return std::min(1.0, std::max(0.0, x));
}

size_t MctsSearch::SelectEdge(const Node& node) {
  if (options_.strategy == SelectionStrategy::kUct) {
    double best_score = -std::numeric_limits<double>::infinity();
    size_t best = 0;
    for (size_t i = 0; i < node.edges.size(); ++i) {
      const Edge& edge = node.edges[i];
      double exploit = NormalizeReturn(edge.MeanReturn());
      double explore = options_.uct_weight *
                       std::sqrt(std::log(std::max(1, node.visits)) /
                                 std::max(1, edge.visits));
      double score = exploit + explore;
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    return best;
  }
  // Adaptive ε-greedy: ε decays linearly from 1 to the floor.
  double frac = options_.iterations > 0
                    ? static_cast<double>(iteration_) / options_.iterations
                    : 1.0;
  double epsilon = std::max(kEpsilonMin, 1.0 - frac);
  if (rng_.NextDouble() < epsilon) {
    return rng_.NextBounded(static_cast<uint32_t>(node.edges.size()));
  }
  size_t best = 0;
  double best_mean = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.edges.size(); ++i) {
    double mean = node.edges[i].MeanReturn();
    if (mean > best_mean) {
      best_mean = mean;
      best = i;
    }
  }
  return best;
}

Status MctsSearch::RunIteration(Node* root) {
  // Path of (node, edge index) pairs traversed this iteration.
  path_.clear();
  Node* node = root;
  double path_cost = 0;
  double rollout_cost = 0;
  int depth = 0;

  for (;;) {
    if (node->terminal) break;

    if (!node->untried.empty()) {
      // Expansion: take one untried action.
      size_t pick = rng_.NextBounded(static_cast<uint32_t>(node->untried.size()));
      MdpAction action = node->untried[pick];
      node->untried.erase(node->untried.begin() + static_cast<ptrdiff_t>(pick));
      Edge& edge = node->edges.emplace_back();
      edge.action = action;
      path_.emplace_back(node, node->edges.size() - 1);

      // A planning child shares its parent's epoch; an EXECUTE child owns
      // the new one.
      Node* child;
      double step_cost = 0;
      if (action.IsExecute()) {
        MONSOON_ASSIGN_OR_RETURN(
            step_cost, ExecuteIntoScratch(node->state.planned, *node->state.epoch));
        child = NewExecuteChild(scratch_epoch_.stats().Fingerprint());
      } else {
        child = NewNode(node->state.planned, node->state.epoch.get(), 0);
        MONSOON_ASSIGN_OR_RETURN(step_cost, mdp_->Apply(action, &child->state, rng_));
      }
      path_cost += step_cost;
      Expand(child);
      edge.children = child;

      if (!child->terminal) {
        MONSOON_ASSIGN_OR_RETURN(rollout_cost, Rollout(child->state));
      }
      // Count the visit on the new leaf as well.
      child->visits += 1;
      break;
    }

    if (node->edges.empty()) {
      // Non-terminal with no actions should not happen (LegalActions
      // guarantees EXECUTE when R_p is non-empty and joins otherwise).
      return Status::Internal("MCTS reached a dead-end node");
    }

    // Selection.
    ++depth;
    size_t edge_idx = SelectEdge(*node);
    Edge& edge = node->edges[edge_idx];
    path_.emplace_back(node, edge_idx);

    // A planning action is deterministic and free: its only child already
    // holds the resulting state. EXECUTE is re-simulated from this node,
    // and the outcome picks (or creates) the child.
    Node* child = edge.children;
    if (edge.action.IsExecute()) {
      MONSOON_ASSIGN_OR_RETURN(
          double step_cost, ExecuteIntoScratch(node->state.planned, *node->state.epoch));
      path_cost += step_cost;
      uint64_t key = scratch_epoch_.stats().Fingerprint();
      child = edge.FindChild(key);
      if (child == nullptr) {
        // A chance outcome we have not seen before: expand it here.
        child = NewExecuteChild(key);
        Expand(child);
        child->next_sibling = edge.children;
        edge.children = child;
        if (!child->terminal) {
          MONSOON_ASSIGN_OR_RETURN(rollout_cost, Rollout(child->state));
        }
        child->visits += 1;
        break;
      }
    }
    node = child;
    node->visits += 1;
  }

  info_.max_depth = std::max(info_.max_depth, depth);

  // Backpropagation.
  double ret = -(path_cost + rollout_cost);
  if (!bounds_init_) {
    min_return_ = max_return_ = ret;
    bounds_init_ = true;
  } else {
    min_return_ = std::min(min_return_, ret);
    max_return_ = std::max(max_return_, ret);
  }
  root->visits += 1;
  for (auto& [pnode, edge_idx] : path_) {
    Edge& edge = pnode->edges[edge_idx];
    edge.visits += 1;
    edge.total_return += ret;
  }
  return Status::OK();
}

StatusOr<MdpAction> MctsSearch::SearchBestAction(const MdpState& root_state) {
  if (mdp_->IsTerminal(root_state)) {
    return Status::InvalidArgument("search from a terminal state");
  }
  info_ = SearchInfo{};
  root_ = nullptr;
  tree_arena_.release();
  tree_nodes_ = 0;
  root_ = NewNode(root_state.planned, root_state.epoch.get(), 0);
  Expand(root_);
  if (root_->untried.empty()) {
    return Status::Internal("no legal action from the current state");
  }

  static obs::Counter* const searches_metric =
      obs::Registry::Global().GetCounter("mcts.searches");
  static obs::Counter* const iterations_metric =
      obs::Registry::Global().GetCounter("mcts.iterations");
  searches_metric->Add(1);

  // One span per search, on the worker's lane; its ids come from the
  // lane's stream, so tracing never draws from rng_ and cannot perturb the
  // search.
  obs::TraceSpan tree_span("mcts", "tree");
  bounds_init_ = false;
  for (iteration_ = 0; iteration_ < options_.iterations; ++iteration_) {
    if (options_.cancel_token != nullptr) {
      MONSOON_RETURN_IF_ERROR(options_.cancel_token->Check());
    }
    // Coordinate = (seed, iteration): each root-parallel worker draws its
    // own deterministic firing schedule from its seed stream.
    MONSOON_FAULT_POINT("mcts.rollout",
                        options_.seed + static_cast<uint64_t>(iteration_));
    MONSOON_RETURN_IF_ERROR(RunIteration(root_));
    ++info_.iterations_run;
  }
  iterations_metric->Add(static_cast<uint64_t>(info_.iterations_run));

  // Commit the most-visited root action (robust child).
  const Edge* best = nullptr;
  for (const Edge& edge : root_->edges) {
    if (best == nullptr || edge.visits > best->visits ||
        (edge.visits == best->visits && edge.MeanReturn() > best->MeanReturn())) {
      best = &edge;
    }
  }
  if (best == nullptr) return Status::Internal("MCTS produced no edges");
  info_.best_mean_return = best->MeanReturn();
  info_.best_visits = best->visits;
  for (const Edge& edge : root_->edges) {
    info_.root_edges.push_back(
        RootEdgeInfo{edge.action, edge.visits, edge.MeanReturn()});
  }

  info_.tree_nodes = tree_nodes_;
  tree_span.Arg("iterations", info_.iterations_run)
      .Arg("tree_nodes", static_cast<uint64_t>(info_.tree_nodes))
      .Arg("max_depth", info_.max_depth)
      .Arg("best_visits", info_.best_visits)
      .Arg("best_mean", info_.best_mean_return)
      .Arg("epochs", info_.epochs)
      .Arg("legal_action_calls", info_.legal_action_calls);
  return best->action;
}

}  // namespace monsoon
