#include "mcts/root_parallel.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"

namespace monsoon {

RootParallelMcts::RootParallelMcts(const QueryMdp* mdp, Options options,
                                   parallel::ThreadPool* pool)
    : mdp_(mdp), options_(std::move(options)), pool_(pool) {
  options_.workers = std::max(1, options_.workers);
}

StatusOr<MdpAction> RootParallelMcts::SearchBestAction(const MdpState& root) {
  int workers = options_.workers;
  if (workers == 1) {
    MctsSearch search(mdp_, options_.search);
    MONSOON_ASSIGN_OR_RETURN(MdpAction action, search.SearchBestAction(root));
    info_ = search.last_info();
    return action;
  }

  // Split the iteration budget; every worker runs at least one rollout.
  int per_worker = std::max(1, options_.search.iterations / workers);
  MONSOON_DCHECK(per_worker >= 1 && workers >= 2);

  std::vector<std::unique_ptr<MctsSearch>> searches(workers);
  std::vector<Status> statuses(workers, Status::OK());
  for (int w = 0; w < workers; ++w) {
    MctsSearch::Options opts = options_.search;
    opts.iterations = per_worker;
    // Per-worker seed streams (see common/random.h): worker 0 keeps the
    // base seed so K=1 degenerates to the serial search bit-for-bit.
    opts.seed = options_.search.seed + static_cast<uint64_t>(w);
    searches[w] = std::make_unique<MctsSearch>(mdp_, opts);
  }
  // One index per searcher. A failing searcher cancels no sibling, so each
  // worker's outcome is a function of its seed alone; a throw from the
  // lowest-indexed throwing worker is rethrown once by ParallelFor.
  MONSOON_RETURN_IF_ERROR(parallel::ParallelFor(
      pool_, searches.size(), /*morsel_size=*/1, /*token=*/nullptr,
      [&](size_t w, size_t, size_t) {
        // Trace onto the worker's own lane regardless of which thread
        // claimed the index, so same-seed runs produce identical lanes.
        obs::TraceLaneScope lane(obs::kMctsLaneBase + static_cast<int>(w));
        // Actions are re-derived from the merged edges below.
        statuses[w] = searches[w]->SearchBestAction(root).status();
        return Status::OK();
      }));
  // Report the first *real* error by worker index. A kCancelled status
  // echoes the query's token, which every worker polls, so a genuine error
  // wins over it even when the cancelled worker has a lower index.
  {
    const Status* first_cancelled = nullptr;
    for (int w = 0; w < workers; ++w) {
      if (statuses[w].ok()) continue;
      if (statuses[w].code() != StatusCode::kCancelled) return statuses[w];
      if (first_cancelled == nullptr) first_cancelled = &statuses[w];
    }
    if (first_cancelled != nullptr) return *first_cancelled;
  }

  // Merge root edges by action identity, in worker order.
  struct MergedEdge {
    MdpAction action;
    int visits = 0;
    double total_return = 0;
  };
  std::vector<MergedEdge> merged;
  info_ = MctsSearch::SearchInfo{};
  for (int w = 0; w < workers; ++w) {
    MONSOON_DCHECK(searches[w] != nullptr);
    const MctsSearch::SearchInfo& wi = searches[w]->last_info();
    info_.iterations_run += wi.iterations_run;
    info_.tree_nodes += wi.tree_nodes;
    info_.epochs += wi.epochs;
    info_.legal_action_calls += wi.legal_action_calls;
    info_.max_depth = std::max(info_.max_depth, wi.max_depth);
    for (const MctsSearch::RootEdgeInfo& edge : wi.root_edges) {
      // Visit-weighted return recombination is only meaningful for edges
      // that were actually rolled out.
      MONSOON_DCHECK(edge.visits >= 0) << "negative visit count from worker " << w;
      auto it = std::find_if(merged.begin(), merged.end(),
                             [&](const MergedEdge& m) { return m.action == edge.action; });
      if (it == merged.end()) {
        merged.push_back(MergedEdge{edge.action, edge.visits,
                                    edge.mean_return * edge.visits});
      } else {
        it->visits += edge.visits;
        it->total_return += edge.mean_return * edge.visits;
      }
    }
  }
  if (merged.empty()) return Status::Internal("root-parallel MCTS produced no edges");

  const MergedEdge* best = nullptr;
  for (const MergedEdge& edge : merged) {
    double mean = edge.visits > 0 ? edge.total_return / edge.visits : 0;
    double best_mean =
        best != nullptr && best->visits > 0 ? best->total_return / best->visits : 0;
    if (best == nullptr || edge.visits > best->visits ||
        (edge.visits == best->visits && mean > best_mean)) {
      best = &edge;
    }
  }
  for (const MergedEdge& edge : merged) {
    info_.root_edges.push_back(MctsSearch::RootEdgeInfo{
        edge.action, edge.visits,
        edge.visits > 0 ? edge.total_return / edge.visits : 0});
  }
  MONSOON_CHECK(best != nullptr) << "non-empty merge must select an edge";
  info_.best_visits = best->visits;
  info_.best_mean_return = best->visits > 0 ? best->total_return / best->visits : 0;
  return best->action;
}

}  // namespace monsoon
