// Reproduces Figure 1: a walk through the example MDP of Sec. 2.3/4.5.
// Prints the start state, the actions available, the MCTS value of each
// root action under the paper's two-point prior, and then follows the
// optimizer's chosen trajectory (Σ(S) -> EXECUTE -> join order -> EXECUTE)
// showing how the statistics harden after each EXECUTE.

#include <iostream>

#include "bench/bench_common.h"
#include "mcts/mcts.h"

using namespace monsoon;

namespace {

// The Sec. 2.3 prior: d over R (c = 1e6) is always 1000; d over S or T
// (c = 1e4) is 1 or 1e4 with probability 1/2 each.
class TwoPointPrior : public Prior {
 public:
  PriorKind kind() const override { return PriorKind::kUniform; }
  double Sample(Pcg32& rng, double c_r, double c_s) const override {
    (void)c_s;
    if (c_r == 1e4) return rng.NextDouble() < 0.5 ? 1.0 : 1e4;
    return 1000.0;
  }
};

}  // namespace

int main() {
  bench::PrintHeader("Figure 1: example MDP walk-through", "Figure 1");

  QuerySpec query;
  (void)query.AddRelation("R", "r");
  (void)query.AddRelation("S", "s");
  (void)query.AddRelation("T", "t");
  auto f1 = query.MakeTerm("f1", {"R.a"});
  auto f2 = query.MakeTerm("f2", {"S.b"});
  (void)query.AddJoinPredicate(std::move(*f1), std::move(*f2));
  auto f3 = query.MakeTerm("f3", {"R.a"});
  auto f4 = query.MakeTerm("f4", {"T.c"});
  (void)query.AddJoinPredicate(std::move(*f3), std::move(*f4));

  TwoPointPrior prior;
  QueryMdp mdp(query, &prior, QueryMdp::Options());
  std::map<ExprSig, double> counts;
  counts[ExprSig::Of(RelSet::Single(0), 0)] = 1e6;
  counts[ExprSig::Of(RelSet::Single(1), 0)] = 1e4;
  counts[ExprSig::Of(RelSet::Single(2), 0)] = 1e4;
  MdpState state = mdp.InitialState(StatsStore(), counts);

  std::cout << "\nStart state: " << state.ToString(query) << "\n";
  std::cout << "Actions available from the start state:\n";
  for (const MdpAction& action : mdp.LegalActions(state)) {
    std::cout << "  * " << action.ToString(query) << "\n";
  }

  MctsSearch::Options options;
  options.iterations = bench::BenchIters(4000);
  options.seed = 20;
  MctsSearch search(&mdp, options);
  auto best = search.SearchBestAction(state);
  if (!best.ok()) {
    std::cerr << "search failed: " << best.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\nMCTS root-action values (" << options.iterations
            << " rollouts, UCT):\n";
  TablePrinter table({"Action", "Visits", "Mean return (neg. objects)"});
  for (const auto& edge : search.last_info().root_edges) {
    table.AddRow({edge.action.ToString(query), std::to_string(edge.visits),
                  StrFormat("%.0f", edge.mean_return)});
  }
  table.Print(std::cout);
  std::cout << "Chosen action: " << best->ToString(query) << "\n";

  // Follow the trajectory to the end, printing each transition.
  Pcg32 rng(11);
  int step = 0;
  while (!mdp.IsTerminal(state) && step++ < 16) {
    MctsSearch::Options step_options = options;
    step_options.iterations = bench::BenchIters(1500);
    step_options.seed = 100 + step;
    MctsSearch step_search(&mdp, step_options);
    auto action = step_search.SearchBestAction(state);
    if (!action.ok()) break;
    std::cout << "\n[step " << step << "] " << action->ToString(query) << "\n";
    auto next = mdp.Step(state, *action, rng);
    if (!next.ok()) break;
    if (action->IsExecute()) {
      std::cout << "  cost of this transition: "
                << FormatWithCommas(static_cast<uint64_t>(next->cost))
                << " objects\n";
      std::cout << "  hardened statistics now: " << next->state.epoch->stats().num_counts()
                << " counts, " << next->state.epoch->stats().num_distincts()
                << " distinct entries\n";
    }
    state = std::move(next->state);
    std::cout << "  state: " << state.ToString(query) << "\n";
  }
  std::cout << "\nTerminal reached: " << (mdp.IsTerminal(state) ? "yes" : "no")
            << "\n";
  return 0;
}
