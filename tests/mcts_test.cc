#include <gtest/gtest.h>

#include "mcts/mcts.h"

namespace monsoon {
namespace {

// The paper's Sec. 2.3 two-point prior, dispatching on c(r): UDF terms
// over R (c = 1e6) always have 1000 distinct values; terms over S or T
// (c = 1e4) have 1 or 1e4 distinct values with probability 1/2 each.
class TwoPointPrior : public Prior {
 public:
  PriorKind kind() const override { return PriorKind::kUniform; }  // unused
  double Sample(Pcg32& rng, double c_r, double c_s) const override {
    (void)c_s;
    if (c_r == 1e4) return rng.NextDouble() < 0.5 ? 1.0 : 1e4;
    return 1000.0;
  }
};

class MctsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(query_.AddRelation("r", "rt").ok());
    ASSERT_TRUE(query_.AddRelation("s", "st").ok());
    ASSERT_TRUE(query_.AddRelation("t", "tt").ok());
    auto f1 = query_.MakeTerm("f1", {"r.a"});
    auto f2 = query_.MakeTerm("f2", {"s.b"});
    ASSERT_TRUE(query_.AddJoinPredicate(std::move(*f1), std::move(*f2)).ok());
    auto f3 = query_.MakeTerm("f3", {"r.a"});
    auto f4 = query_.MakeTerm("f4", {"t.c"});
    ASSERT_TRUE(query_.AddJoinPredicate(std::move(*f3), std::move(*f4)).ok());
    mdp_ = std::make_unique<QueryMdp>(query_, &prior_, QueryMdp::Options());

    base_counts_[ExprSig::Of(RelSet::Single(0), 0)] = 1e6;
    base_counts_[ExprSig::Of(RelSet::Single(1), 0)] = 1e4;
    base_counts_[ExprSig::Of(RelSet::Single(2), 0)] = 1e4;
  }

  MdpState Initial() const { return mdp_->InitialState(StatsStore(), base_counts_); }

  QuerySpec query_;
  TwoPointPrior prior_;
  std::unique_ptr<QueryMdp> mdp_;
  std::map<ExprSig, double> base_counts_;
};

TEST_F(MctsTest, RefusesTerminalOrDeadStates) {
  MctsSearch::Options options;
  MctsSearch search(mdp_.get(), options);
  std::map<ExprSig, double> counts = base_counts_;
  counts[mdp_->GoalSig()] = 1;  // the full result is already materialized
  MdpState state = mdp_->InitialState(StatsStore(), counts);
  EXPECT_FALSE(search.SearchBestAction(state).ok());
}

TEST_F(MctsTest, ReturnsALegalAction) {
  MctsSearch::Options options;
  options.iterations = 100;
  MctsSearch search(mdp_.get(), options);
  auto action = search.SearchBestAction(Initial());
  ASSERT_TRUE(action.ok());
  // Must be one of the enumerated root actions.
  bool found = false;
  for (const MdpAction& legal : mdp_->LegalActions(Initial())) {
    if (legal.type == action->type && legal.exec_a == action->exec_a &&
        legal.exec_b == action->exec_b && legal.plan_a == action->plan_a) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MctsTest, DeterministicGivenSeed) {
  MctsSearch::Options options;
  options.iterations = 300;
  options.seed = 777;
  MctsSearch a(mdp_.get(), options);
  MctsSearch b(mdp_.get(), options);
  auto ra = a.SearchBestAction(Initial());
  auto rb = b.SearchBestAction(Initial());
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->type, rb->type);
  EXPECT_EQ(ra->exec_a, rb->exec_a);
  EXPECT_EQ(a.last_info().best_visits, b.last_info().best_visits);
}

TEST_F(MctsTest, SearchInfoIsPopulated) {
  MctsSearch::Options options;
  options.iterations = 200;
  MctsSearch search(mdp_.get(), options);
  ASSERT_TRUE(search.SearchBestAction(Initial()).ok());
  const auto& info = search.last_info();
  EXPECT_EQ(info.iterations_run, 200);
  EXPECT_GT(info.tree_nodes, 1u);
  EXPECT_EQ(info.root_edges.size(), 5u);  // the Sec. 2.3 root has 5 actions
  int total_visits = 0;
  for (const auto& edge : info.root_edges) total_visits += edge.visits;
  EXPECT_EQ(total_visits, 200);
}

// The headline behaviour of the paper (Sec. 2.3): with a 50/50 prior on
// d(F2,S) and d(F4,T), collecting statistics on S or T before committing
// to a join order has lower expected cost than guessing an order. MCTS
// should therefore value the Σ root actions above the join actions.
TEST_F(MctsTest, PrefersStatisticsCollectionWhenPriorIsBimodal) {
  MctsSearch::Options options;
  options.iterations = 3000;
  options.seed = 4242;
  MctsSearch search(mdp_.get(), options);
  auto action = search.SearchBestAction(Initial());
  ASSERT_TRUE(action.ok());

  // Aggregate root-edge values by action type.
  double best_sigma_st = -1e18;
  double best_join = -1e18;
  for (const auto& edge : search.last_info().root_edges) {
    if (edge.visits < 10) continue;
    if (edge.action.type == MdpAction::Type::kAddStatsPlan &&
        edge.action.exec_a != ExprSig::Of(RelSet::Single(0), 0)) {
      best_sigma_st = std::max(best_sigma_st, edge.mean_return);
    }
    if (edge.action.type == MdpAction::Type::kJoinExecExec) {
      best_join = std::max(best_join, edge.mean_return);
    }
  }
  EXPECT_GT(best_sigma_st, best_join)
      << "Σ(S)/Σ(T) should beat an immediate join commitment";
}

TEST_F(MctsTest, EpsilonGreedyStrategyAlsoWorks) {
  MctsSearch::Options options;
  options.strategy = SelectionStrategy::kEpsilonGreedy;
  options.iterations = 500;
  MctsSearch search(mdp_.get(), options);
  auto action = search.SearchBestAction(Initial());
  ASSERT_TRUE(action.ok());
  EXPECT_EQ(search.last_info().iterations_run, 500);
}

TEST_F(MctsTest, StrategyNames) {
  EXPECT_STREQ(SelectionStrategyToString(SelectionStrategy::kUct), "UCT");
  EXPECT_STREQ(SelectionStrategyToString(SelectionStrategy::kEpsilonGreedy),
               "eps-greedy");
}

// Driving the search to completion (search -> act -> repeat) must reach
// the goal within a bounded number of real decisions.
TEST_F(MctsTest, FullEpisodeConvergesToGoal) {
  Pcg32 rng(55);
  MdpState state = Initial();
  for (int decision = 0; decision < 32 && !mdp_->IsTerminal(state); ++decision) {
    MctsSearch::Options options;
    options.iterations = 150;
    options.seed = 1000 + decision;
    MctsSearch search(mdp_.get(), options);
    auto action = search.SearchBestAction(state);
    ASSERT_TRUE(action.ok());
    auto step = mdp_->Step(state, *action, rng);
    ASSERT_TRUE(step.ok());
    state = std::move(step->state);
  }
  EXPECT_TRUE(mdp_->IsTerminal(state));
}

}  // namespace
}  // namespace monsoon
