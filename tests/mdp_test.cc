#include <gtest/gtest.h>

#include <algorithm>

#include "cost/cardinality.h"
#include "mdp/mdp.h"

namespace monsoon {
namespace {

// The Sec. 2.3 example: R(1M), S(10k), T(10k), F1(R)=F2(S), F3(R)=F4(T).
class MdpTest : public ::testing::Test {
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

    prior_ = MakePrior(PriorKind::kUniform);
    mdp_ = std::make_unique<QueryMdp>(query_, prior_.get(), QueryMdp::Options());

    base_counts_[ExprSig::Of(RelSet::Single(0), 0)] = 1e6;
    base_counts_[ExprSig::Of(RelSet::Single(1), 0)] = 1e4;
    base_counts_[ExprSig::Of(RelSet::Single(2), 0)] = 1e4;
  }

  MdpState Initial() const { return mdp_->InitialState(StatsStore(), base_counts_); }

  static int CountType(const std::vector<MdpAction>& actions, MdpAction::Type type) {
    return static_cast<int>(std::count_if(
        actions.begin(), actions.end(),
        [type](const MdpAction& a) { return a.type == type; }));
  }

  const MdpAction* FindType(const std::vector<MdpAction>& actions,
                            MdpAction::Type type) const {
    for (const auto& action : actions) {
      if (action.type == type) return &action;
    }
    return nullptr;
  }

  QuerySpec query_;
  std::unique_ptr<Prior> prior_;
  std::unique_ptr<QueryMdp> mdp_;
  std::map<ExprSig, double> base_counts_;
};

TEST_F(MdpTest, InitialStateHasBaseRelationsAndCounts) {
  MdpState state = Initial();
  EXPECT_TRUE(state.planned.empty());
  EXPECT_EQ(state.executed.size(), 3u);
  EXPECT_DOUBLE_EQ(*state.stats.LookupCount(ExprSig::Of(RelSet::Single(0), 0)), 1e6);
  EXPECT_FALSE(mdp_->IsTerminal(state));
}

TEST_F(MdpTest, GoalSignatureCoversEverything) {
  ExprSig goal = mdp_->GoalSig();
  EXPECT_EQ(goal.rels, 0b111u);
  EXPECT_EQ(goal.preds, 0b11u);
}

TEST_F(MdpTest, RootActionEnumeration) {
  MdpState state = Initial();
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  // Σ on each of R, S, T (all terms unknown) plus joins R-S and R-T.
  // S-T is neither connected nor forced, and R_p is empty so no EXECUTE.
  EXPECT_EQ(CountType(actions, MdpAction::Type::kAddStatsPlan), 3);
  EXPECT_EQ(CountType(actions, MdpAction::Type::kJoinExecExec), 2);
  EXPECT_EQ(CountType(actions, MdpAction::Type::kExecute), 0);
  EXPECT_EQ(actions.size(), 5u);
}

TEST_F(MdpTest, ActionToStringIsReadable) {
  MdpState state = Initial();
  for (const MdpAction& action : mdp_->LegalActions(state)) {
    EXPECT_FALSE(action.ToString(query_).empty());
  }
}

TEST_F(MdpTest, JoinActionAddsPlanAndUnlocksExecute) {
  MdpState state = Initial();
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  const MdpAction* join = FindType(actions, MdpAction::Type::kJoinExecExec);
  ASSERT_NE(join, nullptr);
  auto next = mdp_->ApplyPlanAction(state, *join);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->planned.size(), 1u);

  std::vector<MdpAction> after = mdp_->LegalActions(*next);
  EXPECT_EQ(CountType(after, MdpAction::Type::kExecute), 1);
  // The planned join can be topped with Σ.
  EXPECT_GE(CountType(after, MdpAction::Type::kTopWithStats), 1);
  // The remaining base relation can join into the plan.
  EXPECT_GE(CountType(after, MdpAction::Type::kJoinExecPlan), 1);
}

TEST_F(MdpTest, NoDuplicatePlans) {
  MdpState state = Initial();
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  const MdpAction* join = FindType(actions, MdpAction::Type::kJoinExecExec);
  ASSERT_NE(join, nullptr);
  auto next = mdp_->ApplyPlanAction(state, *join);
  ASSERT_TRUE(next.ok());
  // The same pair must not be proposable again.
  for (const MdpAction& action : mdp_->LegalActions(*next)) {
    if (action.type == MdpAction::Type::kJoinExecExec) {
      EXPECT_FALSE(action.exec_a == join->exec_a && action.exec_b == join->exec_b);
    }
  }
}

TEST_F(MdpTest, SimulateExecuteMaterializesAndCosts) {
  Pcg32 rng(31);
  MdpState state = Initial();
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  const MdpAction* join = FindType(actions, MdpAction::Type::kJoinExecExec);
  auto planned = mdp_->ApplyPlanAction(state, *join);
  ASSERT_TRUE(planned.ok());
  PlanNode::Ptr tree = planned->planned[0];

  auto result = mdp_->SimulateExecute(*planned, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->state.planned.empty());
  EXPECT_EQ(result->state.executed.size(), 4u);
  EXPECT_GT(result->cost, 0);
  // The new expression's cardinality is recorded in S.
  EXPECT_TRUE(result->state.stats.LookupCount(tree->output_sig()).has_value());
}

TEST_F(MdpTest, SimulatedStatisticsStayConsistent) {
  // Two consecutive EXECUTEs referencing the same statistic must agree:
  // the sample hardened by the first is reused by the second.
  Pcg32 rng(32);
  MdpState state = Initial();
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  const MdpAction* join = FindType(actions, MdpAction::Type::kJoinExecExec);
  auto planned = mdp_->ApplyPlanAction(state, *join);
  auto exec1 = mdp_->SimulateExecute(*planned, rng);
  ASSERT_TRUE(exec1.ok());
  double c_first = *exec1->state.stats.LookupCount(planned->planned[0]->output_sig());

  // Re-plan the same join in the post-execution state: the cardinality
  // model must return the recorded value, not a fresh sample.
  CardinalityModel::Options options;
  options.missing_policy = MissingStatPolicy::kSampleFromPrior;
  options.prior = prior_.get();
  Pcg32 rng2(99);
  options.rng = &rng2;
  StatsStore stats_copy = exec1->state.stats;
  CardinalityModel model(query_, &stats_copy, options);
  auto estimate = model.EstimatePlan(planned->planned[0]);
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(estimate->cardinality, c_first);
}

TEST_F(MdpTest, StatsPlanCollectsPerPartnerSamples) {
  Pcg32 rng(33);
  MdpState state = Initial();
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  const MdpAction* sigma_s = nullptr;
  for (const MdpAction& action : actions) {
    if (action.type == MdpAction::Type::kAddStatsPlan &&
        action.exec_a == ExprSig::Of(RelSet::Single(1), 0)) {
      sigma_s = &action;
    }
  }
  ASSERT_NE(sigma_s, nullptr);
  auto planned = mdp_->ApplyPlanAction(state, *sigma_s);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->planned[0]->kind(), PlanNode::Kind::kStatsCollect);

  auto result = mdp_->SimulateExecute(*planned, rng);
  ASSERT_TRUE(result.ok());
  // F2's statistic over S with partner R must now be hardened.
  const Predicate& pred0 = query_.predicate(0);
  ExprSig s_sig = ExprSig::Of(RelSet::Single(1), 0);
  ExprSig r_sig = ExprSig::Of(RelSet::Single(0), 0);
  EXPECT_TRUE(result->state.stats
                  .LookupDistinct(pred0.right->term_id, s_sig, r_sig)
                  .has_value());
  // Σ costs two passes over S: scan + collect.
  EXPECT_DOUBLE_EQ(result->cost, 2e4);
}

TEST_F(MdpTest, SigmaPrunedOnceStatisticsKnown) {
  MdpState state = Initial();
  // Observe everything about S's term (F2, term id from pred 0 right).
  state.stats.SetDistinctObserved(query_.predicate(0).right->term_id,
                                  ExprSig::Of(RelSet::Single(1), 0), 123);
  int sigma_s = 0;
  for (const MdpAction& action : mdp_->LegalActions(state)) {
    if (action.type == MdpAction::Type::kAddStatsPlan &&
        action.exec_a == ExprSig::Of(RelSet::Single(1), 0)) {
      ++sigma_s;
    }
  }
  EXPECT_EQ(sigma_s, 0) << "Σ(S) learns nothing once d(F2, S) is known";
}

TEST_F(MdpTest, FullEpisodeReachesTerminal) {
  Pcg32 rng(34);
  MdpState state = Initial();
  // Join R-S, join T into the plan, EXECUTE.
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  const MdpAction* join_rs = nullptr;
  for (const MdpAction& action : actions) {
    if (action.type == MdpAction::Type::kJoinExecExec &&
        action.exec_a == ExprSig::Of(RelSet::Single(0), 0) &&
        action.exec_b == ExprSig::Of(RelSet::Single(1), 0)) {
      join_rs = &action;
    }
  }
  ASSERT_NE(join_rs, nullptr);
  auto s1 = mdp_->ApplyPlanAction(state, *join_rs);
  ASSERT_TRUE(s1.ok());

  std::vector<MdpAction> next_actions = mdp_->LegalActions(*s1);
  const MdpAction* join_t = FindType(next_actions, MdpAction::Type::kJoinExecPlan);
  ASSERT_NE(join_t, nullptr);
  auto s2 = mdp_->ApplyPlanAction(*s1, *join_t);
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(s2->planned.size(), 1u);
  EXPECT_EQ(s2->planned[0]->output_sig(), mdp_->GoalSig());

  auto done = mdp_->SimulateExecute(*s2, rng);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(mdp_->IsTerminal(done->state));
  EXPECT_TRUE(mdp_->LegalActions(done->state).empty());
}

TEST_F(MdpTest, ExecuteOnEmptyPlanFails) {
  Pcg32 rng(35);
  MdpState state = Initial();
  EXPECT_EQ(mdp_->SimulateExecute(state, rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MdpTest, StepRoutesActions) {
  Pcg32 rng(36);
  MdpState state = Initial();
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  const MdpAction* join = FindType(actions, MdpAction::Type::kJoinExecExec);
  auto planning = mdp_->Step(state, *join, rng);
  ASSERT_TRUE(planning.ok());
  EXPECT_DOUBLE_EQ(planning->cost, 0) << "planning actions are free";

  MdpAction execute;
  execute.type = MdpAction::Type::kExecute;
  auto executed = mdp_->Step(planning->state, execute, rng);
  ASSERT_TRUE(executed.ok());
  EXPECT_GT(executed->cost, 0);
}

TEST_F(MdpTest, StatsActionsCanBeDisabled) {
  QueryMdp::Options options;
  options.enable_stats_actions = false;
  QueryMdp mdp(query_, prior_.get(), options);
  MdpState state = mdp.InitialState(StatsStore(), base_counts_);
  for (const MdpAction& action : mdp.LegalActions(state)) {
    EXPECT_NE(action.type, MdpAction::Type::kAddStatsPlan);
    EXPECT_NE(action.type, MdpAction::Type::kTopWithStats);
  }
  // Joins are still available, so the query remains completable.
  EXPECT_EQ(mdp.LegalActions(state).size(), 2u);
}

TEST_F(MdpTest, OverlappingPlainPlansArePruned) {
  // After planning (R ⋈ S), proposing (R ⋈ T) as a second Σ-less plan is
  // dominated (the trees can never merge) and must not be offered.
  MdpState state = Initial();
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  const MdpAction* join_rs = nullptr;
  for (const MdpAction& action : actions) {
    if (action.type == MdpAction::Type::kJoinExecExec) {
      join_rs = &action;
      break;
    }
  }
  ASSERT_NE(join_rs, nullptr);
  auto next = mdp_->ApplyPlanAction(state, *join_rs);
  ASSERT_TRUE(next.ok());
  for (const MdpAction& action : mdp_->LegalActions(*next)) {
    EXPECT_NE(action.type, MdpAction::Type::kJoinExecExec)
        << "every remaining pair overlaps the planned join";
  }
}

TEST_F(MdpTest, DisconnectedRelationsGetForcedCrossProduct) {
  QuerySpec query;
  ASSERT_TRUE(query.AddRelation("a", "at").ok());
  ASSERT_TRUE(query.AddRelation("b", "bt").ok());
  // No predicates: the only way forward is a cross product.
  auto prior = MakePrior(PriorKind::kUniform);
  QueryMdp mdp(query, prior.get(), QueryMdp::Options());
  std::map<ExprSig, double> counts;
  counts[ExprSig::Of(RelSet::Single(0), 0)] = 10;
  counts[ExprSig::Of(RelSet::Single(1), 0)] = 10;
  MdpState state = mdp.InitialState(StatsStore(), counts);
  std::vector<MdpAction> actions = mdp.LegalActions(state);
  bool has_join = false;
  for (const MdpAction& action : actions) {
    if (action.type == MdpAction::Type::kJoinExecExec) has_join = true;
  }
  EXPECT_TRUE(has_join);
}

}  // namespace
}  // namespace monsoon
