#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cost/cardinality.h"
#include "mcts/mcts.h"
#include "mdp/mdp.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

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
  EXPECT_EQ(state.epoch->executed().size(), 3u);
  EXPECT_DOUBLE_EQ(*state.epoch->stats().LookupCount(ExprSig::Of(RelSet::Single(0), 0)), 1e6);
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
  EXPECT_EQ(result->state.epoch->executed().size(), 4u);
  EXPECT_GT(result->cost, 0);
  // The new expression's cardinality is recorded in S.
  EXPECT_TRUE(result->state.epoch->stats().LookupCount(tree->output_sig()).has_value());
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
  double c_first = *exec1->state.epoch->stats().LookupCount(planned->planned[0]->output_sig());

  // Re-plan the same join in the post-execution state: the cardinality
  // model must return the recorded value, not a fresh sample.
  CardinalityModel::Options options;
  options.missing_policy = MissingStatPolicy::kSampleFromPrior;
  options.prior = prior_.get();
  Pcg32 rng2(99);
  options.rng = &rng2;
  StatsStore stats_copy = exec1->state.epoch->stats();
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
  EXPECT_TRUE(result->state.epoch->stats()
                  .LookupDistinct(pred0.right->term_id, s_sig, r_sig)
                  .has_value());
  // Σ costs two passes over S: scan + collect.
  EXPECT_DOUBLE_EQ(result->cost, 2e4);
}

TEST_F(MdpTest, SigmaPrunedOnceStatisticsKnown) {
  // Observe everything about S's term (F2, term id from pred 0 right).
  StatsStore observed;
  observed.SetDistinctObserved(query_.predicate(0).right->term_id,
                               ExprSig::Of(RelSet::Single(1), 0), 123);
  MdpState state = mdp_->InitialState(observed, base_counts_);
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

// --------------------------------------------------------------------------
// Epochs: states between two EXECUTEs share one immutable epoch, whose
// facts are derived incrementally from the previous epoch's. Random walks
// over every query of the four suites check both against a from-scratch
// derivation, and that a shared epoch never changes under its sharers.
// --------------------------------------------------------------------------

StatusOr<Workload> SmallWorkload(const std::string& name) {
  if (name == "imdb") {
    ImdbOptions options;
    options.scale = 0.05;
    return MakeImdbWorkload(options);
  }
  if (name == "tpch") {
    TpchOptions options;
    options.scale = 0.1;
    return MakeTpchWorkload(options);
  }
  if (name == "ott") {
    OttOptions options;
    options.rows_per_table = 400;
    options.key_cardinality = 25;
    return MakeOttWorkload(options);
  }
  UdfBenchOptions options;
  options.scale = 0.1;
  return MakeUdfBenchWorkload(options);
}

// `state` over a new epoch built from deep copies of its R_e and S, with
// its facts derived from scratch.
MdpState WithRebuiltEpoch(const QueryMdp& mdp, const MdpState& state) {
  auto epoch = std::make_shared<MdpEpoch>();
  epoch->mutable_executed() = state.epoch->executed();
  epoch->mutable_stats() = state.epoch->stats();
  mdp.DeriveFacts(epoch.get());
  return MdpState(state.planned, std::move(epoch));
}

std::string ActionsString(const QuerySpec& query, const std::vector<MdpAction>& actions) {
  std::string out;
  for (const MdpAction& action : actions) out += action.ToString(query) + "; ";
  return out;
}

// Everything an epoch holds, as text: R_e, S and every fact.
std::string EpochString(const MdpEpoch& epoch) {
  std::string out = epoch.stale() ? "stale\n" : "fresh\n";
  for (const auto& [sig, count] : epoch.executed()) {
    out += sig.ToString() + ":" + std::to_string(count) + " ";
  }
  out += "\n" + epoch.stats().ToString() + "\nfingerprint " +
         std::to_string(epoch.stats().Fingerprint()) + "\n";
  for (const MdpEpoch::Entry& entry : epoch.entries()) {
    out += entry.side.sig.ToString() + " " + std::to_string(entry.side.touching) + " " +
           std::to_string(entry.side.component) + " " + std::to_string(entry.leaf_preds) +
           " " + std::to_string(entry.unknown_term) + "\n";
  }
  for (const MdpEpoch::Pair& pair : epoch.pairs()) {
    out += std::to_string(pair.a) + "," + std::to_string(pair.b) + " " +
           pair.join_sig.ToString() + " " + std::to_string(pair.join_executed) + "\n";
  }
  return out;
}

constexpr uint64_t kWalksPerQuery = 12;

class EpochWalkTest : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(EpochWalkTest, SharedEpochsMatchRebuiltOnesAndNeverChange) {
  const auto& [suite, stats_actions] = GetParam();
  StatusOr<Workload> workload = SmallWorkload(suite);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  std::unique_ptr<Prior> prior = MakePrior(PriorKind::kSpikeAndSlab);
  QueryMdp::Options options;
  options.enable_stats_actions = stats_actions;
  size_t checked_states = 0;
  size_t executes = 0;
  for (const BenchQuery& query : workload->queries) {
    SCOPED_TRACE(query.name);
    QueryMdp mdp(query.spec, prior.get(), options);
    std::map<ExprSig, double> counts;
    for (int i = 0; i < query.spec.num_relations(); ++i) {
      StatusOr<uint64_t> rows =
          workload->catalog->RowCount(query.spec.relation(i).table_name);
      ASSERT_TRUE(rows.ok());
      counts[ExprSig::Of(RelSet::Single(i), 0)] = static_cast<double>(*rows);
    }
    for (uint64_t walk = 0; walk < kWalksPerQuery; ++walk) {
      MdpState state = mdp.InitialState(StatsStore(), counts);
      Pcg32 rng(walk);
      for (int step = 0; step < 200 && !mdp.IsTerminal(state); ++step) {
        std::vector<MdpAction> actions = mdp.LegalActions(state);
        std::vector<MdpAction> rebuilt = mdp.LegalActions(WithRebuiltEpoch(mdp, state));
        ASSERT_EQ(actions, rebuilt) << "step " << step << "\nshared:  "
                                    << ActionsString(query.spec, actions)
                                    << "\nrebuilt: " << ActionsString(query.spec, rebuilt);
        ASSERT_FALSE(actions.empty()) << "step " << step;
        ++checked_states;

        // Children that share this state's epoch, an EXECUTE below them and a
        // short search from here must all leave it as it was.
        const std::string before = EpochString(*state.epoch);
        std::shared_ptr<const MdpEpoch> shared = state.epoch;
        MdpState child = state;
        Pcg32 child_rng(step);
        for (int depth = 0; depth < 4 && !mdp.IsTerminal(child); ++depth) {
          std::vector<MdpAction> child_actions = mdp.LegalActions(child);
          const MdpAction& pick = child_actions[child_rng.NextBounded(
              static_cast<uint32_t>(child_actions.size()))];
          ASSERT_TRUE(mdp.Apply(pick, &child, child_rng).ok());
        }
        if (step % 8 == 0 && actions.size() >= 2) {
          MctsSearch::Options search_options;
          search_options.iterations = 12;
          search_options.seed = step;
          MctsSearch search(&mdp, search_options);
          ASSERT_TRUE(search.SearchBestAction(state).ok());
        }
        ASSERT_EQ(state.epoch, shared);
        ASSERT_EQ(EpochString(*state.epoch), before) << "step " << step;

        const MdpAction action =
            actions[rng.NextBounded(static_cast<uint32_t>(actions.size()))];
        if (action.IsExecute()) ++executes;
        ASSERT_TRUE(mdp.Apply(action, &state, rng).ok()) << "step " << step;
        EXPECT_EQ(state.epoch == shared, !action.IsExecute())
            << "planning actions share the epoch, EXECUTE replaces it";
      }
    }
  }
  EXPECT_GT(checked_states, kWalksPerQuery * workload->queries.size());
  EXPECT_GT(executes, 0u);
}

// DeriveFacts carries an R_e of up to 64 entries over from the previous
// epoch and derives a larger one from scratch. Grow one epoch in place past
// that size, learning a term's statistics between steps, and compare its
// facts and actions with a rebuilt epoch's at each size.
TEST(EpochTest, GrowingPastSixtyFourEntriesMatchesRebuilt) {
  StatusOr<Workload> workload = SmallWorkload("imdb");
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const BenchQuery* widest = &workload->queries.front();
  for (const BenchQuery& query : workload->queries) {
    if (query.spec.num_relations() > widest->spec.num_relations()) widest = &query;
  }
  const QuerySpec& spec = widest->spec;
  ASSERT_GE(spec.num_relations(), 7) << "too few relation sets for 90 entries";
  std::unique_ptr<Prior> prior = MakePrior(PriorKind::kSpikeAndSlab);
  QueryMdp mdp(spec, prior.get(), QueryMdp::Options());

  // Every relation set but the empty and the full one, in a seeded order.
  std::vector<ExprSig> sigs;
  for (uint64_t rels = 1; rels < spec.AllRelations().mask(); ++rels) {
    sigs.push_back(ExprSig::Of(RelSet(rels), 0));
  }
  Pcg32 rng(7);
  for (size_t i = sigs.size(); i > 1; --i) {
    std::swap(sigs[i - 1], sigs[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  const std::vector<const UdfTerm*> terms = spec.AllTerms();
  ASSERT_FALSE(terms.empty());

  auto epoch = std::make_shared<MdpEpoch>();
  size_t added = 0;
  for (size_t size : {40, 70, 90}) {
    SCOPED_TRACE(size);
    for (; added < size; ++added) {
      epoch->mutable_executed()[sigs[added]] = static_cast<double>(100 + added);
      epoch->mutable_stats().SetCount(sigs[added], static_cast<double>(100 + added));
    }
    const UdfTerm& learnt = *terms[size % terms.size()];
    epoch->mutable_stats().SetDistinct(learnt.term_id, ExprSig::Of(learnt.rels, 0),
                                       ExprSig::Any(), 10);
    mdp.DeriveFacts(epoch.get());
    ASSERT_EQ(epoch->entries().size(), size);
    const MdpState grown(PlanForest(), epoch);
    const MdpState rebuilt = WithRebuiltEpoch(mdp, grown);
    EXPECT_EQ(EpochString(*epoch), EpochString(*rebuilt.epoch));
    const std::vector<MdpAction> actions = mdp.LegalActions(grown);
    EXPECT_EQ(actions, mdp.LegalActions(rebuilt))
        << ActionsString(spec, actions);
    EXPECT_FALSE(epoch->pairs().empty());
  }
}

// One EXECUTE may add several entries to R_e, sorting before, between and
// after the old ones, among them the joins of old pairs. DeriveFacts
// merges the old pairs with the new entries' pairs: the pairs, their order
// and join_executed must be those of an epoch derived from scratch. Run
// over every IMDB query of five or more relations; between them they must
// produce each kind of merged pair.
TEST(EpochTest, ExecuteAddingEntriesAroundOldOnesMatchesRebuilt) {
  StatusOr<Workload> workload = SmallWorkload("imdb");
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  std::unique_ptr<Prior> prior = MakePrior(PriorKind::kSpikeAndSlab);
  size_t new_before_old = 0;  // pairs (new a, old b)
  size_t old_before_new = 0;  // pairs (old a, new b)
  size_t executed_joins = 0;  // old pairs whose join became executed
  for (const BenchQuery& query : workload->queries) {
    const QuerySpec& spec = query.spec;
    const int n = spec.num_relations();
    if (n < 5) continue;
    SCOPED_TRACE(query.name);
    QueryMdp mdp(spec, prior.get(), QueryMdp::Options());

    // Old entries: every relation but the first and the last.
    auto epoch = std::make_shared<MdpEpoch>();
    auto add = [&](const ExprSig& sig, double count) {
      epoch->mutable_executed()[sig] = count;
      epoch->mutable_stats().SetCount(sig, count);
    };
    for (int i = 1; i < n - 1; ++i) add(ExprSig::Of(RelSet::Single(i), 0), 1000 + i);
    mdp.DeriveFacts(epoch.get());
    const std::vector<MdpEpoch::Pair> old_pairs(epoch->pairs().begin(),
                                                epoch->pairs().end());
    if (old_pairs.empty()) continue;
    std::vector<ExprSig> old_sigs;
    for (const auto& [sig, count] : epoch->executed()) old_sigs.push_back(sig);

    // The EXECUTE: the first relation (before every old entry), the joins
    // of the first and last old pairs (between old entries) and the last
    // relation (after them all).
    const ExprSig first_join = old_pairs.front().join_sig;
    const ExprSig last_join = old_pairs.back().join_sig;
    add(ExprSig::Of(RelSet::Single(0), 0), 1000);
    add(first_join, 50);
    add(last_join, 60);
    add(ExprSig::Of(RelSet::Single(n - 1), 0), 2000);
    ASSERT_EQ(epoch->executed().begin()->first, ExprSig::Of(RelSet::Single(0), 0));
    ASSERT_EQ(std::prev(epoch->executed().end())->first,
              ExprSig::Of(RelSet::Single(n - 1), 0));
    mdp.DeriveFacts(epoch.get());

    const MdpState grown(PlanForest(), epoch);
    const MdpState rebuilt = WithRebuiltEpoch(mdp, grown);
    EXPECT_EQ(EpochString(*epoch), EpochString(*rebuilt.epoch));
    EXPECT_EQ(mdp.LegalActions(grown), mdp.LegalActions(rebuilt));
    auto is_old = [&](uint32_t index) {
      const ExprSig& sig = epoch->entries()[index].side.sig;
      return std::find(old_sigs.begin(), old_sigs.end(), sig) != old_sigs.end();
    };
    for (const MdpEpoch::Pair& pair : epoch->pairs()) {
      if (!is_old(pair.a) && is_old(pair.b)) ++new_before_old;
      if (is_old(pair.a) && !is_old(pair.b)) ++old_before_new;
      if (pair.join_sig == first_join || pair.join_sig == last_join) {
        EXPECT_TRUE(pair.join_executed) << pair.join_sig.ToString();
        ++executed_joins;
      }
    }
  }
  EXPECT_GT(new_before_old, 0u);
  EXPECT_GT(old_before_new, 0u);
  EXPECT_GT(executed_joins, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, EpochWalkTest,
    ::testing::Combine(::testing::Values("imdb", "tpch", "ott", "udf"), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      return std::get<0>(info.param) + (std::get<1>(info.param) ? "_sigma" : "_no_sigma");
    });

}  // namespace
}  // namespace monsoon
