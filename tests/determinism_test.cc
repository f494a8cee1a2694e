// Cross-run determinism under real thread parallelism: the paper's
// experiments are only comparable when the same seed reproduces the same
// optimizer decisions and the same execution statistics regardless of how
// the OS schedules the pool's workers. Two same-seed runs at threads = 4
// must match bit-for-bit — on the merged MCTS root statistics and on the
// parallel Σ / execution results.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/stats_store.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/materialized_store.h"
#include "mcts/root_parallel.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "parallel/thread_pool.h"
#include "row_fingerprints.h"
#include "workloads/tpch.h"

namespace monsoon {
namespace {

// ---------------------------------------------------------------------------
// Root-parallel MCTS: merged root edges are a deterministic function of
// (seed, workers), independent of scheduling — see mcts/root_parallel.h.
// ---------------------------------------------------------------------------

class TwoPointPrior : public Prior {
 public:
  PriorKind kind() const override { return PriorKind::kUniform; }  // unused
  double Sample(Pcg32& rng, double c_r, double c_s) const override {
    (void)c_s;
    if (c_r == 1e4) return rng.NextDouble() < 0.5 ? 1.0 : 1e4;
    return 1000.0;
  }
};

class MctsDeterminismTest : public ::testing::Test {
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

  struct RootRun {
    MdpAction action;
    MctsSearch::SearchInfo info;
  };

  RootRun Run(parallel::ThreadPool* pool, uint64_t seed) {
    RootParallelMcts::Options options;
    options.search.iterations = 1200;
    options.search.seed = seed;
    options.workers = 4;
    RootParallelMcts search(mdp_.get(), options, pool);
    auto action = search.SearchBestAction(Initial());
    EXPECT_TRUE(action.ok()) << action.status().ToString();
    return {action.ok() ? *action : MdpAction{}, search.last_info()};
  }

  static void ExpectIdentical(const RootRun& a, const RootRun& b) {
    EXPECT_EQ(a.action.type, b.action.type);
    EXPECT_EQ(a.action.exec_a, b.action.exec_a);
    EXPECT_EQ(a.action.exec_b, b.action.exec_b);
    EXPECT_EQ(a.info.iterations_run, b.info.iterations_run);
    ASSERT_EQ(a.info.root_edges.size(), b.info.root_edges.size());
    for (size_t i = 0; i < a.info.root_edges.size(); ++i) {
      const auto& ea = a.info.root_edges[i];
      const auto& eb = b.info.root_edges[i];
      EXPECT_EQ(ea.action.type, eb.action.type) << "edge " << i;
      EXPECT_EQ(ea.action.exec_a, eb.action.exec_a) << "edge " << i;
      EXPECT_EQ(ea.visits, eb.visits) << "edge " << i;
      // Bit-identical, not approximately equal: the merge combines worker
      // results in worker order, so the float ops happen in one order.
      EXPECT_EQ(ea.mean_return, eb.mean_return) << "edge " << i;
    }
  }

  QuerySpec query_;
  TwoPointPrior prior_;
  std::unique_ptr<QueryMdp> mdp_;
  std::map<ExprSig, double> base_counts_;
};

TEST_F(MctsDeterminismTest, SameSeedSameMergeAcrossPoolRuns) {
  parallel::ThreadPool pool(4);
  RootRun first = Run(&pool, 991);
  RootRun second = Run(&pool, 991);
  ExpectIdentical(first, second);
  // A different seed must be allowed to disagree on the statistics (the
  // chosen action may coincide); this guards against the runs comparing
  // trivially-equal constants.
  RootRun other = Run(&pool, 17);
  bool any_diff = other.info.root_edges.size() != first.info.root_edges.size();
  for (size_t i = 0; !any_diff && i < first.info.root_edges.size(); ++i) {
    any_diff = first.info.root_edges[i].visits != other.info.root_edges[i].visits ||
               first.info.root_edges[i].mean_return !=
                   other.info.root_edges[i].mean_return;
  }
  EXPECT_TRUE(any_diff) << "seed is not reaching the per-worker searches";
}

// ---------------------------------------------------------------------------
// Trace determinism: span ids and sequence numbers come from per-lane
// Pcg32 streams reset by StartTracing — never from the clock — so two
// same-seed serial runs must produce byte-identical trace files once the
// two wall-clock fields (ts, dur) are zeroed out.
// ---------------------------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void ZeroWallClockFields(obs::JsonValue* doc) {
  obs::JsonValue* events = doc->FindMutable("traceEvents");
  ASSERT_NE(events, nullptr);
  for (obs::JsonValue& event : events->array) {
    for (const char* field : {"ts", "dur"}) {
      obs::JsonValue* value = event.FindMutable(field);
      if (value != nullptr) {
        value->number = 0;
        value->number_text = "0";
      }
    }
  }
}

TEST_F(MctsDeterminismTest, SameSeedTracesAreByteIdenticalModuloTime) {
  // pool = nullptr runs the 4 logical MCTS workers inline on this thread,
  // in worker order, so lane contents (not just per-lane streams) are
  // reproducible. Parallel runs keep per-lane determinism; cross-lane
  // interleaving is scheduling-dependent, which is why the byte-level
  // guarantee is stated for serial runs.
  std::vector<std::string> serialized;
  for (const char* tag : {"a", "b"}) {
    std::string path =
        ::testing::TempDir() + "/determinism_trace_" + tag + ".json";
    ASSERT_TRUE(obs::StartTracing(path, /*seed=*/0xfeed).ok());
    Run(nullptr, 991);
    ASSERT_TRUE(obs::StopTracing().ok());
    auto doc = obs::JsonParse(ReadWholeFile(path));
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    ZeroWallClockFields(&*doc);
    serialized.push_back(doc->Serialize());
  }
  // Guard against the comparison passing vacuously on empty traces.
  EXPECT_NE(serialized[0].find("\"cat\":\"mcts\""), std::string::npos);
  EXPECT_EQ(serialized[0], serialized[1]);
}

TEST_F(MctsDeterminismTest, PoolAndSequentialWorkersAgree) {
  // Null pool runs the same 4 logical workers on the caller thread; the
  // merged statistics must not depend on where the workers ran.
  parallel::ThreadPool pool(4);
  RootRun threaded = Run(&pool, 2024);
  RootRun sequential = Run(nullptr, 2024);
  ExpectIdentical(threaded, sequential);
}

// ---------------------------------------------------------------------------
// Parallel execution + Σ: same plan, same pool width, two runs -> identical
// row sets, accounting totals, observed counts and HLL distinct estimates.
// ---------------------------------------------------------------------------

struct ExecRun {
  uint64_t rows = 0;
  uint64_t work_units = 0;
  uint64_t objects = 0;
  std::vector<std::string> fingerprints;
  std::vector<std::pair<ExprSig, uint64_t>> counts;
  std::vector<DistinctObservation> distincts;
};

StatusOr<ExecRun> RunOnce(const Workload& workload, const BenchQuery& query,
                          const PlanNode::Ptr& plan, parallel::ThreadPool* pool) {
  MONSOON_ASSIGN_OR_RETURN(
      MaterializedStore store,
      MaterializedStore::ForQuery(*workload.catalog, query.spec));
  Executor executor(query.spec, &UdfRegistry::Global());
  ExecContext ctx;
  ctx.SetParallel(pool, /*morsel_size=*/37);
  MONSOON_ASSIGN_OR_RETURN(ExecResult exec, executor.Execute(plan, &store, &ctx));
  ExecRun run;
  run.rows = exec.output.table->num_rows();
  run.work_units = ctx.work_units();
  run.objects = ctx.objects_processed();
  run.fingerprints = RowFingerprints(*exec.output.table);
  run.counts = exec.observed_counts;
  std::sort(run.counts.begin(), run.counts.end());
  run.distincts = exec.observed_distincts;
  std::sort(run.distincts.begin(), run.distincts.end(),
            [](const DistinctObservation& a, const DistinctObservation& b) {
              return a.term_id != b.term_id ? a.term_id < b.term_id
                                            : a.expr < b.expr;
            });
  return run;
}

TEST(ExecDeterminismTest, SameSeedSameSigmaResultsAcrossRuns) {
  TpchOptions options;
  options.scale = 0.05;
  options.skew = SkewProfile::kHigh;
  auto workload = MakeTpchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  parallel::ThreadPool pool(4);
  size_t checked = 0;
  for (const BenchQuery& query : workload->queries) {
    if (checked++ >= 3) break;
    SCOPED_TRACE(query.name);
    PlanNode::Ptr plan = query.hand_plan;
    if (plan == nullptr) {
      StatsStore stats;
      for (int i = 0; i < query.spec.num_relations(); ++i) {
        auto rows = workload->catalog->RowCount(query.spec.relation(i).table_name);
        ASSERT_TRUE(rows.ok());
        stats.SetCount(ExprSig::Of(RelSet::Single(i), 0),
                       static_cast<double>(*rows));
      }
      auto plan_or = GreedyOptimizer().Optimize(query.spec, stats);
      ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
      plan = *plan_or;
    }
    plan = PlanNode::StatsCollect(plan);  // Σ pass exercises the HLL merge

    auto first = RunOnce(*workload, query, plan, &pool);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto second = RunOnce(*workload, query, plan, &pool);
    ASSERT_TRUE(second.ok()) << second.status().ToString();

    EXPECT_EQ(first->rows, second->rows);
    EXPECT_EQ(first->fingerprints, second->fingerprints);
    EXPECT_EQ(first->work_units, second->work_units);
    EXPECT_EQ(first->objects, second->objects);
    ASSERT_EQ(first->counts.size(), second->counts.size());
    for (size_t i = 0; i < first->counts.size(); ++i) {
      EXPECT_EQ(first->counts[i], second->counts[i]);
    }
    ASSERT_EQ(first->distincts.size(), second->distincts.size());
    for (size_t i = 0; i < first->distincts.size(); ++i) {
      EXPECT_EQ(first->distincts[i].term_id, second->distincts[i].term_id);
      EXPECT_EQ(first->distincts[i].expr, second->distincts[i].expr);
      EXPECT_EQ(first->distincts[i].distinct_count,
                second->distincts[i].distinct_count);
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace monsoon
