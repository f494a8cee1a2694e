// Property-based differential testing: random tiny databases and random
// conjunctive UDF queries, executed three ways —
//   1. a brute-force reference evaluator (full cross product + filter),
//   2. the engine with Defaults / Greedy plans (hash joins, pushdown),
//   3. the full Monsoon optimizer (MCTS, Σ passes, re-optimization) —
// must all report exactly the same result cardinality. A fixed left-deep
// plan additionally runs through the executor under every thread /
// shard / UDF-cache configuration, which must agree on the full rows and
// on every accounting counter, not just on the cardinality.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/baselines.h"
#include "exec/executor.h"
#include "exec/materialized_store.h"
#include "monsoon/monsoon_optimizer.h"
#include "parallel/thread_pool.h"
#include "shard/shard.h"
#include "term_eval.h"

namespace monsoon {
namespace {

// Builds a table of `rows` rows with `cols` int64 columns over small
// random domains (lots of duplicates -> non-trivial join fan-outs).
TablePtr RandomTable(Pcg32& rng, int rows, int cols) {
  std::vector<ColumnDef> defs;
  for (int c = 0; c < cols; ++c) {
    defs.push_back({"c" + std::to_string(c), ValueType::kInt64});
  }
  auto table = std::make_shared<Table>(Schema(defs));
  std::vector<int64_t> domains(cols);
  for (int c = 0; c < cols; ++c) domains[c] = 2 + rng.NextBounded(8);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.emplace_back(static_cast<int64_t>(
          rng.NextBounded(static_cast<uint32_t>(domains[c]))));
    }
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return table;
}

// Random conjunctive query over `num_rels` relations: a spanning chain of
// join predicates plus optional extras (selection, '<>', a second join
// predicate between an already-connected pair).
StatusOr<QuerySpec> RandomQuery(Pcg32& rng, const Catalog& catalog, int num_rels,
                                int cols) {
  QuerySpec query;
  for (int i = 0; i < num_rels; ++i) {
    MONSOON_ASSIGN_OR_RETURN(
        int idx, query.AddRelation("t" + std::to_string(i),
                                   "tab" + std::to_string(i)));
    (void)idx;
  }
  (void)catalog;
  auto random_attr = [&](int rel) {
    return "t" + std::to_string(rel) + ".c" +
           std::to_string(rng.NextBounded(static_cast<uint32_t>(cols)));
  };
  auto random_fn = [&]() -> std::string {
    switch (rng.NextBounded(3)) {
      case 0:
        return "identity";
      case 1:
        return "bucket10";
      default:
        return "bucket100";
    }
  };
  // Spanning chain t0 - t1 - ... so the query graph is connected.
  for (int i = 1; i < num_rels; ++i) {
    MONSOON_ASSIGN_OR_RETURN(UdfTerm left,
                             query.MakeTerm(random_fn(), {random_attr(i - 1)}));
    MONSOON_ASSIGN_OR_RETURN(UdfTerm right,
                             query.MakeTerm(random_fn(), {random_attr(i)}));
    MONSOON_RETURN_IF_ERROR(
        query.AddJoinPredicate(std::move(left), std::move(right)));
  }
  // Optional extras.
  if (rng.NextBounded(2) == 0) {
    int rel = static_cast<int>(rng.NextBounded(static_cast<uint32_t>(num_rels)));
    MONSOON_ASSIGN_OR_RETURN(UdfTerm term,
                             query.MakeTerm("identity", {random_attr(rel)}));
    MONSOON_RETURN_IF_ERROR(query.AddSelectionPredicate(
        std::move(term), Value(static_cast<int64_t>(rng.NextBounded(4)))));
  }
  if (num_rels >= 2 && rng.NextBounded(2) == 0) {
    int a = static_cast<int>(rng.NextBounded(static_cast<uint32_t>(num_rels - 1)));
    MONSOON_ASSIGN_OR_RETURN(UdfTerm left,
                             query.MakeTerm("identity", {random_attr(a)}));
    MONSOON_ASSIGN_OR_RETURN(UdfTerm right,
                             query.MakeTerm("identity", {random_attr(a + 1)}));
    bool equality = rng.NextBounded(2) == 0;
    MONSOON_RETURN_IF_ERROR(
        query.AddJoinPredicate(std::move(left), std::move(right), equality));
  }
  return query;
}

// Reference: materialize the full cross product, then filter by every
// predicate evaluated on the concatenated row. O(prod of sizes) — only
// usable at toy scale, which is the point.
StatusOr<uint64_t> BruteForceCount(const Catalog& catalog, const QuerySpec& query) {
  std::vector<TablePtr> tables;
  Schema schema;
  for (const RelationRef& rel : query.relations()) {
    MONSOON_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel.table_name));
    tables.push_back(table);
    schema = Schema::Concat(schema, table->schema().Qualify(rel.alias));
  }
  std::vector<std::pair<BoundTerm, BoundTerm>> join_terms;
  struct BoundPred {
    Predicate::Kind kind;
    bool equality;
    BoundTerm left;
    BoundTerm right;  // join only
    Value constant;   // selection only
  };
  std::vector<BoundPred> preds;
  for (const Predicate& pred : query.predicates()) {
    BoundPred bound;
    bound.kind = pred.kind;
    bound.equality = pred.equality;
    MONSOON_ASSIGN_OR_RETURN(bound.left,
                             BoundTerm::Bind(pred.left, schema, UdfRegistry::Global()));
    if (pred.kind == Predicate::Kind::kJoin) {
      MONSOON_ASSIGN_OR_RETURN(
          bound.right, BoundTerm::Bind(*pred.right, schema, UdfRegistry::Global()));
    } else {
      bound.constant = pred.constant;
    }
    preds.push_back(std::move(bound));
  }

  // Odometer over row indices.
  std::vector<size_t> index(tables.size(), 0);
  Table scratch(schema);
  uint64_t count = 0;
  for (;;) {
    // Assemble the concatenated row.
    std::vector<Value> row;
    for (size_t t = 0; t < tables.size(); ++t) {
      for (size_t c = 0; c < tables[t]->num_columns(); ++c) {
        row.push_back(tables[t]->ValueAt(c, index[t]));
      }
    }
    MONSOON_RETURN_IF_ERROR(scratch.AppendRow(row));
    size_t row_idx = scratch.num_rows() - 1;
    bool keep = true;
    for (const BoundPred& pred : preds) {
      Value l = EvalTermAt(pred.left, scratch, row_idx);
      bool ok;
      if (pred.kind == Predicate::Kind::kSelection) {
        ok = l == pred.constant;
      } else {
        Value r = EvalTermAt(pred.right, scratch, row_idx);
        ok = pred.equality ? l == r : l != r;
      }
      if (!ok) {
        keep = false;
        break;
      }
    }
    if (keep) ++count;
    scratch.PopRow();

    // Advance the odometer.
    size_t t = 0;
    for (; t < tables.size(); ++t) {
      if (++index[t] < tables[t]->num_rows()) break;
      index[t] = 0;
    }
    if (t == tables.size()) break;
  }
  return count;
}

// The left-deep plan t0 ⋈ t1 ⋈ ... with every predicate applied at the
// lowest node covering its relations, a Σ over the bare first leaf (a
// store-resident input, so cached columns apply) and one over the root.
PlanNode::Ptr FixedLeftDeepPlan(const QuerySpec& query) {
  auto preds_within = [&](RelSet rels, std::vector<bool>* applied) {
    std::vector<int> ids;
    for (const Predicate& pred : query.predicates()) {
      if ((*applied)[pred.pred_id] || !rels.ContainsAll(pred.rels())) continue;
      (*applied)[pred.pred_id] = true;
      ids.push_back(pred.pred_id);
    }
    return ids;
  };
  std::vector<bool> applied(query.predicates().size(), false);
  auto leaf = [&](int rel) {
    RelSet single = RelSet::Single(rel);
    return PlanNode::Leaf(ExprSig::Of(single, 0), preds_within(single, &applied));
  };
  RelSet joined = RelSet::Single(0);
  PlanNode::Ptr plan = leaf(0);
  if (plan->pred_ids().empty()) plan = PlanNode::StatsCollect(plan);
  for (int i = 1; i < query.num_relations(); ++i) {
    PlanNode::Ptr right = leaf(i);
    joined.Add(i);
    plan = PlanNode::Join(plan, right, preds_within(joined, &applied));
  }
  return PlanNode::StatsCollect(plan);
}

// Everything an executor configuration may not change: the sorted rows,
// both accounting counters and the Σ distinct counts.
struct ConfigRun {
  std::vector<std::string> rows;
  uint64_t objects = 0;
  uint64_t work_units = 0;
  std::vector<std::tuple<int, uint64_t, uint64_t, double>> distincts;
};

StatusOr<ConfigRun> RunFixedPlan(const Catalog& catalog, const QuerySpec& query,
                                 const PlanNode::Ptr& plan,
                                 parallel::ThreadPool* pool, int shards,
                                 bool cache_on) {
  // ForQuery partitions base tables through the process default shard
  // count; restore the unsharded default whatever happens.
  shard::SetDefaultShardCount(shards);
  StatusOr<MaterializedStore> store = MaterializedStore::ForQuery(catalog, query);
  shard::SetDefaultShardCount(1);
  MONSOON_RETURN_IF_ERROR(store.status());
  store->udf_cache()->set_byte_budget(cache_on ? size_t{64} << 20 : 0);
  Executor executor(query, &UdfRegistry::Global());
  ExecContext ctx;
  // Tables hold 3..20 rows: a 2-row morsel makes every pass morsel-driven.
  ctx.SetParallel(pool, /*morsel_size=*/2);
  ctx.SetShards(static_cast<size_t>(shards));
  MONSOON_ASSIGN_OR_RETURN(ExecResult exec, executor.Execute(plan, &*store, &ctx));
  ConfigRun run;
  const Table& out = *exec.output.table;
  for (size_t i = 0; i < out.num_rows(); ++i) {
    std::string fp;
    for (size_t c = 0; c < out.num_columns(); ++c) {
      fp += out.ValueAt(c, i).ToString();
      fp += '\x1f';
    }
    run.rows.push_back(std::move(fp));
  }
  std::sort(run.rows.begin(), run.rows.end());
  run.objects = ctx.objects_processed();
  run.work_units = ctx.work_units();
  for (const DistinctObservation& d : exec.observed_distincts) {
    run.distincts.emplace_back(d.term_id, d.expr.rels, d.expr.preds,
                               d.distinct_count);
  }
  std::sort(run.distincts.begin(), run.distincts.end());
  return run;
}

// Runs the fixed plan under {threads 1/4} x {shards 1/4} x {UDF cache
// on/off}; every configuration must match the first.
void ExpectExecutorConfigsAgree(const Catalog& catalog, const QuerySpec& query,
                                uint64_t expected_rows) {
  PlanNode::Ptr plan = FixedLeftDeepPlan(query);
  parallel::ThreadPool pool(4);
  bool have_reference = false;
  ConfigRun reference;
  for (parallel::ThreadPool* threads : {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
    for (int shards : {1, 4}) {
      for (bool cache_on : {false, true}) {
        SCOPED_TRACE(std::string("threads=") + (threads == nullptr ? "1" : "4") +
                     " shards=" + std::to_string(shards) +
                     " cache=" + (cache_on ? "on" : "off"));
        auto run = RunFixedPlan(catalog, query, plan, threads, shards, cache_on);
        ASSERT_TRUE(run.ok()) << run.status().ToString() << "\n"
                              << plan->ToString(query);
        if (!have_reference) {
          EXPECT_EQ(run->rows.size(), expected_rows) << plan->ToString(query);
          reference = std::move(*run);
          have_reference = true;
          continue;
        }
        EXPECT_EQ(run->rows, reference.rows);
        EXPECT_EQ(run->objects, reference.objects);
        EXPECT_EQ(run->work_units, reference.work_units);
        EXPECT_EQ(run->distincts, reference.distincts);
      }
    }
  }
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, AllExecutionPathsAgree) {
  Pcg32 rng(1000 + static_cast<uint64_t>(GetParam()));
  const int num_rels = 2 + static_cast<int>(rng.NextBounded(3));  // 2..4
  const int cols = 2;

  Catalog catalog;
  for (int i = 0; i < num_rels; ++i) {
    int rows = 3 + static_cast<int>(rng.NextBounded(18));
    ASSERT_TRUE(
        catalog.AddTable("tab" + std::to_string(i), RandomTable(rng, rows, cols))
            .ok());
  }
  auto query = RandomQuery(rng, catalog, num_rels, cols);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(catalog.ValidateQuery(*query).ok());

  auto expected = BruteForceCount(catalog, *query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (auto& strategy : {MakeDefaultsStrategy(), MakeGreedyStrategy(),
                         MakeSamplingStrategy(), MakeSkinnerStrategy()}) {
    RunResult result = strategy->Run(catalog, *query, 0);
    ASSERT_TRUE(result.ok()) << strategy->name() << ": "
                             << result.status.ToString() << "\n"
                             << query->ToString();
    EXPECT_EQ(result.result_rows, *expected)
        << strategy->name() << " disagrees with brute force on\n"
        << query->ToString();
  }

  ExpectExecutorConfigsAgree(catalog, *query, *expected);

  MonsoonOptimizer::Options options;
  options.mcts.iterations = 60;
  options.seed = 77 + static_cast<uint64_t>(GetParam());
  MonsoonOptimizer monsoon(&catalog, options);
  RunResult result = monsoon.Run(*query);
  ASSERT_TRUE(result.ok()) << result.status.ToString() << "\n" << query->ToString();
  EXPECT_EQ(result.result_rows, *expected)
      << "Monsoon disagrees with brute force on\n"
      << query->ToString();
}

INSTANTIATE_TEST_SUITE_P(RandomQueries, DifferentialTest, ::testing::Range(0, 24));

}  // namespace
}  // namespace monsoon
