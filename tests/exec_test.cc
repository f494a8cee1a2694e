#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "parallel/thread_pool.h"
#include "plan/logical_ops.h"
#include "sql/parser.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "term_eval.h"
#include "workloads/udfbench.h"

namespace monsoon {
namespace {

// A small orders/customers/items database with known join results.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto customers = std::make_shared<Table>(
        Schema({{"id", ValueType::kInt64}, {"city", ValueType::kString}}));
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(customers
                      ->AppendRow({Value(i), Value("city" + std::to_string(i % 3))})
                      .ok());
    }
    ASSERT_TRUE(catalog_.AddTable("customers", customers).ok());

    auto orders = std::make_shared<Table>(
        Schema({{"cust", ValueType::kInt64}, {"amount", ValueType::kInt64}}));
    // Customer i has i orders (0 has none): 45 orders total.
    for (int64_t i = 0; i < 10; ++i) {
      for (int64_t j = 0; j < i; ++j) {
        ASSERT_TRUE(orders->AppendRow({Value(i), Value(j * 10)}).ok());
      }
    }
    ASSERT_TRUE(catalog_.AddTable("orders", orders).ok());
  }

  StatusOr<QuerySpec> Parse(const std::string& sql) {
    return SqlParser(&catalog_).Parse(sql);
  }

  Catalog catalog_;
};

TEST_F(ExecutorTest, HashJoinMatchesExpectedCardinality) {
  auto query = Parse(
      "SELECT * FROM customers c, orders o WHERE c.id = o.cust");
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  ASSERT_TRUE(store.ok());

  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});
  Executor executor(*query, &UdfRegistry::Global());
  ExecContext ctx;
  auto result = executor.Execute(plan, &*store, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.table->num_rows(), 45u);
  // Output schema is the concatenation of both qualified schemas.
  EXPECT_TRUE(result->output.schema.HasColumn("c.city"));
  EXPECT_TRUE(result->output.schema.HasColumn("o.amount"));
  // The result is registered in the store under its signature.
  EXPECT_TRUE(store->Contains(plan->output_sig()));
}

TEST_F(ExecutorTest, ObjectAccountingFollowsCostModel) {
  auto query = Parse("SELECT * FROM customers c, orders o WHERE c.id = o.cust");
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});
  Executor executor(*query, &UdfRegistry::Global());
  ExecContext ctx;
  ASSERT_TRUE(executor.Execute(plan, &*store, &ctx).ok());
  // Sec. 4.4: c(customers) + c(orders) + c(join) = 10 + 45 + 45.
  EXPECT_EQ(ctx.objects_processed(), 10u + 45u + 45u);
}

TEST_F(ExecutorTest, SelectionsAppliedAtLeaf) {
  auto query = Parse(
      "SELECT * FROM customers c, orders o "
      "WHERE c.id = o.cust AND c.city = 'city1'");
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  // city1 = customers 1, 4, 7 -> orders 1 + 4 + 7 = 12.
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});
  Executor executor(*query, &UdfRegistry::Global());
  ExecContext ctx;
  auto result = executor.Execute(plan, &*store, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.table->num_rows(), 12u);
}

TEST_F(ExecutorTest, CrossProductWithResidualFilter) {
  // '<>' predicate alone: no equi join available -> NL cross product.
  auto query = Parse("SELECT * FROM customers a, customers b WHERE a.id <> b.id");
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});
  Executor executor(*query, &UdfRegistry::Global());
  ExecContext ctx;
  auto result = executor.Execute(plan, &*store, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.table->num_rows(), 90u);  // 10*10 - 10
  // Nested-loop candidates are charged as work, not as cost objects.
  EXPECT_GE(ctx.work_units(), 100u);
}

TEST_F(ExecutorTest, ResidualFilterOnHashJoin) {
  // Equi join on city plus a residual '<>' on id: pairs of distinct
  // customers in the same city. Cities: {0,3,6,9} {1,4,7} {2,5,8}:
  // 4*4 + 3*3 + 3*3 - 10 self-pairs = 24.
  auto query = Parse(
      "SELECT * FROM customers a, customers b "
      "WHERE a.city = b.city AND a.id <> b.id");
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0, 1});
  Executor executor(*query, &UdfRegistry::Global());
  ExecContext ctx;
  auto result = executor.Execute(plan, &*store, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.table->num_rows(), 24u);
}

TEST_F(ExecutorTest, MultipleEquiPredsFormCompositeKey) {
  auto query = Parse(
      "SELECT * FROM customers a, customers b "
      "WHERE a.id = b.id AND a.city = b.city");
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0, 1});
  Executor executor(*query, &UdfRegistry::Global());
  ExecContext ctx;
  auto result = executor.Execute(plan, &*store, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.table->num_rows(), 10u);  // exact self-match
}

TEST_F(ExecutorTest, StatsCollectObservesDistincts) {
  auto query = Parse(
      "SELECT * FROM customers c, orders o "
      "WHERE c.city = o.amount AND c.id = o.cust");
  // (city vs amount is type-nonsensical but never matches; we only care
  // about the Σ observations here.)
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  PlanNode::Ptr plan = PlanNode::StatsCollect(MakeLeaf(*query, 0));
  Executor executor(*query, &UdfRegistry::Global());
  ExecContext ctx;
  auto result = executor.Execute(plan, &*store, &ctx);
  ASSERT_TRUE(result.ok());
  // Two terms are evaluable over customers: identity_str(c.city) and
  // identity(c.id).
  ASSERT_EQ(result->observed_distincts.size(), 2u);
  for (const DistinctObservation& obs : result->observed_distincts) {
    if (obs.term_id == query->predicate(0).left.term_id) {
      EXPECT_NEAR(obs.distinct_count, 3.0, 0.5);  // three cities
    } else {
      EXPECT_NEAR(obs.distinct_count, 10.0, 0.5);  // ten ids
    }
  }
  // Σ charges one extra pass over the 10 rows: 10 (scan) + 10 (Σ).
  EXPECT_EQ(ctx.objects_processed(), 20u);
  EXPECT_GT(ctx.stats_collect_seconds(), 0.0);
}

TEST_F(ExecutorTest, ObservedCountsCoverInteriorNodes) {
  auto query = Parse(
      "SELECT * FROM customers c, orders o WHERE c.id = o.cust "
      "AND c.city = 'city0'");
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});
  Executor executor(*query, &UdfRegistry::Global());
  ExecContext ctx;
  auto result = executor.Execute(plan, &*store, &ctx);
  ASSERT_TRUE(result.ok());
  // Three nodes: filtered customers leaf, orders leaf, join.
  EXPECT_EQ(result->observed_counts.size(), 3u);
}

TEST_F(ExecutorTest, WorkBudgetAborts) {
  auto query = Parse("SELECT * FROM orders a, orders b WHERE a.amount = b.amount");
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});
  Executor executor(*query, &UdfRegistry::Global());
  ExecContext ctx(/*work_budget=*/50);
  auto result = executor.Execute(plan, &*store, &ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(ctx.work_units(), 50u);
}

TEST_F(ExecutorTest, LeafPassThroughSharesTable) {
  auto query = Parse("SELECT * FROM customers c, orders o WHERE c.id = o.cust");
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  PlanNode::Ptr leaf = MakeLeaf(*query, 0);  // no selections
  Executor executor(*query, &UdfRegistry::Global());
  ExecContext ctx;
  auto result = executor.Execute(leaf, &*store, &ctx);
  ASSERT_TRUE(result.ok());
  auto base = store->Lookup(ExprSig::Of(RelSet::Single(0), 0));
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(result->output.table.get(), (*base)->table.get())
      << "filter-free leaves must not copy the table";
}

TEST_F(ExecutorTest, BindFailsOnUnknownUdf) {
  QuerySpec query;
  ASSERT_TRUE(query.AddRelation("c", "customers").ok());
  auto term = query.MakeTerm("no_such_udf", {"c.id"});
  ASSERT_TRUE(term.ok());
  Schema schema({{"c.id", ValueType::kInt64}});
  EXPECT_EQ(BoundTerm::Bind(*term, schema, UdfRegistry::Global()).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ExecutorTest, BindFailsOnUnknownColumn) {
  QuerySpec query;
  ASSERT_TRUE(query.AddRelation("c", "customers").ok());
  auto term = query.MakeTerm("identity", {"c.zzz"});
  ASSERT_TRUE(term.ok());
  Schema schema({{"c.id", ValueType::kInt64}});
  EXPECT_EQ(BoundTerm::Bind(*term, schema, UdfRegistry::Global()).status().code(),
            StatusCode::kNotFound);
}

// One sortable fingerprint per row; multiset equality == row-set equality.
std::vector<std::string> RowFingerprints(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    std::string fp;
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      fp += table.row(i).GetValue(c).ToString();
      fp += '\x1f';
    }
    rows.push_back(std::move(fp));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Test-local reference join: every (left, right) pair of the first two
// relations' base tables, kept when every predicate holds on the
// concatenated row.
StatusOr<Table> NestedLoopJoin(const Catalog& catalog, const QuerySpec& query) {
  std::vector<TablePtr> tables;
  Schema schema;
  for (int i = 0; i < 2; ++i) {
    const RelationRef& rel = query.relation(i);
    MONSOON_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel.table_name));
    tables.push_back(table);
    schema = Schema::Concat(schema, table->schema().Qualify(rel.alias));
  }
  struct BoundPred {
    bool equality;
    BoundTerm left;
    BoundTerm right;
  };
  std::vector<BoundPred> preds;
  for (const Predicate& pred : query.predicates()) {
    if (pred.kind != Predicate::Kind::kJoin) {
      return Status::InvalidArgument("the oracle evaluates join predicates only");
    }
    BoundPred bound;
    bound.equality = pred.equality;
    MONSOON_ASSIGN_OR_RETURN(bound.left,
                             BoundTerm::Bind(pred.left, schema, UdfRegistry::Global()));
    MONSOON_ASSIGN_OR_RETURN(
        bound.right, BoundTerm::Bind(*pred.right, schema, UdfRegistry::Global()));
    preds.push_back(std::move(bound));
  }
  Table out(schema);
  for (size_t li = 0; li < tables[0]->num_rows(); ++li) {
    for (size_t ri = 0; ri < tables[1]->num_rows(); ++ri) {
      out.AppendConcatRow(*tables[0], li, *tables[1], ri);
      const size_t row = out.num_rows() - 1;
      for (const BoundPred& pred : preds) {
        if ((EvalTermAt(pred.left, out, row) == EvalTermAt(pred.right, out, row)) !=
            pred.equality) {
          out.PopRow();
          break;
        }
      }
    }
  }
  return out;
}

// The hash join must agree with the nested-loop oracle on every query
// shape: same rows (as a multiset) and the cost model's objects, which for
// a join of two bare leaves are c(left) + c(right) + c(join).
class NestedLoopOracleTest : public ExecutorTest,
                             public ::testing::WithParamInterface<const char*> {};

TEST_P(NestedLoopOracleTest, HashJoinMatches) {
  auto query = Parse(GetParam());
  ASSERT_TRUE(query.ok()) << GetParam();
  std::vector<int> all_preds;
  for (const Predicate& pred : query->predicates()) {
    if (pred.kind == Predicate::Kind::kJoin) all_preds.push_back(pred.pred_id);
  }
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), all_preds);
  Executor executor(*query, &UdfRegistry::Global());
  auto store = MaterializedStore::ForQuery(catalog_, *query);
  ASSERT_TRUE(store.ok());
  ExecContext ctx;
  auto result = executor.Execute(plan, &*store, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto expected = NestedLoopJoin(catalog_, *query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(RowFingerprints(*result->output.table), RowFingerprints(*expected))
      << GetParam();
  uint64_t inputs = 0;
  for (int i = 0; i < 2; ++i) {
    auto rows = catalog_.RowCount(query->relation(i).table_name);
    ASSERT_TRUE(rows.ok());
    inputs += *rows;
  }
  EXPECT_EQ(ctx.objects_processed(), inputs + expected->num_rows())
      << "cost-model objects are plan properties";
}

INSTANTIATE_TEST_SUITE_P(
    Queries, NestedLoopOracleTest,
    ::testing::Values(
        "SELECT * FROM customers c, orders o WHERE c.id = o.cust",
        "SELECT * FROM customers a, customers b WHERE a.id = b.id "
        "AND a.city = b.city",
        "SELECT * FROM customers a, customers b WHERE a.city = b.city "
        "AND a.id <> b.id",
        "SELECT * FROM orders a, orders b WHERE a.amount = b.amount",
        "SELECT * FROM customers c, orders o WHERE c.city = o.amount "
        "AND c.id = o.cust"));

// ---------------------------------------------------------------------------
// Serial vs parallel equivalence: the morsel-driven paths must be invisible
// in every observable output — result rows (as a multiset; parallel probe
// may permute row order within a morsel's matches), per-node observed
// cardinalities, and Σ distinct-count observations (bit-identical, because
// HLL register-wise-max merge is exact). Exercised over every workload
// generator so all four data shapes (skew, string keys, UDF predicates,
// hand-planned OTT) cross the parallel leaf / join / Σ code.
// ---------------------------------------------------------------------------

struct EquivalenceRun {
  uint64_t rows = 0;
  uint64_t work_units = 0;
  uint64_t objects = 0;
  std::vector<std::string> fingerprints;
  std::vector<std::pair<ExprSig, uint64_t>> counts;
  std::vector<DistinctObservation> distincts;
};

StatusOr<EquivalenceRun> RunPlan(const Workload& workload,
                                 const BenchQuery& query,
                                 const PlanNode::Ptr& plan,
                                 parallel::ThreadPool* pool,
                                 size_t morsel_size) {
  MONSOON_ASSIGN_OR_RETURN(MaterializedStore store,
                           MaterializedStore::ForQuery(*workload.catalog,
                                                       query.spec));
  Executor executor(query.spec, &UdfRegistry::Global());
  ExecContext ctx;
  ctx.SetParallel(pool, morsel_size);
  MONSOON_ASSIGN_OR_RETURN(ExecResult exec,
                           executor.Execute(plan, &store, &ctx));
  EquivalenceRun run;
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

void ExpectSerialParallelEquivalence(const Workload& workload,
                                     size_t max_queries) {
  parallel::ThreadPool pool(4);
  // Morsel far below every table size so all parallel paths engage.
  constexpr size_t kMorsel = 37;
  size_t checked = 0;
  for (const BenchQuery& query : workload.queries) {
    if (checked++ >= max_queries) break;
    SCOPED_TRACE(workload.name + " / " + query.name);

    PlanNode::Ptr plan = query.hand_plan;
    if (plan == nullptr) {
      StatsStore stats;
      for (int i = 0; i < query.spec.num_relations(); ++i) {
        auto rows =
            workload.catalog->RowCount(query.spec.relation(i).table_name);
        ASSERT_TRUE(rows.ok());
        stats.SetCount(ExprSig::Of(RelSet::Single(i), 0),
                       static_cast<double>(*rows));
      }
      auto plan_or = GreedyOptimizer().Optimize(query.spec, stats);
      ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
      plan = *plan_or;
    }
    // Σ on top so observed_distincts is populated too.
    plan = PlanNode::StatsCollect(plan);

    auto serial = RunPlan(workload, query, plan, nullptr, kMorsel);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    auto par = RunPlan(workload, query, plan, &pool, kMorsel);
    ASSERT_TRUE(par.ok()) << par.status().ToString();

    EXPECT_EQ(serial->rows, par->rows);
    EXPECT_EQ(serial->fingerprints, par->fingerprints);
    // Barrier-charged accounting: identical totals, not merely close.
    EXPECT_EQ(serial->work_units, par->work_units);
    EXPECT_EQ(serial->objects, par->objects);
    ASSERT_EQ(serial->counts.size(), par->counts.size());
    for (size_t i = 0; i < serial->counts.size(); ++i) {
      EXPECT_EQ(serial->counts[i].first, par->counts[i].first);
      EXPECT_EQ(serial->counts[i].second, par->counts[i].second);
    }
    ASSERT_EQ(serial->distincts.size(), par->distincts.size());
    for (size_t i = 0; i < serial->distincts.size(); ++i) {
      EXPECT_EQ(serial->distincts[i].term_id, par->distincts[i].term_id);
      EXPECT_EQ(serial->distincts[i].expr, par->distincts[i].expr);
      // Bit-identical: HLL merge is exact, and both paths hash the same
      // values into the same registers.
      EXPECT_EQ(serial->distincts[i].distinct_count,
                par->distincts[i].distinct_count);
    }
  }
  EXPECT_GT(checked, 0u) << "workload produced no queries";
}

TEST(ParallelEquivalenceTest, Tpch) {
  TpchOptions options;
  options.scale = 0.05;
  options.skew = SkewProfile::kHigh;  // skew stresses morsel balance
  auto workload = MakeTpchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectSerialParallelEquivalence(*workload, 4);
}

TEST(ParallelEquivalenceTest, Imdb) {
  ImdbOptions options;
  options.scale = 0.05;
  auto workload = MakeImdbWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectSerialParallelEquivalence(*workload, 4);
}

TEST(ParallelEquivalenceTest, Ott) {
  OttOptions options;
  options.rows_per_table = 400;
  options.key_cardinality = 25;
  auto workload = MakeOttWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectSerialParallelEquivalence(*workload, 4);
}

TEST(ParallelEquivalenceTest, UdfBench) {
  UdfBenchOptions options;
  options.scale = 0.05;
  auto workload = MakeUdfBenchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectSerialParallelEquivalence(*workload, 4);
}

TEST(MaterializedStoreTest, SharedBaseTablesQualifiedPerAlias) {
  Catalog catalog;
  auto t = std::make_shared<Table>(Schema({{"k", ValueType::kInt64}}));
  ASSERT_TRUE(t->AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(catalog.AddTable("tab", t).ok());

  QuerySpec query;
  ASSERT_TRUE(query.AddRelation("x", "tab").ok());
  ASSERT_TRUE(query.AddRelation("y", "tab").ok());
  auto store = MaterializedStore::ForQuery(catalog, query);
  ASSERT_TRUE(store.ok());
  auto x = store->Lookup(ExprSig::Of(RelSet::Single(0), 0));
  auto y = store->Lookup(ExprSig::Of(RelSet::Single(1), 0));
  ASSERT_TRUE(x.ok() && y.ok());
  EXPECT_EQ((*x)->table.get(), (*y)->table.get()) << "data shared";
  EXPECT_TRUE((*x)->schema.HasColumn("x.k"));
  EXPECT_TRUE((*y)->schema.HasColumn("y.k"));
}

}  // namespace
}  // namespace monsoon
