#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/udf_cache.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "parallel/thread_pool.h"
#include "plan/logical_ops.h"
#include "row_fingerprints.h"
#include "sql/parser.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "term_eval.h"
#include "workloads/udfbench.h"

namespace monsoon {
namespace {

// ---------------------------------------------------------------------------
// Direct cache unit tests: hit/miss/eviction accounting, the LRU byte
// budget, the disabled path, and positional staleness.
// ---------------------------------------------------------------------------

class UdfCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_shared<Table>(
        Schema({{"c.id", ValueType::kInt64}, {"c.city", ValueType::kString}}));
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          table_->AppendRow({Value(i), Value("city" + std::to_string(i % 7))})
              .ok());
    }
    ASSERT_TRUE(query_.AddRelation("c", "customers").ok());
  }

  BoundTerm BindTerm(const std::string& udf, const std::string& column) {
    auto term = query_.MakeTerm(udf, {column});
    EXPECT_TRUE(term.ok());
    auto bound = BoundTerm::Bind(*term, table_->schema(), UdfRegistry::Global());
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return *bound;
  }

  QuerySpec query_;
  std::shared_ptr<Table> table_;
};

TEST_F(UdfCacheTest, MissBuildsThenHitsServeResidentColumn) {
  UdfColumnCache cache(size_t{1} << 20);
  BoundTerm bound = BindTerm("identity", "c.id");
  ExprSig sig = ExprSig::Of(RelSet::Single(0), 0);

  auto first = cache.GetOrBuild(sig, bound, table_, nullptr, 16);
  ASSERT_TRUE(first.ok());
  ASSERT_NE(*first, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ((*first)->size(), 100u);
  EXPECT_EQ((*first)->type(), ValueType::kInt64);

  auto second = cache.GetOrBuild(sig, bound, table_, nullptr, 16);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->get(), first->get()) << "hit must return the same column";
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // A different bound term over the same expression is a distinct entry.
  BoundTerm str = BindTerm("identity_str", "c.city");
  auto third = cache.GetOrBuild(sig, str, table_, nullptr, 16);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.num_entries(), 2u);
  EXPECT_EQ((*third)->type(), ValueType::kString);
}

TEST_F(UdfCacheTest, CachedValuesAndHashesMatchPerRowEval) {
  UdfColumnCache cache(size_t{1} << 20);
  ExprSig sig = ExprSig::Of(RelSet::Single(0), 0);
  parallel::ThreadPool pool(4);

  for (const auto& [udf, column] :
       std::vector<std::pair<std::string, std::string>>{
           {"identity", "c.id"}, {"identity_str", "c.city"}}) {
    BoundTerm bound = BindTerm(udf, column);
    // Parallel fill with a small morsel so several workers write ranges.
    auto col = cache.GetOrBuild(sig, bound, table_, &pool, 7);
    ASSERT_TRUE(col.ok());
    const FlatView view = FlatView::Of(**col);
    for (size_t row = 0; row < table_->num_rows(); ++row) {
      Value expect = EvalTermAt(bound, *table_, row);
      EXPECT_TRUE(view.EqualsValue(row, expect));
      EXPECT_EQ(view.HashAt(row), expect.Hash())
          << "cached hashes must be Value::Hash()-identical (row " << row << ")";
      EXPECT_EQ(view.ValueAt(row), expect);
    }
  }
}

// A fill fault fires at its row's coordinate, before that row's batch is
// evaluated, and the failed fill publishes nothing.
size_t g_fill_calls = 0;

TEST_F(UdfCacheTest, FillFaultFiresAtItsRowAndPublishesNothing) {
  UdfRegistry::Global().RegisterOrReplace(Int64Udf("fill_count", [](int64_t x) {
    ++g_fill_calls;
    return x;
  }));
  // Three batches in one morsel: [0, 1024), [1024, 2048), [2048, 2100).
  auto table = std::make_shared<Table>(Schema({{"c.id", ValueType::kInt64}}));
  for (int64_t i = 0; i < 2100; ++i) {
    ASSERT_TRUE(table->AppendRow({Value(i)}).ok());
  }
  // A seed whose first firing row k lies in the second batch.
  constexpr double kProbability = 0.001;
  uint64_t seed = 0;
  size_t k = 0;
  for (seed = 1; seed < 10000; ++seed) {
    k = 0;
    while (k < 2100 && !fault::ShouldFire(seed, "exec.udf_cache.fill", k, 0,
                                          kProbability)) {
      ++k;
    }
    if (k >= kBatchRows && k < 2 * kBatchRows) break;
  }
  ASSERT_LT(seed, 10000u);
  fault::FaultConfig base;
  base.seed = seed;
  ASSERT_TRUE(fault::InstallSpec("exec.udf_cache.fill=0.001:permanent", base).ok());

  auto term = query_.MakeTerm("fill_count", {"c.id"});
  ASSERT_TRUE(term.ok());
  auto bound = BoundTerm::Bind(*term, table->schema(), UdfRegistry::Global());
  ASSERT_TRUE(bound.ok());
  UdfColumnCache cache(size_t{1} << 20);
  const ExprSig sig = ExprSig::Of(RelSet::Single(0), 0);
  g_fill_calls = 0;
  auto col = cache.GetOrBuild(sig, *bound, table, nullptr, 2100);
  fault::Clear();
  ASSERT_FALSE(col.ok());
  EXPECT_NE(col.status().message().find("exec.udf_cache.fill coord=" +
                                        std::to_string(k)),
            std::string::npos)
      << col.status().ToString();
  EXPECT_EQ(g_fill_calls, kBatchRows) << "only the first batch was evaluated";
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);

  // Without the fault the same fill succeeds and publishes.
  auto rebuilt = cache.GetOrBuild(sig, *bound, table, nullptr, 2100);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ(g_fill_calls, kBatchRows + 2100);
}

TEST_F(UdfCacheTest, DisabledCacheReturnsNullWithoutEvaluating) {
  UdfColumnCache cache(0);
  BoundTerm bound = BindTerm("identity", "c.id");
  auto col =
      cache.GetOrBuild(ExprSig::Of(RelSet::Single(0), 0), bound, table_,
                       nullptr, 16);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(*col, nullptr);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST_F(UdfCacheTest, LruEvictsLeastRecentlyUsedUnderTinyBudget) {
  BoundTerm bound = BindTerm("identity", "c.id");
  // Measure one column's size with an ample budget first.
  UdfColumnCache probe(size_t{1} << 20);
  auto col = probe.GetOrBuild(ExprSig::Of(RelSet::Single(0), 0), bound,
                              table_, nullptr, 16);
  ASSERT_TRUE(col.ok());
  size_t one = (*col)->ApproxBytes();

  // Budget fits exactly two columns. Three signatures -> one eviction, and
  // the victim is the least recently touched.
  UdfColumnCache cache(2 * one);
  ExprSig a = ExprSig::Of(RelSet::Single(0), 0);
  ExprSig b = ExprSig::Of(RelSet::Single(0), 1);
  ExprSig c = ExprSig::Of(RelSet::Single(0), 2);
  ASSERT_TRUE(cache.GetOrBuild(a, bound, table_, nullptr, 16).ok());
  ASSERT_TRUE(cache.GetOrBuild(b, bound, table_, nullptr, 16).ok());
  EXPECT_EQ(cache.num_entries(), 2u);
  // Touch `a` so `b` becomes the LRU victim.
  ASSERT_TRUE(cache.GetOrBuild(a, bound, table_, nullptr, 16).ok());
  ASSERT_TRUE(cache.GetOrBuild(c, bound, table_, nullptr, 16).ok());
  EXPECT_EQ(cache.num_entries(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes_in_use, 2 * one);

  // `a` survived (hit); `b` was evicted (miss rebuilds it).
  uint64_t hits_before = cache.stats().hits;
  ASSERT_TRUE(cache.GetOrBuild(a, bound, table_, nullptr, 16).ok());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  uint64_t misses_before = cache.stats().misses;
  ASSERT_TRUE(cache.GetOrBuild(b, bound, table_, nullptr, 16).ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST_F(UdfCacheTest, OversizedColumnReturnedButNotRetained) {
  BoundTerm bound = BindTerm("identity", "c.id");
  UdfColumnCache cache(1);  // enabled, but nothing fits
  auto col = cache.GetOrBuild(ExprSig::Of(RelSet::Single(0), 0), bound,
                              table_, nullptr, 16);
  ASSERT_TRUE(col.ok());
  ASSERT_NE(*col, nullptr) << "caller still gets the column (pinned)";
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(UdfCacheTest, StaleTableInvalidatesPositionalColumn) {
  BoundTerm bound = BindTerm("identity", "c.id");
  UdfColumnCache cache(size_t{1} << 20);
  ExprSig sig = ExprSig::Of(RelSet::Single(0), 0);
  ASSERT_TRUE(cache.GetOrBuild(sig, bound, table_, nullptr, 16).ok());

  // Same signature, different physical table (rows permuted): the entry
  // must be evicted and rebuilt, never served positionally stale.
  auto permuted = std::make_shared<Table>(table_->schema());
  for (size_t i = table_->num_rows(); i-- > 0;) {
    ASSERT_TRUE(
        permuted->AppendRow({table_->ValueAt(0, i), table_->ValueAt(1, i)}).ok());
  }
  auto col = cache.GetOrBuild(sig, bound, permuted, nullptr, 16);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ((*col)->Int64At(0), table_->Int64At(0, table_->num_rows() - 1));
}

TEST_F(UdfCacheTest, ShrinkingBudgetEvictsToFit) {
  BoundTerm bound = BindTerm("identity", "c.id");
  UdfColumnCache cache(size_t{1} << 20);
  ASSERT_TRUE(
      cache.GetOrBuild(ExprSig::Of(RelSet::Single(0), 0), bound, table_,
                       nullptr, 16)
          .ok());
  ASSERT_TRUE(
      cache.GetOrBuild(ExprSig::Of(RelSet::Single(0), 1), bound, table_,
                       nullptr, 16)
          .ok());
  EXPECT_EQ(cache.num_entries(), 2u);
  cache.set_byte_budget(0);
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  EXPECT_EQ(cache.byte_budget(), 0u);
}

// ---------------------------------------------------------------------------
// Executor-level equivalence: with the cache on, off, serial, and parallel,
// every observable output must be identical — result rows (as a multiset),
// work_units, objects_processed, per-node observed cardinalities, and Σ
// distinct-count observations (bit-identical; cached hash columns feed the
// same HLL registers as per-row Value::Hash()).
// ---------------------------------------------------------------------------

struct EquivalenceRun {
  uint64_t rows = 0;
  uint64_t work_units = 0;
  uint64_t objects = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::vector<std::string> fingerprints;
  std::vector<std::pair<ExprSig, uint64_t>> counts;
  std::vector<DistinctObservation> distincts;
};

StatusOr<EquivalenceRun> RunPlan(const Workload& workload,
                                 const BenchQuery& query,
                                 const PlanNode::Ptr& plan,
                                 parallel::ThreadPool* pool, size_t morsel_size,
                                 bool cache_on) {
  MONSOON_ASSIGN_OR_RETURN(
      MaterializedStore store,
      MaterializedStore::ForQuery(*workload.catalog, query.spec));
  store.udf_cache()->set_byte_budget(cache_on ? size_t{256} << 20 : 0);
  Executor executor(query.spec, &UdfRegistry::Global());
  ExecContext ctx;
  ctx.SetParallel(pool, morsel_size);
  MONSOON_ASSIGN_OR_RETURN(ExecResult exec, executor.Execute(plan, &store, &ctx));
  EquivalenceRun run;
  run.rows = exec.output.table->num_rows();
  run.work_units = ctx.work_units();
  run.objects = ctx.objects_processed();
  run.cache_hits = ctx.udf_cache_hits();
  run.cache_misses = ctx.udf_cache_misses();
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

void ExpectCacheEquivalence(const Workload& workload, size_t max_queries) {
  parallel::ThreadPool pool(4);
  constexpr size_t kMorsel = 37;
  size_t checked = 0;
  bool any_cache_activity = false;
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
    // Σ on top so the cached stats-collection pass is exercised too.
    plan = PlanNode::StatsCollect(plan);

    // Reference: serial, cache off — the seed's original execution path.
    auto reference = RunPlan(workload, query, plan, nullptr, kMorsel, false);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(reference->cache_misses, 0u) << "cache-off run built a column";

    struct Config {
      const char* name;
      parallel::ThreadPool* pool;
      bool cache_on;
    };
    for (const Config& config :
         {Config{"serial+cache", nullptr, true},
          Config{"parallel", &pool, false},
          Config{"parallel+cache", &pool, true}}) {
      SCOPED_TRACE(config.name);
      auto run = RunPlan(workload, query, plan, config.pool, kMorsel,
                         config.cache_on);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      if (config.cache_on && run->cache_misses > 0) any_cache_activity = true;

      EXPECT_EQ(reference->rows, run->rows);
      EXPECT_EQ(reference->fingerprints, run->fingerprints);
      // The cache is invisible to the cost model: identical totals.
      EXPECT_EQ(reference->work_units, run->work_units);
      EXPECT_EQ(reference->objects, run->objects);
      ASSERT_EQ(reference->counts.size(), run->counts.size());
      for (size_t i = 0; i < reference->counts.size(); ++i) {
        EXPECT_EQ(reference->counts[i].first, run->counts[i].first);
        EXPECT_EQ(reference->counts[i].second, run->counts[i].second);
      }
      ASSERT_EQ(reference->distincts.size(), run->distincts.size());
      for (size_t i = 0; i < reference->distincts.size(); ++i) {
        EXPECT_EQ(reference->distincts[i].term_id, run->distincts[i].term_id);
        EXPECT_EQ(reference->distincts[i].expr, run->distincts[i].expr);
        EXPECT_EQ(reference->distincts[i].distinct_count,
                  run->distincts[i].distinct_count);
      }
    }
  }
  EXPECT_GT(checked, 0u) << "workload produced no queries";
  EXPECT_TRUE(any_cache_activity)
      << "no query ever built a cached column; the cache path is untested";
}

TEST(UdfCacheEquivalenceTest, Tpch) {
  TpchOptions options;
  options.scale = 0.05;
  options.skew = SkewProfile::kHigh;
  auto workload = MakeTpchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectCacheEquivalence(*workload, 4);
}

TEST(UdfCacheEquivalenceTest, Imdb) {
  ImdbOptions options;
  options.scale = 0.05;
  auto workload = MakeImdbWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectCacheEquivalence(*workload, 4);
}

TEST(UdfCacheEquivalenceTest, Ott) {
  OttOptions options;
  options.rows_per_table = 400;
  options.key_cardinality = 25;
  auto workload = MakeOttWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectCacheEquivalence(*workload, 4);
}

TEST(UdfCacheEquivalenceTest, UdfBench) {
  UdfBenchOptions options;
  options.scale = 0.05;
  auto workload = MakeUdfBenchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectCacheEquivalence(*workload, 4);
}

// Re-executing the same plan against the same store hits the cache: the
// second run's ExecContext sees hits where the first saw misses.
TEST(UdfCacheCounterTest, RepeatedExecutionHitsResidentColumns) {
  Catalog catalog;
  auto customers = std::make_shared<Table>(
      Schema({{"id", ValueType::kInt64}, {"city", ValueType::kString}}));
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        customers->AppendRow({Value(i), Value("c" + std::to_string(i % 5))})
            .ok());
  }
  ASSERT_TRUE(catalog.AddTable("customers", customers).ok());
  auto orders = std::make_shared<Table>(
      Schema({{"cust", ValueType::kInt64}, {"amount", ValueType::kInt64}}));
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(orders->AppendRow({Value(i % 10), Value(i)}).ok());
  }
  ASSERT_TRUE(catalog.AddTable("orders", orders).ok());

  auto query = SqlParser(&catalog).Parse(
      "SELECT * FROM customers c, orders o WHERE c.id = o.cust");
  ASSERT_TRUE(query.ok());
  auto store = MaterializedStore::ForQuery(catalog, *query);
  ASSERT_TRUE(store.ok());
  store->udf_cache()->set_byte_budget(size_t{1} << 20);
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});
  Executor executor(*query, &UdfRegistry::Global());

  ExecContext first;
  ASSERT_TRUE(executor.Execute(plan, &*store, &first).ok());
  EXPECT_GT(first.udf_cache_misses(), 0u);
  EXPECT_GT(first.udf_cache_bytes(), 0u);

  ExecContext second;
  ASSERT_TRUE(executor.Execute(plan, &*store, &second).ok());
  EXPECT_EQ(second.udf_cache_misses(), 0u)
      << "every column is resident on the second execution";
  EXPECT_GE(second.udf_cache_hits(), first.udf_cache_misses());
}


// A hash join whose keys come from both sources: key A's columns are cached
// on both sides by an earlier one-key join, and a permanent fill fault drops
// key B's, so B reads batch by batch (whole-side on the build, batch-local
// on the probe) next to A's cached columns. Everything the cost model sees
// equals the fault-free run, and exactly B's two fills are dropped.
TEST(UdfCacheJoinTest, MixedSourceKeysMatchTheFaultFreeJoin) {
  Catalog catalog;
  auto customers = std::make_shared<Table>(
      Schema({{"id", ValueType::kInt64}, {"city", ValueType::kString}}));
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        customers->AppendRow({Value(i), Value("c" + std::to_string(i % 5))})
            .ok());
  }
  ASSERT_TRUE(catalog.AddTable("customers", customers).ok());
  auto orders = std::make_shared<Table>(
      Schema({{"cust", ValueType::kInt64}, {"city", ValueType::kString}}));
  for (int64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        orders->AppendRow({Value(i % 10), Value("c" + std::to_string(i % 3))})
            .ok());
  }
  ASSERT_TRUE(catalog.AddTable("orders", orders).ok());
  auto query = SqlParser(&catalog).Parse(
      "SELECT * FROM customers c, orders o "
      "WHERE c.id = o.cust AND c.city = o.city");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const PlanNode::Ptr key_a =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});
  const PlanNode::Ptr keys_ab =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0, 1});
  Executor executor(*query, &UdfRegistry::Global());
  obs::Counter* const dropped =
      obs::Registry::Global().GetCounter("faults.cache_fills_dropped");
  parallel::ThreadPool pool(2);

  for (parallel::ThreadPool* run_pool :
       std::initializer_list<parallel::ThreadPool*>{nullptr, &pool}) {
    SCOPED_TRACE(run_pool == nullptr ? "serial" : "2 threads");
    // Runs the one-key join, then the two-key join with `spec` armed (none
    // when empty), on one store whose cache keeps A's columns.
    auto run = [&](const char* spec) -> StatusOr<EquivalenceRun> {
      MONSOON_ASSIGN_OR_RETURN(MaterializedStore store,
                               MaterializedStore::ForQuery(catalog, *query));
      store.udf_cache()->set_byte_budget(size_t{1} << 20);
      ExecContext warm;
      MONSOON_RETURN_IF_ERROR(executor.Execute(key_a, &store, &warm).status());
      if (*spec != '\0') {
        fault::FaultConfig config;
        config.seed = 7;
        MONSOON_RETURN_IF_ERROR(fault::InstallSpec(spec, config));
      }
      ExecContext ctx;
      ctx.SetParallel(run_pool, 16);
      ctx.SetBatchSize(7);  // probe batches start away from row 0
      StatusOr<ExecResult> exec = executor.Execute(keys_ab, &store, &ctx);
      fault::Clear();
      MONSOON_RETURN_IF_ERROR(exec.status());
      EquivalenceRun out;
      out.rows = exec->output.table->num_rows();
      out.work_units = ctx.work_units();
      out.objects = ctx.objects_processed();
      out.cache_hits = ctx.udf_cache_hits();
      out.cache_misses = ctx.udf_cache_misses();
      out.fingerprints = RowFingerprints(*exec->output.table);
      out.counts = exec->observed_counts;
      return out;
    };
    auto clean = run("");
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(clean->cache_hits, 2u) << "A's two columns";
    EXPECT_EQ(clean->cache_misses, 2u) << "B's two columns";

    const uint64_t dropped_before = dropped->Value();
    auto mixed = run("exec.udf_cache.fill=1:permanent");
    ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
    EXPECT_EQ(dropped->Value() - dropped_before, 2u) << "B's two columns";
    EXPECT_EQ(mixed->cache_hits, 2u);
    EXPECT_EQ(mixed->cache_misses, 0u);

    EXPECT_GT(clean->rows, 0u);
    EXPECT_EQ(mixed->rows, clean->rows);
    EXPECT_EQ(mixed->fingerprints, clean->fingerprints);
    EXPECT_EQ(mixed->counts, clean->counts);
    EXPECT_EQ(mixed->work_units, clean->work_units);
    EXPECT_EQ(mixed->objects, clean->objects);
  }
}

}  // namespace
}  // namespace monsoon
