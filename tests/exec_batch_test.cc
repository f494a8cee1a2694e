// Vectorized-execution tests: scan selection edge cases, the per-batch
// cancellation poll, the join Bloom filter, and batch-width equivalence.
// The batch width is invisible to results — rows, observed counts, Σ
// distincts, work_units and objects_processed are bit-identical at any
// width, thread count and cache setting, because accounting is charged per
// logical row, never per batch. Narrow widths (4, 7) come through the
// ExecContext::SetBatchSize test seam and put batch boundaries inside
// small inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/bloom.h"
#include "exec/executor.h"
#include "fault/cancellation.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "parallel/thread_pool.h"
#include "plan/logical_ops.h"
#include "sql/parser.h"
#include "term_eval.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

namespace monsoon {
namespace {

// ---------------------------------------------------------------------------
// JoinBloomFilter
// ---------------------------------------------------------------------------

TEST(JoinBloomFilterTest, NoFalseNegatives) {
  JoinBloomFilter bloom(1000);
  std::vector<uint64_t> hashes;
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 1000; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    hashes.push_back(h);
    bloom.AddHash(h);
  }
  for (uint64_t inserted : hashes) {
    EXPECT_TRUE(bloom.MayContain(inserted));
  }
}

TEST(JoinBloomFilterTest, RejectsMostAbsentKeysAtOneWordPerKey) {
  JoinBloomFilter bloom(1024);
  uint64_t h = 0x853c49e6748fea9bULL;
  for (int i = 0; i < 1024; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    bloom.AddHash(h);
  }
  // Disjoint probe stream: with one word and two bits per key the false
  // positive rate is a few percent; anything under 50% proves the filter
  // is live, and exactness is irrelevant (false positives fall through to
  // the index and behave like any probe).
  int false_positives = 0;
  uint64_t p = 0xda942042e4dd58b5ULL;
  for (int i = 0; i < 1024; ++i) {
    p ^= p << 13;
    p ^= p >> 7;
    p ^= p << 17;
    if (bloom.MayContain(p)) ++false_positives;
  }
  EXPECT_LT(false_positives, 512);
}

TEST(JoinBloomFilterTest, SizesRoundToPowerOfTwoWords) {
  EXPECT_EQ(JoinBloomFilter(0).ApproxBytes(), 16u * sizeof(uint64_t));
  EXPECT_EQ(JoinBloomFilter(17).ApproxBytes(), 32u * sizeof(uint64_t));
  EXPECT_EQ(JoinBloomFilter(1024).ApproxBytes(), 1024u * sizeof(uint64_t));
  EXPECT_EQ(JoinBloomFilter(1025).ApproxBytes(), 2048u * sizeof(uint64_t));
}

// ---------------------------------------------------------------------------
// Leaf-filter selection edge cases. A 10-row table scanned with
// batch_size=4 splits into batches [0,4) [4,8) [8,10); the fixtures place
// survivors to hit empty, full, single-survivor, and boundary-straddling
// selections, and every run must match the default-width execution (one
// batch) on rows AND accounting.
// ---------------------------------------------------------------------------

class BatchExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto customers = std::make_shared<Table>(
        Schema({{"id", ValueType::kInt64},
                {"city", ValueType::kString},
                {"country", ValueType::kString}}));
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(customers
                      ->AppendRow({Value(i), Value("city" + std::to_string(i % 3)),
                                   Value("zz")})
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

  struct RunStats {
    uint64_t rows = 0;
    uint64_t work_units = 0;
    uint64_t objects = 0;
    std::vector<std::string> fingerprints;
  };

  RunStats Run(const QuerySpec& query, const PlanNode::Ptr& plan,
               size_t batch_size = kBatchRows) {
    auto store = MaterializedStore::ForQuery(catalog_, query);
    EXPECT_TRUE(store.ok());
    Executor executor(query, &UdfRegistry::Global());
    ExecContext ctx;
    ctx.SetBatchSize(batch_size);
    auto result = executor.Execute(plan, &*store, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    RunStats stats;
    stats.rows = result->output.table->num_rows();
    stats.work_units = ctx.work_units();
    stats.objects = ctx.objects_processed();
    for (size_t i = 0; i < result->output.table->num_rows(); ++i) {
      std::string fp;
      for (size_t c = 0; c < result->output.schema.num_columns(); ++c) {
        fp += result->output.table->row(i).GetValue(c).ToString();
        fp += '\x1f';
      }
      stats.fingerprints.push_back(std::move(fp));
    }
    std::sort(stats.fingerprints.begin(), stats.fingerprints.end());
    return stats;
  }

  // Runs the leaf plan at the default width (one batch over 10 rows) and
  // at batch_size=4 (three batches) and demands identical rows and
  // accounting.
  void ExpectLeafRows(const std::string& sql, uint64_t expect_rows) {
    auto query = Parse(sql);
    ASSERT_TRUE(query.ok());
    PlanNode::Ptr plan = MakeLeaf(*query, 0);
    RunStats reference = Run(*query, plan);
    EXPECT_EQ(reference.rows, expect_rows);
    RunStats run = Run(*query, plan, 4);
    EXPECT_EQ(run.rows, reference.rows);
    EXPECT_EQ(run.fingerprints, reference.fingerprints);
    EXPECT_EQ(run.work_units, reference.work_units);
    EXPECT_EQ(run.objects, reference.objects);
  }

  Catalog catalog_;
};

TEST_F(BatchExecTest, EmptySelection) {
  ExpectLeafRows("SELECT * FROM customers c WHERE c.city = 'nowhere'", 0);
}

TEST_F(BatchExecTest, FullSelection) {
  // Every row survives: both batch boundaries fall inside the run.
  ExpectLeafRows("SELECT * FROM customers c WHERE c.country = 'zz'", 10);
}

TEST_F(BatchExecTest, SingleSurvivor) {
  // id 5 lives in the middle batch [4,8).
  ExpectLeafRows("SELECT * FROM customers c WHERE c.id = 5", 1);
}

TEST_F(BatchExecTest, SurvivorsStraddleBatchBoundaries) {
  // city1 = ids {1, 4, 7}: one survivor in each of the three batches at
  // batch_size=4, with the 3->4 and 7->8 boundaries between them.
  ExpectLeafRows("SELECT * FROM customers c WHERE c.city = 'city1'", 3);
}

TEST_F(BatchExecTest, ConjunctiveFiltersRefineSelection) {
  // First filter keeps all 10 rows; the second compacts its selection
  // vector in place down to the 3 city1 survivors.
  ExpectLeafRows(
      "SELECT * FROM customers c WHERE c.country = 'zz' AND c.city = 'city1'",
      3);
}

// ---------------------------------------------------------------------------
// Cancellation is polled once per batch: a scan whose residual UDF cancels
// the query at row r finishes that row's batch, then stops before the next
// one — so at most ceil((r + 1) / batch) * batch rows are evaluated.
// ---------------------------------------------------------------------------

// cancel_at(id): counts its calls and cancels g_cancel_token when it
// evaluates id == g_cancel_row.
fault::CancellationToken* g_cancel_token = nullptr;
int64_t g_cancel_row = 0;
size_t g_cancel_calls = 0;

void RegisterCancelAtUdf() {
  UdfRegistry::Global().RegisterOrReplace(Int64Udf("cancel_at", [](int64_t id) {
    ++g_cancel_calls;
    if (id == g_cancel_row) {
      g_cancel_token->Cancel(StatusCode::kCancelled, "cancelled mid-scan");
    }
    return int64_t{1};
  }));
}

TEST_F(BatchExecTest, CancelledScanStopsAtTheNextBatch) {
  constexpr int64_t kRows = 3000;
  g_cancel_row = 1500;
  RegisterCancelAtUdf();
  auto events = std::make_shared<Table>(Schema({{"id", ValueType::kInt64}}));
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(events->AppendRow({Value(i)}).ok());
  }
  ASSERT_TRUE(catalog_.AddTable("events", events).ok());
  auto query = Parse("SELECT * FROM events e WHERE cancel_at(e.id) = 1");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const PlanNode::Ptr plan = MakeLeaf(*query, 0);

  for (size_t batch_size : {size_t{7}, size_t{1024}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    fault::CancellationToken token;
    g_cancel_token = &token;
    g_cancel_calls = 0;
    auto store = MaterializedStore::ForQuery(catalog_, *query);
    ASSERT_TRUE(store.ok());
    store->udf_cache()->set_byte_budget(0);
    Executor executor(*query, &UdfRegistry::Global());
    ExecContext ctx;
    ctx.SetParallel(nullptr, /*morsel_size=*/64);
    ctx.SetShards(1);
    ctx.SetBatchSize(batch_size);
    ctx.SetCancelToken(&token);

    auto result = executor.Execute(plan, &*store, &ctx);
    g_cancel_token = nullptr;
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    // ceil((r + 1) / batch) batches ran, the last one in full.
    const size_t batches =
        (static_cast<size_t>(g_cancel_row) + batch_size) / batch_size;
    EXPECT_GT(g_cancel_calls, static_cast<size_t>(g_cancel_row));
    EXPECT_LE(g_cancel_calls, batches * batch_size);
    EXPECT_LT(g_cancel_calls, static_cast<size_t>(kRows));
  }
}

// ---------------------------------------------------------------------------
// Kernel parity: for every builtin UDF and for cancel_at, each batch path
// (dense at an offset, across the batch boundary, gathered, row-id
// selection, cache fill) writes what a one-row evaluation gives, and
// string hashes equal Value::Hash().
// ---------------------------------------------------------------------------

TEST(KernelParityTest, EveryBuiltinAndCancelAt) {
  g_cancel_row = -1;  // never cancels
  RegisterCancelAtUdf();
  auto table = std::make_shared<Table>(Schema({{"t.a", ValueType::kInt64},
                                               {"t.b", ValueType::kInt64},
                                               {"t.doc", ValueType::kString},
                                               {"t.ip", ValueType::kString},
                                               {"t.ts", ValueType::kString},
                                               {"t.set", ValueType::kString}}));
  for (int64_t r = 0; r < 2100; ++r) {
    ASSERT_TRUE(
        table
            ->AppendRow(
                {Value(r * 7919 - 5000), Value(r % 17),
                 Value("<doc id=\"" + std::to_string(r % 97) + "\" author=\"a" +
                       std::to_string(r % 13) + (r % 5 == 0 ? "" : "\"") + ">"),
                 Value("10." + std::to_string(r % 41) + "." + std::to_string(r % 3) +
                       ".1"),
                 Value("2021-0" + std::to_string(1 + r % 9) + "-1" +
                       std::to_string(r % 10) + " 12:00:" + std::to_string(r)),
                 Value("x" + std::to_string(r % 4) + ", y" + std::to_string(r % 6) +
                       ",x" + std::to_string(r % 3))})
            .ok());
  }
  const std::vector<std::pair<std::string, std::vector<std::string>>> calls = {
      {"bucket10", {"t.a"}},         {"bucket100", {"t.a"}},
      {"bucket1000", {"t.a"}},       {"bucket10000", {"t.a"}},
      {"canonical_set", {"t.set"}},  {"city_from_ip", {"t.ip"}},
      {"concat2", {"t.doc", "t.ip"}}, {"extract_author", {"t.doc"}},
      {"extract_date", {"t.ts"}},    {"extract_id", {"t.doc"}},
      {"identity", {"t.a"}},         {"identity_str", {"t.doc"}},
      {"pair_key", {"t.a", "t.b"}},  {"cancel_at", {"t.a"}}};
  UdfRegistry builtins;
  RegisterBuiltinUdfs(builtins);
  std::vector<std::string> covered;
  for (const auto& call : calls) covered.push_back(call.first);
  covered.pop_back();  // cancel_at
  std::sort(covered.begin(), covered.end());
  ASSERT_EQ(covered, builtins.Names()) << "a builtin has no parity case";

  QuerySpec query;
  ASSERT_TRUE(query.AddRelation("t", "table").ok());
  for (const auto& [udf, args] : calls) {
    SCOPED_TRACE(udf);
    auto term = query.MakeTerm(udf, args);
    ASSERT_TRUE(term.ok()) << term.status().ToString();
    auto bound = BoundTerm::Bind(*term, table->schema(), UdfRegistry::Global());
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ExpectKernelParity(*bound, table);
  }
}

// ---------------------------------------------------------------------------
// The evaluation set. Uncached UDF predicates are evaluated exactly once
// per row that reaches them: a scan's first filter on every input row, its
// second only on the first's survivors; a hash join's first residual on
// every matched pair, its second only on the pairs the first kept. The
// recording UDFs log their arguments, so the test sees which rows each
// predicate evaluated, at any batch width.
// ---------------------------------------------------------------------------

// Arguments each recording UDF was called with, one entry per call.
std::vector<std::vector<int64_t>> g_eval_log;

// Registers `name`(x, y) = (x + y) % `mod`, logging x * 100000 + y into
// g_eval_log[slot] on every call (y ranges below 100000).
void RegisterRecordingUdf(const std::string& name, size_t slot, int64_t mod) {
  UdfRegistry::Global().RegisterOrReplace(
      Int64Udf(name, [slot, mod](int64_t x, int64_t y) {
        g_eval_log[slot].push_back(x * 100000 + y);
        return (x + y) % mod;
      }));
}

class EvaluationSetTest : public BatchExecTest {
 protected:
  void SetUp() override {
    BatchExecTest::SetUp();
    g_eval_log.assign(2, {});
    RegisterRecordingUdf("eval_first", 0, 3);
    RegisterRecordingUdf("eval_second", 1, 5);
    // Two 2000-row tables that match each key twice, so the probe side
    // spans many batches at width 7 and two at width 1024. `z` is 0.
    for (const char* name : {"lhs", "rhs"}) {
      auto table = std::make_shared<Table>(Schema({{"k", ValueType::kInt64},
                                                   {"v", ValueType::kInt64},
                                                   {"z", ValueType::kInt64}}));
      for (int64_t i = 0; i < 2000; ++i) {
        ASSERT_TRUE(
            table->AppendRow({Value(i / 2), Value(i), Value(int64_t{0})}).ok());
      }
      ASSERT_TRUE(catalog_.AddTable(name, table).ok());
    }
  }

  // Runs `plan` uncached, inline, at `batch_size`; returns the row count.
  size_t RunUncached(const QuerySpec& query, const PlanNode::Ptr& plan,
                     size_t batch_size) {
    g_eval_log.assign(2, {});
    auto store = MaterializedStore::ForQuery(catalog_, query);
    EXPECT_TRUE(store.ok());
    store->udf_cache()->set_byte_budget(0);
    Executor executor(query, &UdfRegistry::Global());
    ExecContext ctx;
    ctx.SetParallel(nullptr, /*morsel_size=*/64);
    ctx.SetShards(1);
    ctx.SetBatchSize(batch_size);
    auto result = executor.Execute(plan, &*store, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->output.table->num_rows() : 0;
  }

  static std::vector<int64_t> Sorted(std::vector<int64_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  }
};

TEST_F(EvaluationSetTest, ScanEvaluatesTheSecondFilterOnlyOnSurvivors) {
  auto query = Parse(
      "SELECT * FROM lhs l WHERE eval_first(l.k, l.v) = 0 "
      "AND eval_second(l.k, l.v) = 0");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::vector<int64_t> all, first_kept, second_kept;
  for (int64_t i = 0; i < 2000; ++i) {
    const int64_t key = (i / 2) * 100000 + i;
    all.push_back(key);
    if ((i / 2 + i) % 3 != 0) continue;
    first_kept.push_back(key);
    if ((i / 2 + i) % 5 == 0) second_kept.push_back(key);
  }
  for (size_t batch_size : {size_t{7}, size_t{1024}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    EXPECT_EQ(RunUncached(*query, MakeLeaf(*query, 0), batch_size),
              second_kept.size());
    EXPECT_EQ(Sorted(g_eval_log[0]), all);
    EXPECT_EQ(Sorted(g_eval_log[1]), first_kept);
  }
}

TEST_F(EvaluationSetTest, JoinEvaluatesTheSecondResidualOnlyOnSurvivors) {
  // Two-relation UDF predicates cannot split across the join's inputs, so
  // both become residuals of the hash join on l.k = r.k.
  auto query = Parse(
      "SELECT * FROM lhs l, rhs r WHERE l.k = r.k "
      "AND eval_first(l.v, r.v) = l.z AND eval_second(l.v, r.v) = r.z");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->num_predicates(), 3);
  ASSERT_TRUE(query->predicate(0).IsEquiJoin());
  // Every key matches twice on each side: 4 candidate pairs per key.
  std::vector<int64_t> all, first_kept, second_kept;
  for (int64_t lv = 0; lv < 2000; ++lv) {
    for (int64_t rv = lv / 2 * 2; rv < lv / 2 * 2 + 2; ++rv) {
      const int64_t key = lv * 100000 + rv;
      all.push_back(key);
      if ((lv + rv) % 3 != 0) continue;
      first_kept.push_back(key);
      if ((lv + rv) % 5 == 0) second_kept.push_back(key);
    }
  }
  const PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0, 1, 2});
  for (size_t batch_size : {size_t{7}, size_t{1024}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    EXPECT_EQ(RunUncached(*query, plan, batch_size), second_kept.size());
    EXPECT_EQ(Sorted(g_eval_log[0]), all);
    EXPECT_EQ(Sorted(g_eval_log[1]), first_kept);
  }
}

// ---------------------------------------------------------------------------
// Bloom-filtered hash join: probes must reject build-side misses (counter
// moves) without changing rows or accounting. The pinned rows, work units
// and objects are those of the same plans probed without a filter, so a
// filter that ever skipped a charged unit (or charged one) fails here.
// ---------------------------------------------------------------------------

TEST_F(BatchExecTest, BloomRejectsProbeMissesWithoutChangingResults) {
  // customer 0 has no orders; orders probe the 10-key build side, so every
  // probe key is present — flip sides by filtering customers to a single
  // city so most order keys miss the build.
  auto query = Parse(
      "SELECT * FROM customers c, orders o "
      "WHERE c.id = o.cust AND c.city = 'city1'");
  ASSERT_TRUE(query.ok());
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});

  obs::Counter* checks = obs::Registry::Global().GetCounter("exec.bloom_checks");
  obs::Counter* rejects = obs::Registry::Global().GetCounter("exec.bloom_rejects");

  // Every probe row is checked; orders of customers outside city1
  // (45 - 12 = 33 rows) miss the 3-key build side and most are rejected
  // before the hash table (some may slip through as bloom false positives
  // and fall through to an empty candidate chain — also correct).
  uint64_t checks_before = checks->Value();
  uint64_t rejects_before = rejects->Value();
  RunStats run = Run(*query, plan);
  EXPECT_EQ(checks->Value() - checks_before, 45u);
  uint64_t rejected = rejects->Value() - rejects_before;
  EXPECT_GT(rejected, 0u);
  EXPECT_LE(rejected, 33u);

  // The filter is invisible to results and to the cost model: a reject
  // means the chain walk would have found nothing, so zero candidates are
  // charged either way. Unfiltered: 10 + 45 scanned objects plus 12
  // joined; 127 work units.
  EXPECT_EQ(run.rows, 12u);  // customers 1,4,7 -> 1 + 4 + 7 orders
  EXPECT_EQ(run.work_units, 127u);
  EXPECT_EQ(run.objects, 67u);
}

TEST_F(BatchExecTest, AllProbeKeysPresentMeansNoRejects) {
  auto query =
      Parse("SELECT * FROM customers c, orders o WHERE c.id = o.cust");
  ASSERT_TRUE(query.ok());
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});
  obs::Counter* rejects = obs::Registry::Global().GetCounter("exec.bloom_rejects");
  uint64_t rejects_before = rejects->Value();
  RunStats run = Run(*query, plan);
  EXPECT_EQ(rejects->Value(), rejects_before)
      << "every order's key is in the build side; nothing may be rejected";
  // Unfiltered: 10 + 45 scanned objects plus 45 joined; 200 work units.
  EXPECT_EQ(run.rows, 45u);
  EXPECT_EQ(run.work_units, 200u);
  EXPECT_EQ(run.objects, 100u);
}

// ---------------------------------------------------------------------------
// Workload-level equivalence: serial/parallel × cache on/off, plus a
// narrow batch width, over every generator, pinning the full observable
// surface against the default-width serial cache-off reference.
// ---------------------------------------------------------------------------

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
                                 parallel::ThreadPool* pool, size_t morsel_size,
                                 size_t batch_size, bool cache_on) {
  MONSOON_ASSIGN_OR_RETURN(
      MaterializedStore store,
      MaterializedStore::ForQuery(*workload.catalog, query.spec));
  store.udf_cache()->set_byte_budget(cache_on ? size_t{256} << 20 : 0);
  Executor executor(query.spec, &UdfRegistry::Global());
  ExecContext ctx;
  ctx.SetParallel(pool, morsel_size);
  ctx.SetBatchSize(batch_size);
  MONSOON_ASSIGN_OR_RETURN(ExecResult exec, executor.Execute(plan, &store, &ctx));
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

void ExpectBatchEquivalence(const Workload& workload, size_t max_queries) {
  parallel::ThreadPool pool(4);
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
    // Σ on top so the batched stats-collection pass is exercised too.
    plan = PlanNode::StatsCollect(plan);

    // Reference: default batch width, serial, cache off.
    auto reference =
        RunPlan(workload, query, plan, nullptr, kMorsel, kBatchRows, false);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    struct Config {
      const char* name;
      parallel::ThreadPool* pool;
      size_t batch_size;
      bool cache_on;
    };
    for (const Config& config :
         {Config{"serial cache", nullptr, kBatchRows, true},
          Config{"parallel", &pool, kBatchRows, false},
          Config{"parallel cache", &pool, kBatchRows, true},
          Config{"batch=7 serial", nullptr, 7, false}}) {
      SCOPED_TRACE(config.name);
      auto run = RunPlan(workload, query, plan, config.pool, kMorsel,
                         config.batch_size, config.cache_on);
      ASSERT_TRUE(run.ok()) << run.status().ToString();

      EXPECT_EQ(reference->rows, run->rows);
      EXPECT_EQ(reference->fingerprints, run->fingerprints);
      // The batch width is invisible to the cost model: accounting is
      // charged per logical row, so totals are bit-identical, not merely
      // close.
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
}

TEST(BatchEquivalenceTest, Tpch) {
  TpchOptions options;
  options.scale = 0.05;
  options.skew = SkewProfile::kHigh;
  auto workload = MakeTpchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectBatchEquivalence(*workload, 4);
}

TEST(BatchEquivalenceTest, Imdb) {
  ImdbOptions options;
  options.scale = 0.05;
  auto workload = MakeImdbWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectBatchEquivalence(*workload, 4);
}

TEST(BatchEquivalenceTest, Ott) {
  OttOptions options;
  options.rows_per_table = 400;
  options.key_cardinality = 25;
  auto workload = MakeOttWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectBatchEquivalence(*workload, 4);
}

TEST(BatchEquivalenceTest, UdfBench) {
  UdfBenchOptions options;
  options.scale = 0.05;
  auto workload = MakeUdfBenchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectBatchEquivalence(*workload, 4);
}

}  // namespace
}  // namespace monsoon
