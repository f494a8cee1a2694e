// Sharded-execution tests: the shard layout primitives (even contiguous
// ranges, process default), the RunSharded supervisor's retry/failover
// protocol, and the load-bearing equivalence invariant — per-shard
// accounting (rows, objects, work_units, observed counts, Σ distincts) sums
// bit-identically to the unsharded totals at every thread count, with
// faults off AND with a shard killed mid-pass and recovered. Shards are
// ranges of the table as stored, so result rows are compared in order;
// every counter is pinned exactly, never approximately.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/stats_store.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/materialized_store.h"
#include "expr/udf.h"
#include "fault/cancellation.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "parallel/thread_pool.h"
#include "plan/logical_ops.h"
#include "row_fingerprints.h"
#include "shard/shard.h"
#include "sql/parser.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

namespace monsoon {
namespace {

// Every test leaves the process-wide injector disabled and the default
// shard count at 1; a fixture keeps the restores from being forgotten on
// early ASSERT exits.
class ShardTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::Clear();
    shard::SetDefaultShardCount(1);
  }

  static Status Install(const std::string& spec, uint64_t seed) {
    fault::FaultConfig base;
    base.seed = seed;
    return fault::InstallSpec(spec, base);
  }
};

// ---------------------------------------------------------------------------
// Layout primitives
// ---------------------------------------------------------------------------

TEST_F(ShardTest, EvenMapCoversRangeWithContiguousShards) {
  const shard::ShardMap map = shard::EvenMap(/*rows=*/103, /*num_shards=*/4);
  ASSERT_EQ(map.num_shards(), 4u);
  EXPECT_EQ(map.begin(0), 0u);
  EXPECT_EQ(map.total_rows(), 103u);
  size_t covered = 0;
  for (size_t s = 0; s < map.num_shards(); ++s) {
    EXPECT_EQ(map.begin(s), covered);
    EXPECT_EQ(map.rows(s), map.end(s) - map.begin(s));
    covered = map.end(s);
  }
  EXPECT_EQ(covered, 103u);

  const shard::ShardMap one = shard::EvenMap(/*rows=*/42, /*num_shards=*/1);
  ASSERT_EQ(one.num_shards(), 1u);
  EXPECT_EQ(one.rows(0), 42u);
}

TEST_F(ShardTest, DefaultShardCountClampsAndRestores) {
  shard::SetDefaultShardCount(4);
  EXPECT_EQ(shard::DefaultShardCount(), 4);
  shard::SetDefaultShardCount(0);  // values < 1 clamp to 1
  EXPECT_EQ(shard::DefaultShardCount(), 1);
}

// ---------------------------------------------------------------------------
// RunSharded supervisor protocol
// ---------------------------------------------------------------------------

// Scans for a seed where, at `probability`, exactly one of `shards` shard
// coordinates fires at attempt 0 and that shard clears at attempt 1 — the
// deterministic "killed once, then recovered" schedule the equivalence
// matrix runs under.
uint64_t FindKillOnceSeed(size_t shards, double probability) {
  for (uint64_t seed = 1; seed < 100000; ++seed) {
    int fired = 0;
    bool recovers = true;
    for (size_t s = 0; s < shards; ++s) {
      if (!fault::ShouldFire(seed, shard::kShardExecPoint, s, 0, probability)) {
        continue;
      }
      ++fired;
      if (fault::ShouldFire(seed, shard::kShardExecPoint, s, 1, probability)) {
        recovers = false;
        break;
      }
    }
    if (fired == 1 && recovers) return seed;
  }
  ADD_FAILURE() << "no kill-once seed found";
  return 0;
}

TEST_F(ShardTest, RunShardedRetriesOnlyTheKilledShard) {
  constexpr double kProb = 0.4;
  const uint64_t seed = FindKillOnceSeed(4, kProb);
  ASSERT_TRUE(Install("shard.exec=0.4:transient", seed).ok());

  const shard::ShardMap map = shard::EvenMap(100, 4);
  std::array<std::atomic<int>, 4> attempts{};
  shard::ShardRunStats stats;
  Status run = shard::RunSharded(
      /*pool=*/nullptr, /*token=*/nullptr, map, shard::kShardExecPoint,
      [&](size_t s, size_t begin, size_t end, uint32_t attempt) {
        EXPECT_EQ(begin, map.begin(s));
        EXPECT_EQ(end, map.end(s));
        attempts[s].fetch_add(1);
        return fault::FireAttempt(shard::kShardExecPoint, s, attempt);
      },
      &stats);
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.failures, 0u);
  int total = 0, twice = 0;
  for (const auto& a : attempts) {
    total += a.load();
    if (a.load() == 2) ++twice;
  }
  EXPECT_EQ(total, 5);  // 4 shards + exactly one retry
  EXPECT_EQ(twice, 1);
}

TEST_F(ShardTest, LowestIndexedFailedShardWinsAndTokenSurvives) {
  // Shards 1 and 3 fail hard (no config installed → retry budget 0); the
  // verdict must name shard 1 regardless of completion order, and the
  // query token must NOT be cancelled — callers degrade, they don't die.
  parallel::ThreadPool pool(4);
  const shard::ShardMap map = shard::EvenMap(80, 4);
  fault::CancellationToken token;
  shard::ShardRunStats stats;
  Status run = shard::RunSharded(
      &pool, &token, map, shard::kShardExecPoint,
      [&](size_t s, size_t, size_t, uint32_t) {
        if (s == 1 || s == 3) {
          return Status::Unavailable("synthetic shard loss");
        }
        return Status::OK();
      },
      &stats);
  EXPECT_FALSE(run.ok());
  EXPECT_NE(run.ToString().find("shard 1"), std::string::npos)
      << run.ToString();
  EXPECT_EQ(stats.failures, 2u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_TRUE(token.Check().ok());
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

TEST_F(ShardTest, NonTransientShardErrorIsNeverRetried) {
  ASSERT_TRUE(Install("shard.exec=0.4:transient", 1).ok());  // budget = 3
  const shard::ShardMap map = shard::EvenMap(10, 2);
  std::array<std::atomic<int>, 2> attempts{};
  shard::ShardRunStats stats;
  Status run = shard::RunSharded(
      nullptr, nullptr, map, shard::kShardExecPoint,
      [&](size_t s, size_t, size_t, uint32_t) -> Status {
        attempts[s].fetch_add(1);
        if (s == 0) return Status::ResourceExhausted("work budget exceeded");
        return Status::OK();
      },
      &stats);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(attempts[0].load(), 1);  // budget trips don't retry
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failures, 1u);
}

// ---------------------------------------------------------------------------
// Equivalence matrix: {shards=1, shards=4} × {serial, threads=4} ×
// {faults off, one shard killed and recovered} over all four workload
// generators, pinning the full deterministic surface against the
// unsharded serial reference.
// ---------------------------------------------------------------------------

struct ShardRun {
  uint64_t rows = 0;
  uint64_t work_units = 0;
  uint64_t objects = 0;
  uint64_t retries = 0;
  uint64_t failures = 0;
  uint64_t recoveries = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  size_t cache_entries = 0;  // resident columns once the run ends
  std::vector<std::string> rows_in_order;
  std::vector<std::pair<ExprSig, uint64_t>> counts;
  std::vector<DistinctObservation> distincts;
  std::vector<std::string> degraded;
};

StatusOr<ShardRun> RunPlan(const Workload& workload, const BenchQuery& query,
                           const PlanNode::Ptr& plan,
                           parallel::ThreadPool* pool, int shards,
                           size_t morsel_size = 37,
                           size_t cache_budget = size_t{256} << 20) {
  MONSOON_ASSIGN_OR_RETURN(
      MaterializedStore store,
      MaterializedStore::ForQuery(*workload.catalog, query.spec));
  store.udf_cache()->set_byte_budget(cache_budget);
  Executor executor(query.spec, &UdfRegistry::Global());
  ExecContext ctx;
  ctx.SetParallel(pool, morsel_size);
  ctx.SetBatchSize(64);
  ctx.SetShards(static_cast<size_t>(shards));
  fault::CancellationToken token;
  ctx.SetCancelToken(&token);
  MONSOON_ASSIGN_OR_RETURN(ExecResult exec, executor.Execute(plan, &store, &ctx));
  ShardRun run;
  run.rows = exec.output.table->num_rows();
  run.work_units = ctx.work_units();
  run.objects = ctx.objects_processed();
  run.retries = ctx.shard_retries();
  run.failures = ctx.shard_failures();
  run.recoveries = ctx.shard_recoveries();
  run.cache_hits = ctx.udf_cache_hits();
  run.cache_misses = ctx.udf_cache_misses();
  run.cache_entries = store.udf_cache()->num_entries();
  run.rows_in_order = OrderedRowFingerprints(*exec.output.table);
  run.counts = exec.observed_counts;
  std::sort(run.counts.begin(), run.counts.end());
  run.distincts = exec.observed_distincts;
  std::sort(run.distincts.begin(), run.distincts.end(),
            [](const DistinctObservation& a, const DistinctObservation& b) {
              return a.term_id != b.term_id ? a.term_id < b.term_id
                                            : a.expr < b.expr;
            });
  run.degraded = std::move(exec.degraded);
  return run;
}

PlanNode::Ptr PlanFor(const Workload& workload, const BenchQuery& query) {
  PlanNode::Ptr plan = query.hand_plan;
  if (plan == nullptr) {
    StatsStore stats;
    for (int i = 0; i < query.spec.num_relations(); ++i) {
      auto rows = workload.catalog->RowCount(query.spec.relation(i).table_name);
      if (!rows.ok()) return nullptr;
      stats.SetCount(ExprSig::Of(RelSet::Single(i), 0),
                     static_cast<double>(*rows));
    }
    auto plan_or = GreedyOptimizer().Optimize(query.spec, stats);
    if (!plan_or.ok()) return nullptr;
    plan = *plan_or;
  }
  // Σ on top so the sharded stats-collection pass is exercised too.
  return PlanNode::StatsCollect(plan);
}

/// Everything the cost model and the results can see: rows in order,
/// charges, observed counts and Σ distincts. Every shard count splits the
/// table as stored and gathers its ranges in order, so the output order is
/// the unsharded one.
void ExpectAccountingEqual(const ShardRun& reference, const ShardRun& run) {
  EXPECT_EQ(reference.rows, run.rows);
  EXPECT_EQ(reference.rows_in_order, run.rows_in_order);
  // Sharding (and recovering a killed shard) is invisible to the cost
  // model: every pinned counter is permutation/partition-invariant and
  // committed only on success, so totals are bit-identical, not close.
  EXPECT_EQ(reference.work_units, run.work_units);
  EXPECT_EQ(reference.objects, run.objects);
  ASSERT_EQ(reference.counts.size(), run.counts.size());
  for (size_t i = 0; i < reference.counts.size(); ++i) {
    EXPECT_EQ(reference.counts[i].first, run.counts[i].first);
    EXPECT_EQ(reference.counts[i].second, run.counts[i].second);
  }
  ASSERT_EQ(reference.distincts.size(), run.distincts.size());
  for (size_t i = 0; i < reference.distincts.size(); ++i) {
    EXPECT_EQ(reference.distincts[i].term_id, run.distincts[i].term_id);
    EXPECT_EQ(reference.distincts[i].expr, run.distincts[i].expr);
    EXPECT_EQ(reference.distincts[i].distinct_count,
              run.distincts[i].distinct_count);
  }
  EXPECT_TRUE(run.degraded.empty());
}

/// The accounting, plus the UDF cache's lookups: columns are keyed by
/// (expression, bound term) and bound whole before a pass's ranges run, so
/// the shard count, the thread count and a recovered shard kill leave the
/// hit and miss counts as they are.
void ExpectRunsEqual(const ShardRun& reference, const ShardRun& run) {
  ExpectAccountingEqual(reference, run);
  EXPECT_EQ(reference.cache_hits, run.cache_hits);
  EXPECT_EQ(reference.cache_misses, run.cache_misses);
}

class ShardEquivalenceTest : public ShardTest {
 protected:
  void ExpectShardEquivalence(const Workload& workload, size_t max_queries) {
    constexpr double kProb = 0.4;
    const uint64_t kill_seed = FindKillOnceSeed(4, kProb);
    parallel::ThreadPool pool(4);
    uint64_t total_retries = 0, total_recoveries = 0;
    size_t checked = 0;
    for (const BenchQuery& query : workload.queries) {
      if (checked >= max_queries) break;
      SCOPED_TRACE(workload.name + " / " + query.name);
      PlanNode::Ptr plan = PlanFor(workload, query);
      ASSERT_NE(plan, nullptr);
      ++checked;

      fault::Clear();
      auto reference = RunPlan(workload, query, plan, nullptr, /*shards=*/1);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      EXPECT_EQ(reference->retries + reference->failures, 0u);

      struct Config {
        const char* name;
        parallel::ThreadPool* pool;
        int shards;
        bool kill;
      };
      for (const Config& config :
           {Config{"shards=1 threads=4", &pool, 1, false},
            Config{"shards=4 serial", nullptr, 4, false},
            Config{"shards=4 threads=4", &pool, 4, false},
            Config{"shards=4 serial killed", nullptr, 4, true},
            Config{"shards=4 threads=4 killed", &pool, 4, true}}) {
        SCOPED_TRACE(config.name);
        if (config.kill) {
          ASSERT_TRUE(Install("shard.exec=0.4:transient", kill_seed).ok());
        } else {
          fault::Clear();
        }
        auto run = RunPlan(workload, query, plan, config.pool, config.shards);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ExpectRunsEqual(*reference, *run);
        EXPECT_EQ(run->failures, 0u);
        if (!config.kill) {
          EXPECT_EQ(run->retries, 0u);
        }
        total_retries += run->retries;
        total_recoveries += run->recoveries;
      }
      fault::Clear();
    }
    EXPECT_GT(checked, 0u) << "workload produced no queries";
    // The kill arms must actually have killed and recovered shards
    // somewhere in the workload — guards against a vacuous matrix.
    EXPECT_GT(total_retries, 0u);
    EXPECT_GT(total_recoveries, 0u);
    EXPECT_EQ(pool.pending_tasks(), 0u);
  }
};

TEST_F(ShardEquivalenceTest, Tpch) {
  TpchOptions options;
  options.scale = 0.05;
  options.skew = SkewProfile::kHigh;
  auto workload = MakeTpchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectShardEquivalence(*workload, 3);
}

TEST_F(ShardEquivalenceTest, Imdb) {
  ImdbOptions options;
  options.scale = 0.05;
  auto workload = MakeImdbWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectShardEquivalence(*workload, 3);
}

TEST_F(ShardEquivalenceTest, Ott) {
  OttOptions options;
  options.rows_per_table = 400;
  options.key_cardinality = 25;
  auto workload = MakeOttWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectShardEquivalence(*workload, 3);
}

TEST_F(ShardEquivalenceTest, UdfBench) {
  UdfBenchOptions options;
  options.scale = 0.05;
  auto workload = MakeUdfBenchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectShardEquivalence(*workload, 3);
}

// ---------------------------------------------------------------------------
// The inline rule: a pass whose input fits in one morsel takes no pool, so
// every shard of a small sharded pass runs on the calling thread — and a
// shard killed there still retries alone.
// ---------------------------------------------------------------------------

std::atomic<int> g_off_caller_evals{0};

TEST_F(ShardTest, ShardsOfAPassWithinOneMorselRunOnTheCallingThread) {
  UdfRegistry::Global().RegisterOrReplace(Int64Udf("caller_mod7", [](int64_t x) {
    if (parallel::ThreadPool::CurrentWorker() != -1) {
      g_off_caller_evals.fetch_add(1);
    }
    return x % 7;
  }));
  Workload workload{"events", std::make_shared<Catalog>(), {}};
  auto events = std::make_shared<Table>(Schema({{"id", ValueType::kInt64}}));
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(events->AppendRow({Value(i)}).ok());
  }
  ASSERT_LE(events->num_rows(), kMorselRows);
  ASSERT_TRUE(workload.catalog->AddTable("events", events).ok());
  const std::string sql = "SELECT * FROM events e WHERE caller_mod7(e.id) = 3";
  auto spec = SqlParser(workload.catalog.get()).Parse(sql);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const BenchQuery query{"events", sql, *spec, nullptr};
  // A scan pass and a Σ pass, each over at most 1000 rows, with the cache
  // off so the shard bodies evaluate the UDF themselves.
  const PlanNode::Ptr plan = PlanNode::StatsCollect(MakeLeaf(query.spec, 0));
  parallel::ThreadPool pool(4);
  obs::Counter* const submitted =
      obs::Registry::Global().GetCounter("pool.tasks_submitted");
  auto run_inline = [&]() -> StatusOr<ShardRun> {
    g_off_caller_evals = 0;
    const uint64_t submitted_before = submitted->Value();
    auto run = RunPlan(workload, query, plan, &pool, /*shards=*/4, kMorselRows,
                       /*cache_budget=*/0);
    EXPECT_EQ(g_off_caller_evals.load(), 0) << "a shard ran on a pool worker";
    EXPECT_EQ(submitted->Value() - submitted_before, 0u)
        << "a pass within one morsel submitted pool tasks";
    return run;
  };

  fault::Clear();
  auto clean = run_inline();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_GT(clean->rows, 0u);
  EXPECT_EQ(clean->retries, 0u);

  // One shard killed once in each of the two passes, then recovered.
  ASSERT_TRUE(
      Install("shard.exec=0.4:transient", FindKillOnceSeed(4, 0.4)).ok());
  auto killed = run_inline();
  ASSERT_TRUE(killed.ok()) << killed.status().ToString();
  EXPECT_EQ(killed->retries, 2u);
  EXPECT_EQ(killed->recoveries, 2u);
  EXPECT_EQ(killed->failures, 0u);
  EXPECT_EQ(killed->rows, clean->rows);
  EXPECT_EQ(killed->rows_in_order, clean->rows_in_order);
  EXPECT_EQ(killed->objects, clean->objects);
  EXPECT_EQ(killed->work_units, clean->work_units);
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

// ---------------------------------------------------------------------------
// A cache fill that fails on every row publishes nothing: each column is
// dropped, its readers fall back to per-row evaluation, and everything the
// cost model sees stays as in a fault-free run, at every shard and thread
// count.
// ---------------------------------------------------------------------------

TEST_F(ShardTest, DroppedCacheFillsLeaveAccountingUnchanged) {
  TpchOptions options;
  options.scale = 0.05;
  auto workload = MakeTpchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  obs::Counter* const dropped =
      obs::Registry::Global().GetCounter("faults.cache_fills_dropped");
  parallel::ThreadPool pool(4);
  size_t checked = 0;
  for (const BenchQuery& query : workload->queries) {
    if (checked++ >= 3) break;
    SCOPED_TRACE(query.name);
    PlanNode::Ptr plan = PlanFor(*workload, query);
    ASSERT_NE(plan, nullptr);
    for (int shards : {1, 4}) {
      for (parallel::ThreadPool* run_pool :
           std::initializer_list<parallel::ThreadPool*>{nullptr, &pool}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     (run_pool == nullptr ? " serial" : " threads=4"));
        fault::Clear();
        auto clean = RunPlan(*workload, query, plan, run_pool, shards);
        ASSERT_TRUE(clean.ok()) << clean.status().ToString();
        ASSERT_GT(clean->cache_misses, 0u) << "the plan fills no column";

        ASSERT_TRUE(Install("exec.udf_cache.fill=1:permanent", /*seed=*/7).ok());
        const uint64_t dropped_before = dropped->Value();
        auto faulty = RunPlan(*workload, query, plan, run_pool, shards);
        ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
        ExpectAccountingEqual(*clean, *faulty);
        EXPECT_GT(dropped->Value() - dropped_before, 0u);
        EXPECT_EQ(faulty->cache_entries, 0u);
      }
    }
  }
  fault::Clear();
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

// ---------------------------------------------------------------------------
// Failover past the retry budget: the Σ pass degrades that relation to
// prior-only planning, with the failed shard named in the reason — and the
// degraded accounting is identical across thread counts.
// ---------------------------------------------------------------------------

TEST_F(ShardTest, ShardFailurePastBudgetDegradesSigmaToPriorOnly) {
  TpchOptions options;
  options.scale = 0.05;
  auto workload = MakeTpchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  // Permanent shard.exec fault: every attempt of every shard dies, so each
  // shard exhausts the retry budget. The plan is Σ over a bare leaf (no
  // filter predicates), so the only shard.exec firings are the Σ pass's —
  // which must degrade, not error.
  ASSERT_TRUE(Install("shard.exec=1:permanent", /*seed=*/11).ok());
  parallel::ThreadPool pool(4);
  bool saw_degraded = false;
  for (const BenchQuery& query : workload->queries) {
    SCOPED_TRACE(query.name);
    PlanNode::Ptr plan = PlanNode::StatsCollect(
        PlanNode::Leaf(ExprSig::Of(RelSet::Single(0), 0), {}));
    auto serial = RunPlan(*workload, query, plan, nullptr, /*shards=*/4);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    auto parallel_run = RunPlan(*workload, query, plan, &pool, /*shards=*/4);
    ASSERT_TRUE(parallel_run.ok()) << parallel_run.status().ToString();
    if (serial->degraded.empty()) continue;  // no Σ terms on relation 0

    saw_degraded = true;
    // The reason names the failed shard (lowest-indexed wins) and the Σ
    // context the failure was caught in.
    EXPECT_NE(serial->degraded[0].find("shard 0"), std::string::npos)
        << serial->degraded[0];
    EXPECT_NE(serial->degraded[0].find("collecting"), std::string::npos)
        << serial->degraded[0];
    EXPECT_GT(serial->failures, 0u);
    EXPECT_EQ(serial->recoveries, 0u);
    // Degradation is deterministic across thread counts: same reasons,
    // same rows, same charges (a failed Σ pass charges exactly nothing).
    EXPECT_EQ(serial->degraded, parallel_run->degraded);
    EXPECT_EQ(serial->rows, parallel_run->rows);
    EXPECT_EQ(serial->work_units, parallel_run->work_units);
    EXPECT_EQ(serial->objects, parallel_run->objects);
    EXPECT_EQ(serial->failures, parallel_run->failures);
    break;
  }
  EXPECT_TRUE(saw_degraded) << "no query exercised a Σ pass over relation 0";
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

}  // namespace
}  // namespace monsoon
