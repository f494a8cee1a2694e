// Fault-tolerant execution: the injector's determinism contract (firing
// and backoff are pure functions of seed + logical coordinate, never of
// the executing lane), cooperative cancellation through ParallelFor /
// TaskGroup without task leaks, per-query deadlines, and graceful
// degradation — a failed Σ pass downgrades to prior-only planning with
// accounting identical at every thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "catalog/stats_store.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/materialized_store.h"
#include "fault/cancellation.h"
#include "fault/injector.h"
#include "monsoon/monsoon_optimizer.h"
#include "optimizer/optimizer.h"
#include "parallel/parallel_for.h"
#include "parallel/runtime.h"
#include "parallel/thread_pool.h"
#include "shard/shard.h"
#include "workloads/tpch.h"

namespace monsoon {
namespace {

// Every test leaves the process-wide injector disabled; a fixture keeps
// the Clear() from being forgotten on early ASSERT exits.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Clear(); }

  static Status Install(const std::string& spec, uint64_t seed = 7,
                        uint64_t udf_timeout_ms = 0) {
    fault::FaultConfig base;
    base.seed = seed;
    base.udf_timeout_ms = udf_timeout_ms;
    return fault::InstallSpec(spec, base);
  }
};

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ParsesMultiEntrySpecs) {
  std::vector<fault::PointSpec> points;
  ASSERT_TRUE(fault::ParseFaultSpec(
                  "exec.udf_eval*=0.01;exec.sigma.pass=1:permanent,"
                  "exec.udf_eval.filter=0.5:delay:40;mcts.rollout=0.2:throw",
                  &points)
                  .ok());
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].pattern, "exec.udf_eval*");
  EXPECT_DOUBLE_EQ(points[0].probability, 0.01);
  EXPECT_EQ(points[0].kind, fault::FaultKind::kTransient);  // default kind
  EXPECT_EQ(points[1].pattern, "exec.sigma.pass");
  EXPECT_EQ(points[1].kind, fault::FaultKind::kPermanent);
  EXPECT_EQ(points[2].kind, fault::FaultKind::kDelay);
  EXPECT_EQ(points[2].param_ms, 40u);
  EXPECT_EQ(points[3].kind, fault::FaultKind::kThrow);
}

TEST_F(FaultTest, RejectsMalformedSpecs) {
  std::vector<fault::PointSpec> points;
  for (const char* bad : {"noequals", "=0.5", "p=notanumber", "p=1.5",
                          "p=-0.1", "p=0.5:weird", "p=0.5:delay:xyz"}) {
    EXPECT_FALSE(fault::ParseFaultSpec(bad, &points).ok()) << bad;
  }
  // param_ms is a whole number in [0, INT64_MAX / 1000]: a negative one
  // used to wrap to ~1.8e19 ms, and param_ms * 1000 must not overflow.
  for (const char* bad : {"x=1:delay:-5", "x=1:delay:99999999999999999"}) {
    EXPECT_EQ(fault::ParseFaultSpec(bad, &points).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  ASSERT_TRUE(fault::ParseFaultSpec("x=1:delay:0", &points).ok());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].param_ms, 0u);
  EXPECT_TRUE(fault::ParseFaultSpec("", &points).ok());
  EXPECT_TRUE(points.empty());
}

TEST_F(FaultTest, InstallEnablesAndEmptySpecDisables) {
  EXPECT_FALSE(fault::Enabled());
  ASSERT_TRUE(Install("exec.udf_eval*=0.5").ok());
  EXPECT_TRUE(fault::Enabled());
  ASSERT_NE(fault::InstalledConfig(), nullptr);
  EXPECT_EQ(fault::InstalledConfig()->seed, 7u);
  ASSERT_TRUE(Install("").ok());
  EXPECT_FALSE(fault::Enabled());
  EXPECT_EQ(fault::InstalledConfig(), nullptr);
}

// ---------------------------------------------------------------------------
// Firing / backoff determinism
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ShouldFireIsAPureFunctionOfItsArguments) {
  int fired = 0;
  for (uint64_t coord = 0; coord < 100000; ++coord) {
    bool a = fault::ShouldFire(42, "exec.udf_eval.filter", coord, 0, 0.01);
    bool b = fault::ShouldFire(42, "exec.udf_eval.filter", coord, 0, 0.01);
    EXPECT_EQ(a, b);
    if (a) ++fired;
  }
  // ~1% of 100k coordinates, with generous slack for the hash draw.
  EXPECT_GT(fired, 500);
  EXPECT_LT(fired, 2000);
  // Edge probabilities are exact, not approximate.
  EXPECT_FALSE(fault::ShouldFire(42, "p", 3, 0, 0.0));
  EXPECT_TRUE(fault::ShouldFire(42, "p", 3, 0, 1.0));
  // Seed, point name and attempt all reach the draw.
  int diff_seed = 0, diff_point = 0, diff_attempt = 0;
  for (uint64_t coord = 0; coord < 4096; ++coord) {
    if (fault::ShouldFire(1, "p", coord, 0, 0.5) !=
        fault::ShouldFire(2, "p", coord, 0, 0.5)) {
      ++diff_seed;
    }
    if (fault::ShouldFire(1, "p", coord, 0, 0.5) !=
        fault::ShouldFire(1, "q", coord, 0, 0.5)) {
      ++diff_point;
    }
    if (fault::ShouldFire(1, "p", coord, 0, 0.5) !=
        fault::ShouldFire(1, "p", coord, 1, 0.5)) {
      ++diff_attempt;
    }
  }
  EXPECT_GT(diff_seed, 0);
  EXPECT_GT(diff_point, 0);
  EXPECT_GT(diff_attempt, 0);
}

TEST_F(FaultTest, BackoffIsExponentialWithDeterministicJitter) {
  for (uint32_t attempt = 1; attempt <= 4; ++attempt) {
    uint64_t us = fault::BackoffUs(9, "exec.udf_eval.filter", 123, attempt, 20);
    EXPECT_EQ(us, fault::BackoffUs(9, "exec.udf_eval.filter", 123, attempt, 20));
    uint64_t floor = 20ULL << (attempt - 1);
    EXPECT_GE(us, floor);
    EXPECT_LT(us, floor + 20);
  }
  EXPECT_EQ(fault::BackoffUs(9, "p", 1, 1, 0), 0u);
}

TEST_F(FaultTest, FirePointReportsTheCoordinateAndPointName) {
  ASSERT_TRUE(Install("always.on=1:permanent").ok());
  Status miss = fault::FirePoint("some.other.point", 5);
  EXPECT_TRUE(miss.ok());
  Status hit = fault::FirePoint("always.on", 5);
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(hit.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(hit.IsTransient());
  EXPECT_NE(hit.message().find("always.on"), std::string::npos);
  EXPECT_NE(hit.message().find("coord=5"), std::string::npos);
  // Prefix patterns match every point under the prefix.
  ASSERT_TRUE(Install("exec.udf_eval*=1:permanent").ok());
  EXPECT_FALSE(fault::FirePoint("exec.udf_eval.join_probe", 0).ok());
  EXPECT_TRUE(fault::FirePoint("exec.sigma.pass", 0).ok());
}

TEST_F(FaultTest, TransientFaultsRetryThenSucceedOrPersist) {
  // With p = 1 every retry fires too, so the fault must persist and the
  // message must pin the retry budget.
  ASSERT_TRUE(Install("stuck=1").ok());
  Status stuck = fault::FirePoint("stuck", 11);
  ASSERT_FALSE(stuck.ok());
  EXPECT_NE(stuck.message().find("persisted after 3 retries"),
            std::string::npos);
  // With a moderate probability, some coordinate fires on attempt 0 but
  // clears on a retry — observable as an OK verdict for a coordinate
  // whose first draw fires.
  ASSERT_TRUE(Install("flaky=0.3").ok());
  bool saw_retried_success = false;
  for (uint64_t coord = 0; coord < 256 && !saw_retried_success; ++coord) {
    if (fault::ShouldFire(7, "flaky", coord, 0, 0.3) &&
        fault::FirePoint("flaky", coord).ok()) {
      saw_retried_success = true;
    }
  }
  EXPECT_TRUE(saw_retried_success);
}

TEST_F(FaultTest, DelayTripsThePerUdfTimeoutDeterministically) {
  // 5ms injected delay vs a 2ms per-call budget: deterministic timeout.
  ASSERT_TRUE(Install("slow=1:delay:5", /*seed=*/7, /*udf_timeout_ms=*/2).ok());
  Status timed_out = fault::FirePoint("slow", 3);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(timed_out.IsTransient());
  // The same delay under a roomier budget just burns the time.
  ASSERT_TRUE(Install("slow=1:delay:5", /*seed=*/7, /*udf_timeout_ms=*/50).ok());
  EXPECT_TRUE(fault::FirePoint("slow", 3).ok());
  // No budget configured: delays never time out.
  ASSERT_TRUE(Install("slow=1:delay:5").ok());
  EXPECT_TRUE(fault::FirePoint("slow", 3).ok());
}

// ---------------------------------------------------------------------------
// CancellationToken
// ---------------------------------------------------------------------------

TEST_F(FaultTest, TokenFirstCancelWins) {
  fault::CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
  token.Cancel(StatusCode::kCancelled, "first");
  token.Cancel(StatusCode::kUnavailable, "second");
  EXPECT_TRUE(token.cancelled());
  Status st = token.Check();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(st.message(), "first");
}

TEST_F(FaultTest, TokenDeadlineExpiryConvertsToDeadlineExceeded) {
  fault::CancellationToken token;
  token.SetDeadlineMs(1);
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Status st = Status::OK();
  // The deadline clock is only consulted every kDeadlineStride polls, so
  // poll in a loop the way a morsel boundary would.
  while (st.ok() && std::chrono::steady_clock::now() < give_up) {
    st = token.Check();
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("deadline"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ParallelFor / TaskGroup cancellation (tsan-labeled stress)
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ParallelForLowestFailingMorselWinsAndLeaksNoTasks) {
  parallel::ThreadPool pool(4);
  fault::CancellationToken token;
  for (int round = 0; round < 50; ++round) {
    Status st = parallel::ParallelFor(
        &pool, /*n=*/10000, /*morsel_size=*/64, &token,
        [&](size_t morsel, size_t begin, size_t end) -> Status {
          (void)begin;
          (void)end;
          if (morsel == 37 || morsel == 91) {
            return Status::Unavailable("failed at morsel " +
                                       std::to_string(morsel));
          }
          return Status::OK();
        });
    ASSERT_FALSE(st.ok());
    // Both morsels may fail in the same round; the report must always be
    // the lower one, regardless of which lane saw its failure first.
    EXPECT_EQ(st.message(), "failed at morsel 37");
  }
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

TEST_F(FaultTest, ParallelForStopsOnTrippedTokenWithoutLeakingTasks) {
  parallel::ThreadPool pool(4);
  const size_t lanes = static_cast<size_t>(pool.num_threads());
  for (int round = 0; round < 50; ++round) {
    fault::CancellationToken token;
    std::atomic<bool> cancelled{false};
    std::atomic<size_t> started_after_cancel{0};
    Status st = parallel::ParallelFor(
        &pool, /*n=*/100000, /*morsel_size=*/32, &token,
        [&](size_t morsel, size_t, size_t) -> Status {
          if (cancelled.load()) started_after_cancel.fetch_add(1);
          if (morsel == 5) {
            token.Cancel(StatusCode::kCancelled, "mid-loop cancel");
            cancelled.store(true);
          }
          return Status::OK();
        });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
    EXPECT_EQ(st.message(), "mid-loop cancel");
    // The token stops lanes at the next morsel boundary. Lanes claim morsels
    // by atomic counter, so how many ran BEFORE the cancel is up to the
    // scheduler (the lane holding morsel 5 may be descheduled while the
    // others run the rest). After it, each other lane can only be inside a
    // morsel it claimed before it saw the token: at most lanes - 1 morsels
    // start once Cancel has returned, and none may linger in the pool.
    EXPECT_LE(started_after_cancel.load(), lanes - 1);
    EXPECT_EQ(pool.pending_tasks(), 0u);
  }
}

TEST_F(FaultTest, TaskGroupFailureCancelsSiblingsThroughTheToken) {
  parallel::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    fault::CancellationToken token;
    parallel::TaskGroup group(&pool, &token);
    std::atomic<int> bailed{0};
    group.Run([] { throw std::runtime_error("worker failure"); });
    for (int w = 0; w < 3; ++w) {
      group.Run([&token, &bailed] {
        // Sibling workers poll the token the way MCTS rollout loops do.
        auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!token.cancelled() &&
               std::chrono::steady_clock::now() < give_up) {
        }
        if (token.cancelled()) bailed.fetch_add(1);
      });
    }
    EXPECT_THROW(group.Wait(), std::runtime_error);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(bailed.load(), 3);
    EXPECT_EQ(token.Check().message(), "sibling task failed");
    EXPECT_EQ(pool.pending_tasks(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Degraded execution: Σ failures fall back to prior-only planning with
// accounting identical across thread counts.
// ---------------------------------------------------------------------------

struct FaultRun {
  Status status = Status::OK();
  uint64_t rows = 0;
  uint64_t work_units = 0;
  uint64_t objects = 0;
  std::vector<std::string> degraded;
};

FaultRun ExecuteWithPool(const Workload& workload, const BenchQuery& query,
                         parallel::ThreadPool* pool) {
  FaultRun run;
  auto store = MaterializedStore::ForQuery(*workload.catalog, query.spec);
  if (!store.ok()) {
    run.status = std::move(store).status();
    return run;
  }
  StatsStore stats;
  for (int i = 0; i < query.spec.num_relations(); ++i) {
    auto rows = workload.catalog->RowCount(query.spec.relation(i).table_name);
    if (!rows.ok()) {
      run.status = std::move(rows).status();
      return run;
    }
    stats.SetCount(ExprSig::Of(RelSet::Single(i), 0),
                   static_cast<double>(*rows));
  }
  auto plan_or = GreedyOptimizer().Optimize(query.spec, stats);
  if (!plan_or.ok()) {
    run.status = std::move(plan_or).status();
    return run;
  }
  PlanNode::Ptr plan = PlanNode::StatsCollect(*plan_or);  // force a Σ pass
  Executor executor(query.spec, &UdfRegistry::Global());
  ExecContext ctx;
  ctx.SetParallel(pool, /*morsel_size=*/53);
  fault::CancellationToken token;
  ctx.SetCancelToken(&token);
  auto exec_or = executor.Execute(plan, &*store, &ctx);
  run.work_units = ctx.work_units();
  run.objects = ctx.objects_processed();
  if (!exec_or.ok()) {
    run.status = std::move(exec_or).status();
    return run;
  }
  ExecResult exec = std::move(exec_or).value();
  run.rows = exec.output.table->num_rows();
  run.degraded = std::move(exec.degraded);
  return run;
}

class FaultWorkloadTest : public FaultTest {
 protected:
  void SetUp() override {
    TpchOptions options;
    options.scale = 0.05;
    auto workload = MakeTpchWorkload(options);
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    workload_ = std::make_unique<Workload>(std::move(*workload));
  }

  std::unique_ptr<Workload> workload_;
};

TEST_F(FaultWorkloadTest, SigmaFaultDegradesWithIdenticalAccountingAcrossThreads) {
  // Every Σ pass fails; UDF evaluation stays clean. The tree must still
  // complete, carrying one degraded entry per skipped pass, and the
  // deterministic accounting must not depend on the thread count.
  ASSERT_TRUE(Install("exec.sigma.pass=1:permanent", /*seed=*/21).ok());
  parallel::ThreadPool pool(4);
  size_t checked = 0;
  for (const BenchQuery& query : workload_->queries) {
    if (checked++ >= 3) break;
    SCOPED_TRACE(query.name);
    FaultRun serial = ExecuteWithPool(*workload_, query, nullptr);
    FaultRun parallel_run = ExecuteWithPool(*workload_, query, &pool);
    ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
    ASSERT_TRUE(parallel_run.status.ok()) << parallel_run.status.ToString();
    EXPECT_FALSE(serial.degraded.empty());
    // Same skipped passes, same reasons (coordinate = Σ input cardinality,
    // identical either way), same rows and cost-model charges.
    EXPECT_EQ(serial.degraded, parallel_run.degraded);
    EXPECT_EQ(serial.rows, parallel_run.rows);
    EXPECT_EQ(serial.work_units, parallel_run.work_units);
    EXPECT_EQ(serial.objects, parallel_run.objects);
  }
}

TEST_F(FaultWorkloadTest, PersistentUdfFaultFailsAtTheSameSiteAcrossThreads) {
  // A sparse permanent fault across every UDF evaluation point: the
  // reported failure must be the globally-first firing coordinate
  // (lowest-morsel-wins), byte-identical between serial and 4-thread runs.
  ASSERT_TRUE(Install("exec.udf_eval*=0.0005:permanent", /*seed=*/33).ok());
  parallel::ThreadPool pool(4);
  size_t checked = 0, failed = 0;
  for (const BenchQuery& query : workload_->queries) {
    if (checked++ >= 3) break;
    SCOPED_TRACE(query.name);
    FaultRun serial = ExecuteWithPool(*workload_, query, nullptr);
    FaultRun parallel_run = ExecuteWithPool(*workload_, query, &pool);
    EXPECT_EQ(serial.status.ok(), parallel_run.status.ok());
    if (!serial.status.ok()) {
      ++failed;
      EXPECT_EQ(serial.status.ToString(), parallel_run.status.ToString());
    }
  }
  // The spec is dense enough that at least one of the checked queries
  // must trip (guards against the comparison passing vacuously).
  EXPECT_GT(failed, 0u);
}

TEST_F(FaultWorkloadTest, RetriedTransientFaultsLeaveRunsByteIdentical) {
  // Transient faults that clear on retry must be invisible in the
  // deterministic outputs: same rows, charges and (absent) degradation as
  // a fault-free run.
  const BenchQuery& query = workload_->queries.front();
  FaultRun clean = ExecuteWithPool(*workload_, query, nullptr);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  ASSERT_TRUE(Install("exec.udf_eval*=0.01", /*seed=*/5).ok());
  parallel::ThreadPool pool(4);
  for (parallel::ThreadPool* pool_ptr :
       std::initializer_list<parallel::ThreadPool*>{nullptr, &pool}) {
    FaultRun faulty = ExecuteWithPool(*workload_, query, pool_ptr);
    ASSERT_TRUE(faulty.status.ok()) << faulty.status.ToString();
    EXPECT_EQ(faulty.rows, clean.rows);
    EXPECT_EQ(faulty.work_units, clean.work_units);
    EXPECT_EQ(faulty.objects, clean.objects);
    EXPECT_TRUE(faulty.degraded.empty());
  }
}

// ---------------------------------------------------------------------------
// End-to-end: MonsoonOptimizer under faults and deadlines
// ---------------------------------------------------------------------------

TEST_F(FaultWorkloadTest, OptimizerDegradesGracefullyAndReportsReasons) {
  ASSERT_TRUE(Install("exec.sigma.pass=1:permanent", /*seed=*/21).ok());
  MonsoonOptimizer::Options options;
  options.mcts.iterations = 120;
  MonsoonOptimizer monsoon(workload_->catalog.get(), options);
  // Not every query's search schedules a Σ pass, but across the workload
  // at least one does; every run that hits the forced failure must
  // complete degraded (prior-only statistics) instead of erroring out.
  bool saw_degraded = false;
  for (const BenchQuery& query : workload_->queries) {
    SCOPED_TRACE(query.name);
    RunResult result = monsoon.Run(query.spec);
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    if (!result.degraded) {
      EXPECT_TRUE(result.degraded_reasons.empty());
      continue;
    }
    saw_degraded = true;
    ASSERT_FALSE(result.degraded_reasons.empty());
    EXPECT_NE(result.degraded_reasons[0].find("exec.sigma.pass"),
              std::string::npos);
    EXPECT_NE(result.degraded_reasons[0].find("collecting"),
              std::string::npos);
    break;
  }
  EXPECT_TRUE(saw_degraded) << "no query exercised a Σ pass";
}

TEST_F(FaultWorkloadTest, OptimizerThrowingFaultIsContainedAsInternal) {
  ASSERT_TRUE(Install("exec.udf_eval*=1:throw").ok());
  MonsoonOptimizer::Options options;
  options.mcts.iterations = 40;
  MonsoonOptimizer monsoon(workload_->catalog.get(), options);
  RunResult result = monsoon.Run(workload_->queries.front().spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_NE(result.status.message().find("injected exception"),
            std::string::npos);
}

TEST_F(FaultTest, ThrowingFaultOnAPoolIsContainedAtEveryShardCount) {
  // The same throwing spec with a 2-thread pool, at TPC-H scale 1: every
  // relation of the query is larger than one morsel, so the first pass that
  // evaluates a UDF runs two lanes — the calling thread's included — and
  // both throw. The throw must come back as one Internal status, whether
  // the pass runs as morsels (shards=1) or as shards.
  TpchOptions tpch;
  tpch.scale = 1.0;
  auto workload = MakeTpchWorkload(tpch);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const QuerySpec& query = workload->queries.front().spec;
  for (int i = 0; i < query.num_relations(); ++i) {
    auto rows = workload->catalog->RowCount(query.relation(i).table_name);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_GT(*rows, kMorselRows) << query.relation(i).table_name;
  }
  ASSERT_TRUE(Install("exec.udf_eval*=1:throw").ok());
  struct Restore {
    parallel::Config config = parallel::DefaultConfig();
    ~Restore() {
      parallel::SetDefaultConfig(config);
      shard::SetDefaultShardCount(1);
    }
  } restore;
  parallel::Config two_threads;
  two_threads.num_threads = 2;
  parallel::SetDefaultConfig(two_threads);
  MonsoonOptimizer::Options options;
  options.mcts.iterations = 40;
  MonsoonOptimizer monsoon(workload->catalog.get(), options);
  // Which lane throws first is up to the scheduler; a few rounds make
  // every interleaving likely.
  for (int shards : {1, 4}) {
    shard::SetDefaultShardCount(shards);
    for (int round = 0; round < 5; ++round) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " round=" + std::to_string(round));
      RunResult result = monsoon.Run(query);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status.code(), StatusCode::kInternal);
      EXPECT_NE(result.status.message().find("injected exception"),
                std::string::npos);
    }
  }
  EXPECT_EQ(parallel::SharedPool()->pending_tasks(), 0u);
}

TEST_F(FaultWorkloadTest, OptimizerDeadlineReturnsDeadlineExceeded) {
  MonsoonOptimizer::Options options;
  options.mcts.iterations = 5000;
  options.deadline_ms = 1;  // expires during the first searches
  MonsoonOptimizer monsoon(workload_->catalog.get(), options);
  RunResult result = monsoon.Run(workload_->queries.front().spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.timed_out());
}

}  // namespace
}  // namespace monsoon
