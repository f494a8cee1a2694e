#ifndef MONSOON_EXEC_EXEC_CONTEXT_H_
#define MONSOON_EXEC_EXEC_CONTEXT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "exec/run_result.h"
#include "fault/cancellation.h"
#include "obs/metrics.h"
#include "parallel/runtime.h"
#include "shard/shard.h"

namespace monsoon {

/// Rows per executor batch (ForEachBatch in exec/executor.cc, DESIGN.md
/// §12). Accounting is charged per logical row, so the width changes no
/// result and no cost; it only sets how many rows one *Batch call sees.
inline constexpr size_t kBatchRows = 1024;

/// Rows per morsel for morsel-driven operators. Keeps a morsel's working
/// set (a few thousand values plus output rows) inside L2 while leaving
/// enough morsels for stealing to balance skew; see DESIGN.md §6. Morsel
/// boundaries are always batch boundaries: batches chunk within a morsel
/// and the final short batch ends at the morsel edge.
inline constexpr size_t kMorselRows = 2048;

/// Per-query execution accounting and resource limits.
///
/// Two counters are kept deliberately separate:
///  * `objects_processed` follows the paper's Sec. 4.4 cost metric exactly
///    (leaf scans charge their input, joins charge their output, Σ charges
///    another pass over its input). This is the number reported as "cost".
///  * `work_units` additionally charges real work that the paper's logical
///    metric hides, chiefly nested-loop candidate pairs. Budgets/timeouts
///    trip on work_units so a cross product cannot grind forever while
///    producing few output objects.
///
/// The context also carries the query's parallel runtime: the shared pool
/// (snapshotted from parallel::SharedPool() at construction), which the
/// executor's morsel-driven operators use. The counters above are
/// NOT thread-safe — every operator's ranges (one range, morsels or
/// shards) accumulate work in range-local tallies, and DriveRanges
/// charges the context once at the barrier from one thread, so the totals
/// are identical in every mode (DESIGN.md §6). They are obs::LocalCounter
/// (single-owner, plain integer adds) rather than registry metrics for
/// exactly that reason.
class ExecContext {
 public:
  ExecContext() = default;

  /// work_budget == 0 means unlimited.
  explicit ExecContext(uint64_t work_budget) : work_budget_(work_budget) {}

  uint64_t objects_processed() const { return objects_processed_.Value(); }
  uint64_t work_units() const { return work_units_.Value(); }
  uint64_t work_budget() const { return work_budget_; }

  /// Charges `n` objects to both counters; fails with ResourceExhausted
  /// once the work budget is exceeded.
  Status Charge(uint64_t n) {
    objects_processed_.Add(n);
    return ChargeWork(n);
  }

  /// Charges `n` to the work counter only (e.g. nested-loop candidates).
  Status ChargeWork(uint64_t n) {
    work_units_.Add(n);
    if (work_budget_ != 0 && work_units_.Value() > work_budget_) {
      return Status::ResourceExhausted("work budget exceeded");
    }
    return Status::OK();
  }

  /// UDF column cache activity attributed to this query. Executor::Execute
  /// accumulates per-run deltas of the store's cache counters here (a
  /// query may touch several stores, e.g. sampling pilot runs), so the
  /// totals survive store teardown. Purely observational — cache work is
  /// never charged to the paper's counters above.
  uint64_t udf_cache_hits() const { return udf_cache_hits_.Value(); }
  uint64_t udf_cache_misses() const { return udf_cache_misses_.Value(); }
  uint64_t udf_cache_evictions() const { return udf_cache_evictions_.Value(); }
  uint64_t udf_cache_bytes() const { return udf_cache_bytes_.Value(); }
  void AddUdfCacheDelta(uint64_t hits, uint64_t misses, uint64_t evictions,
                        uint64_t bytes_in_use) {
    udf_cache_hits_.Add(hits);
    udf_cache_misses_.Add(misses);
    udf_cache_evictions_.Add(evictions);
    udf_cache_bytes_.Set(bytes_in_use);
  }

  /// Seconds spent inside Σ statistics collection (filled by the
  /// executor); drives the Table 8 component breakdown.
  double stats_collect_seconds() const { return stats_collect_seconds_.Value(); }
  void AddStatsCollectSeconds(double s) { stats_collect_seconds_.Add(s); }

  /// Pool for morsel-driven operators; nullptr = run serially inline.
  parallel::ThreadPool* pool() const { return pool_; }
  /// kMorselRows unless a test narrowed it through SetParallel.
  size_t morsel_size() const { return morsel_size_; }

  /// Test seam: overrides the snapshotted pool (nullptr forces the serial
  /// path) and the morsel width, so tiny tables still split into morsels.
  void SetParallel(parallel::ThreadPool* pool, size_t morsel_size) {
    pool_ = pool;
    morsel_size_ = morsel_size == 0 ? 1 : morsel_size;
  }

  /// Shards per pass: every pass splits its input, as stored, into this
  /// many even contiguous ranges (see shard/shard.h), each retried alone on
  /// a transient failure. 1 = unsharded. Snapshotted from the process
  /// default (MONSOON_SHARDS / --shards) at construction; tests pin shard
  /// counts with the setter.
  size_t num_shards() const { return num_shards_; }
  void SetShards(size_t num_shards) {
    num_shards_ = num_shards == 0 ? 1 : num_shards;
  }

  /// Shard-supervisor recovery accounting for this query (retried shard
  /// attempts, shards failed past the retry budget, shards recovered).
  /// Same single-owner contract as the counters above: the executor folds
  /// each pass's ShardRunStats in from the orchestrating thread only.
  uint64_t shard_retries() const { return shard_retries_.Value(); }
  uint64_t shard_failures() const { return shard_failures_.Value(); }
  uint64_t shard_recoveries() const { return shard_recoveries_.Value(); }
  void AddShardStats(const shard::ShardRunStats& stats) {
    shard_retries_.Add(stats.retries);
    shard_failures_.Add(stats.failures);
    shard_recoveries_.Add(stats.recoveries);
  }

  /// Rows per executor batch: kBatchRows. Test seam: SetBatchSize narrows
  /// it so small inputs cross batch boundaries.
  size_t batch_size() const { return batch_size_; }
  void SetBatchSize(size_t batch_size) {
    batch_size_ = batch_size == 0 ? 1 : batch_size;
  }

  /// Work units still chargeable before the budget trips (max() when
  /// unlimited). Parallel operators bound their shared tallies with this.
  uint64_t RemainingWork() const {
    if (work_budget_ == 0) return ~uint64_t{0};
    uint64_t used = work_units_.Value();
    return work_budget_ > used ? work_budget_ - used : 0;
  }

  /// Cooperative cancellation + wall-clock deadline for this query. Null
  /// by default (no deadline, never cancelled); the query driver installs
  /// a token and operators poll it at morsel boundaries. Not owned.
  fault::CancellationToken* cancel_token() const { return cancel_token_; }
  void SetCancelToken(fault::CancellationToken* token) {
    cancel_token_ = token;
  }

  /// OK while the query may keep running; Cancelled / DeadlineExceeded
  /// once the token trips. Serial operator loops call this once per
  /// morsel-sized batch of rows.
  Status CheckCancelled() {
    if (cancel_token_ == nullptr) return Status::OK();
    return cancel_token_->Check();
  }

 private:
  uint64_t work_budget_ = 0;
  obs::LocalCounter objects_processed_;
  obs::LocalCounter work_units_;
  obs::LocalCounter udf_cache_hits_;
  obs::LocalCounter udf_cache_misses_;
  obs::LocalCounter udf_cache_evictions_;
  obs::LocalCounter udf_cache_bytes_;
  obs::LocalGauge stats_collect_seconds_;
  obs::LocalCounter shard_retries_;
  obs::LocalCounter shard_failures_;
  obs::LocalCounter shard_recoveries_;
  parallel::ThreadPool* pool_ = parallel::SharedPool();
  size_t morsel_size_ = kMorselRows;
  size_t batch_size_ = kBatchRows;
  size_t num_shards_ = static_cast<size_t>(shard::DefaultShardCount());
  fault::CancellationToken* cancel_token_ = nullptr;
};

/// Copies the context's accounting counters into a RunResult. Every
/// strategy (Monsoon and the baselines) snapshots the same five fields at
/// the same points — success and budget-exhaustion exits — so the copy
/// lives here instead of being repeated at each site.
inline void CaptureAccounting(const ExecContext& ctx, RunResult* result) {
  result->objects_processed = ctx.objects_processed();
  result->work_units = ctx.work_units();
  result->udf_cache_hits = ctx.udf_cache_hits();
  result->udf_cache_misses = ctx.udf_cache_misses();
  result->udf_cache_bytes = ctx.udf_cache_bytes();
  result->shard_retries = ctx.shard_retries();
  result->shard_failures = ctx.shard_failures();
  result->shard_recoveries = ctx.shard_recoveries();
}

/// Monotonic wall-clock timer helper.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace monsoon

#endif  // MONSOON_EXEC_EXEC_CONTEXT_H_
