#ifndef MONSOON_SHARD_SHARD_H_
#define MONSOON_SHARD_SHARD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace monsoon::parallel {
class ThreadPool;
}  // namespace monsoon::parallel

namespace monsoon::fault {
class CancellationToken;
}  // namespace monsoon::fault

namespace monsoon::shard {

/// Fault point the shard supervisor's bodies poll mid-pass; the injector
/// kills one shard's attempt by arming e.g. "shard.exec=1:transient".
inline constexpr char kShardExecPoint[] = "shard.exec";

/// Shard layout over ONE table as stored: shard s owns the contiguous row
/// range [offsets[s], offsets[s+1]). Keeping the shards as ranges of a
/// single table (rather than N separate Tables) means every existing
/// per-range operator — the executor's ForEachBatch, FlatColumn::Fill,
/// CombineKeyHashes — works on a shard unchanged, and a shard indexes the
/// table's whole-expression UDF cache columns by its absolute rows (no
/// shard has columns of its own). Rows are never moved: the output order is
/// the same at every shard count.
struct ShardMap {
  std::vector<size_t> offsets;  // num_shards() + 1 entries, monotone

  size_t num_shards() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  size_t begin(size_t s) const { return offsets[s]; }
  size_t end(size_t s) const { return offsets[s + 1]; }
  size_t rows(size_t s) const { return offsets[s + 1] - offsets[s]; }
  size_t total_rows() const { return offsets.empty() ? 0 : offsets.back(); }
};

/// `num_shards` contiguous near-equal ranges over [0, rows). The per-shard
/// accounting invariant holds for ANY contiguous decomposition (every
/// pinned counter is permutation/partition-invariant), so the executor
/// shards every pass this way.
ShardMap EvenMap(size_t rows, size_t num_shards);

/// Deterministic content hash of one row: HashCombine chain of the same
/// per-type mixers Value::Hash() uses, finalized with Mix64. It depends only
/// on the row's content, never on its position; tests digest ordered
/// output with it.
uint64_t RowContentHash(const Table& table, size_t row);

/// Process default shard count: explicit SetDefaultShardCount (the
/// --shards flag) > MONSOON_SHARDS env > 1. Values < 1 clamp to 1.
int DefaultShardCount();
void SetDefaultShardCount(int num_shards);

/// Per-run recovery accounting filled by RunSharded; the executor folds it
/// into ExecContext so RunResult (and from there .health / the slow log)
/// can tell a recovered query from a clean one.
struct ShardRunStats {
  uint64_t retries = 0;     // transient shard attempts that were retried
  uint64_t failures = 0;    // shards failed past the retry budget
  uint64_t recoveries = 0;  // shards that succeeded after >= 1 retry
};

/// Per-shard work item. Runs over the shard's row range [begin, end) and
/// must COMMIT results to caller-owned per-shard slots only on success —
/// on any non-OK return the supervisor assumes nothing was published and
/// re-executes the same shard with `attempt + 1`. Bodies poll
/// fault::FireAttempt(kShardExecPoint, shard, attempt) mid-pass so the
/// injector can kill a specific attempt of a specific shard.
using ShardBody =
    std::function<Status(size_t shard, size_t begin, size_t end, uint32_t attempt)>;

/// Shard supervisor: runs `body` once per shard of `map`, claiming the
/// shards in index order from parallel::ParallelFor on `pool` (all on the
/// calling thread when the pool is null, as the executor passes it for an
/// input of at most one morsel).
///
/// Recovery protocol: a transient failure (Status::IsTransient) of one
/// shard is retried — only that shard — under the installed fault
/// config's deterministic bounded-retry/backoff schedule
/// (BackoffUs(seed, point_name, shard, attempt)); past the retry budget
/// the shard's error (with context naming the shard) becomes the pass
/// verdict. The supervisor deliberately does NOT cancel `token` on shard
/// failure: the query token stays live so the caller can degrade
/// gracefully (a failed Σ pass skips the relation instead of killing the
/// query). `token` is only POLLED, so an externally cancelled query stops
/// claiming shard attempts. The lowest-indexed failed shard's Status wins,
/// independent of thread interleaving.
Status RunSharded(parallel::ThreadPool* pool, fault::CancellationToken* token,
                  const ShardMap& map, const char* point_name,
                  const ShardBody& body, ShardRunStats* stats);

}  // namespace monsoon::shard

#endif  // MONSOON_SHARD_SHARD_H_
