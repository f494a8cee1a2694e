#ifndef MONSOON_EXEC_UDF_CACHE_H_
#define MONSOON_EXEC_UDF_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "exec/batch.h"
#include "exec/bound_term.h"
#include "fault/cancellation.h"
#include "parallel/thread_pool.h"
#include "plan/plan_node.h"
#include "storage/table.h"

namespace monsoon {

/// Monotonic counters describing UdfColumnCache activity. Surfaced through
/// ExecContext / RunResult so benches can report hit rates; never part of
/// the paper's object-count accounting.
struct UdfCacheStats {
  uint64_t hits = 0;         // lookups served from a resident column
  uint64_t misses = 0;       // columns built (one UDF pass each)
  uint64_t evictions = 0;    // entries dropped (LRU budget or stale table)
  uint64_t bytes_built = 0;  // cumulative bytes of every built column
  uint64_t bytes_in_use = 0; // current resident bytes
};

/// A published cache column: immutable, so readers on any thread may index
/// it freely; the shared_ptr pins it across eviction.
using CachedUdfColumnPtr = std::shared_ptr<const FlatColumn>;

/// Evaluate-once cache of bound UDF terms, one per MaterializedStore (or
/// shared across queries by the server), keyed by (ExprSig, bound term) at
/// every shard count. The first operator to touch a term over an
/// expression pays one UDF pass (morsel-parallel when a pool is supplied)
/// into a whole-expression FlatColumn; every later scan, join build/probe,
/// or Σ pass over the same expression reads that column instead of
/// evaluating the term again.
///
/// Residency is bounded by an LRU byte budget. A build whose column alone
/// exceeds the budget still returns the column (shared_ptr-pinned by the
/// caller) but does not retain it. byte_budget == 0 disables the cache
/// entirely: GetOrBuild returns nullptr without evaluating anything, and
/// callers evaluate their terms batch by batch.
///
/// A bound term is identified by its UDF function and argument columns,
/// never by the query-local term id: two queries may use one term id for
/// different terms over the same base table, and a shared cache must not
/// hand one the other's column.
///
/// Columns are positional, so an entry remembers the exact Table it was
/// built from (weak); re-materializing the same signature in a different
/// row order (possible across EXECUTE rounds with different join orders)
/// invalidates the stale entry instead of serving wrong rows.
///
/// Invariants (pinned by tests/udf_cache_test.cc): result rows, observed
/// counts, observed distincts, work_units and objects_processed are
/// bit-identical with the cache on or off — this is a wall-clock
/// optimization, not a cost-model change.
///
/// Thread-safe: every lookup-table mutation happens under mu_ (annotated
/// with GUARDED_BY so Clang's -Wthread-safety proves it). A query calls it
/// from its orchestration thread only (operators bind their columns before
/// their ranges run); the lock keeps concurrent queries over one cache from
/// racing. The fill inside a build writes disjoint ranges of a private
/// column, and the built column is immutable once published.
class UdfColumnCache {
 public:
  explicit UdfColumnCache(size_t byte_budget) : byte_budget_(byte_budget) {}

  bool enabled() const {
    MutexLock lock(mu_);
    return byte_budget_ > 0;
  }
  size_t byte_budget() const {
    MutexLock lock(mu_);
    return byte_budget_;
  }

  /// Changes the budget, evicting LRU entries to fit (0 clears and
  /// disables). Tests use this to pin cache-on/off configurations.
  void set_byte_budget(size_t bytes);

  /// The cached column for `bound` over the expression `sig`
  /// materialized as `table`, building it with `bound` on a miss: filled
  /// through FlatColumn::Fill, one kernel call per kBatchRows batch, in
  /// pool-parallel morsels when `pool` != nullptr. Before a batch's kernel
  /// runs, each of its rows polls `token` (when one is supplied) and fires
  /// exec.udf_cache.fill. Returns nullptr when the cache is disabled.
  /// Errors on an injected exec.udf_cache.fill fault or on cancellation; a
  /// failed fill publishes nothing — the partial column is discarded and
  /// the entry stays absent.
  StatusOr<CachedUdfColumnPtr> GetOrBuild(const ExprSig& sig, const BoundTerm& bound,
                                          const TablePtr& table,
                                          parallel::ThreadPool* pool,
                                          size_t morsel_size,
                                          fault::CancellationToken* token = nullptr);

  /// Snapshot of the activity counters (by value: the counters are
  /// guarded, and a reference would escape the lock).
  UdfCacheStats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }
  size_t num_entries() const {
    MutexLock lock(mu_);
    return entries_.size();
  }

 private:
  // (rels, preds, UDF function, argument columns): one bound term over one
  // expression.
  using Key = std::tuple<uint64_t, uint64_t, uintptr_t, std::vector<size_t>>;
  static Key MakeKey(const ExprSig& sig, const BoundTerm& bound);

  struct Entry {
    std::weak_ptr<const Table> table;  // the exact table the column indexes
    CachedUdfColumnPtr column;
    size_t bytes = 0;  // column->ApproxBytes(), taken once at publish
    std::list<Key>::iterator lru_it;
  };

  void Evict(std::map<Key, Entry>::iterator it) REQUIRES(mu_);
  void EvictToFit(size_t incoming_bytes) REQUIRES(mu_);

  mutable Mutex mu_;
  size_t byte_budget_ GUARDED_BY(mu_);
  std::map<Key, Entry> entries_ GUARDED_BY(mu_);
  std::list<Key> lru_ GUARDED_BY(mu_);  // front = most recently used
  UdfCacheStats stats_ GUARDED_BY(mu_);
};

/// Process-wide default byte budget applied to every new
/// MaterializedStore's cache. Initialized from the MONSOON_UDF_CACHE
/// environment variable (bytes; 0 disables) on first use, defaulting to
/// 256 MiB; SetDefaultUdfCacheBytes (quickstart's --udf-cache-bytes=B)
/// installs an explicit value.
size_t DefaultUdfCacheBytes();
void SetDefaultUdfCacheBytes(size_t bytes);

}  // namespace monsoon

#endif  // MONSOON_EXEC_UDF_CACHE_H_
