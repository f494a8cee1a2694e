#ifndef MONSOON_EXEC_UDF_CACHE_H_
#define MONSOON_EXEC_UDF_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "exec/bound_term.h"
#include "exec/flat_compare.h"
#include "fault/cancellation.h"
#include "parallel/thread_pool.h"
#include "plan/plan_node.h"
#include "storage/table.h"
#include "storage/value.h"

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

/// One bound UDF term materialized over one expression: a contiguous typed
/// column (int64/double stored flat; strings stored alongside a
/// precomputed Value::Hash()-identical 64-bit hash column). Immutable once
/// built; readers on any thread may index it freely.
class CachedUdfColumn {
 public:
  ValueType type() const { return type_; }
  size_t size() const { return size_; }
  size_t ApproxBytes() const { return bytes_; }

  int64_t Int64At(size_t row) const { return int64s_[row]; }
  double DoubleAt(size_t row) const { return doubles_[row]; }
  const std::string& StringAt(size_t row) const { return strings_[row]; }

  // Raw column storage for the batch executor's FlatView (exec/batch.h):
  // tight per-type loops read these directly instead of paying a type
  // switch per row. Only the vector matching type() is populated.
  const int64_t* Int64Data() const { return int64s_.data(); }
  const double* DoubleData() const { return doubles_.data(); }
  const std::string* StringData() const { return strings_.data(); }
  const uint64_t* HashData() const { return hashes_.data(); }

  // The per-type switches (hash / box / equality) are written once on
  // FlatView (exec/flat_compare.h); these wrappers keep the column's
  // historical call sites working on a stack-built view.

  /// Value::Hash() of the row's result without boxing a Value. Strings
  /// read the precomputed hash column; numerics mix inline.
  uint64_t HashAt(size_t row) const { return View().HashAt(row); }

  /// Boxes the row's result (tests and diagnostics; operators read the
  /// typed arrays).
  Value ValueAt(size_t row) const { return View().ValueAt(row); }

  /// result(row) == v, matching Value::operator== (false across types).
  bool EqualsValue(size_t row, const Value& v) const {
    return View().EqualsValue(row, v);
  }

  /// a.result(ai) == b.result(bi). String compares check the hash columns
  /// first so mismatches never touch character data.
  static bool Equal(const CachedUdfColumn& a, size_t ai,
                    const CachedUdfColumn& b, size_t bi) {
    return FlatView::Equal(a.View(), ai, b.View(), bi);
  }

 private:
  FlatView View() const {
    FlatView view;
    view.type = type_;
    view.i64 = int64s_.data();
    view.dbl = doubles_.data();
    view.str = strings_.data();
    view.str_hash = hashes_.data();
    return view;
  }

  friend class UdfColumnCache;

  ValueType type_ = ValueType::kInt64;
  size_t size_ = 0;
  size_t bytes_ = 0;
  std::vector<int64_t> int64s_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint64_t> hashes_;  // string columns only
};

using CachedUdfColumnPtr = std::shared_ptr<const CachedUdfColumn>;

/// Evaluate-once cache of bound UDF terms, one per MaterializedStore (or
/// shared across queries by the server), keyed by (ExprSig, bound term).
/// The first operator to touch a term over an expression pays one UDF pass
/// (morsel-parallel when a pool is supplied); every later scan, join
/// build/probe, or Σ pass over the same expression reads the flat column
/// instead of calling BoundTerm::Eval per row.
///
/// Residency is bounded by an LRU byte budget. A build whose column alone
/// exceeds the budget still returns the column (shared_ptr-pinned by the
/// caller) but does not retain it. byte_budget == 0 disables the cache
/// entirely: GetOrBuild returns nullptr without evaluating anything, and
/// callers fall back to per-row evaluation.
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
/// with GUARDED_BY so Clang's -Wthread-safety proves it). The executor's
/// orchestration thread is still the only caller today, but a locked cache
/// keeps concurrent queries over one MaterializedStore from becoming a
/// silent data race later. The fill inside a build runs outside the pool's
/// worker lambdas' view of the cache (disjoint ranges of a private column)
/// and the built column is immutable once published.
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
  /// materialized as `table`, building it with `bound` on a miss (filled
  /// via pool-parallel morsels when `pool` != nullptr, polling `token`
  /// at morsel boundaries when one is supplied). Returns nullptr when the
  /// cache is disabled. Errors if the UDF's declared result type disagrees
  /// with a produced value, on an injected exec.udf_cache.fill fault, or
  /// on cancellation; a failed fill publishes nothing — the partial
  /// column is discarded and the entry stays absent.
  StatusOr<CachedUdfColumnPtr> GetOrBuild(const ExprSig& sig, const BoundTerm& bound,
                                          const TablePtr& table,
                                          parallel::ThreadPool* pool,
                                          size_t morsel_size,
                                          fault::CancellationToken* token = nullptr);

  /// Shard-scoped variant: the column for rows [begin, end) of `table`,
  /// stored at LOCAL indexes (slot row - begin), so per-shard operators
  /// index it with their shard-relative offsets. Keyed by the shard's row
  /// range on top of (sig, bound term) — a whole-table column is simply the
  /// range [0, num_rows), so shard keys never collide with whole-column
  /// keys across shard counts. Fills serially (callers are shard bodies
  /// already running as pool tasks), polling `token` per row and firing
  /// exec.udf_cache.fill at the ABSOLUTE row coordinate, so the injected
  /// failure site is identical to the unsharded fill. A failed fill
  /// publishes nothing.
  StatusOr<CachedUdfColumnPtr> GetOrBuildShard(
      const ExprSig& sig, const BoundTerm& bound, const TablePtr& table,
      size_t begin, size_t end,
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
  // (rels, preds, UDF function, argument columns, row_begin, row_end):
  // one bound term over one row range of one expression. Whole columns
  // use [0, num_rows).
  using Key = std::tuple<uint64_t, uint64_t, uintptr_t, std::vector<size_t>, size_t,
                         size_t>;
  static Key MakeKey(const ExprSig& sig, const BoundTerm& bound, size_t begin,
                     size_t end);

  /// The one lookup / fill / publish path behind GetOrBuild (the range
  /// [0, num_rows), filled on `pool`) and GetOrBuildShard (the shard's
  /// range, filled inline): the column of rows [begin, end) at local slots.
  StatusOr<CachedUdfColumnPtr> GetOrBuildRange(const ExprSig& sig,
                                               const BoundTerm& bound,
                                               const TablePtr& table, size_t begin,
                                               size_t end, parallel::ThreadPool* pool,
                                               size_t morsel_size,
                                               fault::CancellationToken* token);

  struct Entry {
    std::weak_ptr<const Table> table;  // the exact table the column indexes
    CachedUdfColumnPtr column;
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
/// 256 MiB; HarnessOptions::udf_cache_bytes installs an explicit value.
size_t DefaultUdfCacheBytes();
void SetDefaultUdfCacheBytes(size_t bytes);

}  // namespace monsoon

#endif  // MONSOON_EXEC_UDF_CACHE_H_
