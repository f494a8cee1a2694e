#include "exec/udf_cache.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "common/env.h"
#include "fault/injector.h"
#include "parallel/parallel_for.h"

namespace monsoon {

namespace {

constexpr size_t kDefaultUdfCacheBytes = size_t{256} << 20;  // 256 MiB

std::atomic<size_t>& DefaultBytesHolder() {
  static std::atomic<size_t> holder =
      EnvNumber("MONSOON_UDF_CACHE", kDefaultUdfCacheBytes, kUint64Range);
  return holder;
}

}  // namespace

size_t DefaultUdfCacheBytes() { return DefaultBytesHolder().load(); }

void SetDefaultUdfCacheBytes(size_t bytes) { DefaultBytesHolder().store(bytes); }

void UdfColumnCache::set_byte_budget(size_t bytes) {
  MutexLock lock(mu_);
  byte_budget_ = bytes;
  EvictToFit(0);
}

void UdfColumnCache::Evict(std::map<Key, Entry>::iterator it) {
  MONSOON_DCHECK(stats_.bytes_in_use >= it->second.bytes)
      << "resident-byte accounting drifted below an entry's size";
  stats_.bytes_in_use -= it->second.bytes;
  ++stats_.evictions;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void UdfColumnCache::EvictToFit(size_t incoming_bytes) {
  while (!lru_.empty() && stats_.bytes_in_use + incoming_bytes > byte_budget_) {
    Evict(entries_.find(lru_.back()));
  }
}

UdfColumnCache::Key UdfColumnCache::MakeKey(const ExprSig& sig, const BoundTerm& bound) {
  return Key{sig.rels, sig.preds, reinterpret_cast<uintptr_t>(bound.function()),
             bound.arg_cols()};
}

StatusOr<CachedUdfColumnPtr> UdfColumnCache::GetOrBuild(
    const ExprSig& sig, const BoundTerm& bound, const TablePtr& table,
    parallel::ThreadPool* pool, size_t morsel_size, fault::CancellationToken* token) {
  Key key = MakeKey(sig, bound);
  {
    MutexLock lock(mu_);
    if (byte_budget_ == 0) return CachedUdfColumnPtr();
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.table.lock().get() == table.get()) {
        // A resident column must index the exact rows of the table it was
        // built from; serving a differently-sized column would read join
        // keys positionally against the wrong rows.
        MONSOON_DCHECK(it->second.column->size() == table->num_rows())
            << "cached column rows diverged from its table";
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        return it->second.column;
      }
      // Same signature re-materialized as a different physical table (e.g.
      // a different join order across EXECUTE rounds permuted the rows):
      // the positional column is stale.
      Evict(it);
    }
  }
  // The miss path builds outside the lock: the fill may fan out through
  // the pool, and ParallelFor's blocking wait under mu_ would both stall
  // concurrent readers and violate the lock-rank rule (a task the waiting
  // caller runs could itself need this cache).

  // Miss: evaluate the term once per row into a private column, one
  // kernel call per batch. Morsels write disjoint slots of the presized
  // column; the fill is never charged to the work/object counters (the
  // cache is invisible to the paper's cost model).
  auto column = std::make_shared<FlatColumn>();
  const Table& t = *table;
  column->Resize(bound.result_type(), t.num_rows());
  Status filled = parallel::ParallelFor(
      pool, t.num_rows(), morsel_size, token,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t b = begin; b < end; b += kBatchRows) {
          const size_t e = std::min(end, b + kBatchRows);
          // Every row of the batch polls and fires before the kernel runs,
          // so a fault at row k fails the fill before k's batch is
          // evaluated.
          for (size_t row = b; row < e; ++row) {
            if (token != nullptr) MONSOON_RETURN_IF_ERROR(token->Check());
            MONSOON_FAULT_POINT("exec.udf_cache.fill", row);
          }
          column->Fill(bound, t, UdfRows::Range(b, e), b);
        }
        return Status::OK();
      });
  MONSOON_RETURN_IF_ERROR(filled);
  const size_t bytes = column->ApproxBytes();

  MutexLock lock(mu_);
  ++stats_.misses;
  stats_.bytes_built += bytes;

  // Retain only if it fits; an oversized column is still returned (the
  // caller's shared_ptr pins it for the current operator) but the next
  // lookup will rebuild it. A concurrent builder may have published the
  // same key while we were filling — its entry is replaced, not leaked.
  if (bytes <= byte_budget_) {
    auto existing = entries_.find(key);
    if (existing != entries_.end()) Evict(existing);
    EvictToFit(bytes);
    lru_.push_front(key);
    entries_[key] = Entry{table, column, bytes, lru_.begin()};
    stats_.bytes_in_use += bytes;
  }
  return CachedUdfColumnPtr(column);
}

}  // namespace monsoon
