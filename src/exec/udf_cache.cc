#include "exec/udf_cache.h"

#include <atomic>

#include "common/check.h"
#include "common/env.h"
#include "common/hash.h"
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
  MONSOON_DCHECK(stats_.bytes_in_use >= it->second.column->ApproxBytes())
      << "resident-byte accounting drifted below an entry's size";
  stats_.bytes_in_use -= it->second.column->ApproxBytes();
  ++stats_.evictions;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void UdfColumnCache::EvictToFit(size_t incoming_bytes) {
  while (!lru_.empty() && stats_.bytes_in_use + incoming_bytes > byte_budget_) {
    Evict(entries_.find(lru_.back()));
  }
}

UdfColumnCache::Key UdfColumnCache::MakeKey(const ExprSig& sig, const BoundTerm& bound,
                                            size_t begin, size_t end) {
  return Key{sig.rels,
             sig.preds,
             reinterpret_cast<uintptr_t>(bound.function()),
             bound.arg_cols(),
             begin,
             end};
}

StatusOr<CachedUdfColumnPtr> UdfColumnCache::GetOrBuild(
    const ExprSig& sig, const BoundTerm& bound, const TablePtr& table,
    parallel::ThreadPool* pool, size_t morsel_size, fault::CancellationToken* token) {
  return GetOrBuildRange(sig, bound, table, 0, table->num_rows(), pool,
                         morsel_size, token);
}

StatusOr<CachedUdfColumnPtr> UdfColumnCache::GetOrBuildShard(
    const ExprSig& sig, const BoundTerm& bound, const TablePtr& table, size_t begin,
    size_t end, fault::CancellationToken* token) {
  // The caller IS a pool task (one shard body); fanning out again would
  // only fight siblings for workers, so the fill runs inline as one morsel.
  return GetOrBuildRange(sig, bound, table, begin, end, /*pool=*/nullptr,
                         end - begin, token);
}

StatusOr<CachedUdfColumnPtr> UdfColumnCache::GetOrBuildRange(
    const ExprSig& sig, const BoundTerm& bound, const TablePtr& table, size_t begin,
    size_t end, parallel::ThreadPool* pool, size_t morsel_size,
    fault::CancellationToken* token) {
  MONSOON_DCHECK(begin <= end && end <= table->num_rows())
      << "column range out of bounds";
  Key key = MakeKey(sig, bound, begin, end);
  {
    MutexLock lock(mu_);
    if (byte_budget_ == 0) return CachedUdfColumnPtr();
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.table.lock().get() == table.get()) {
        // A resident column must index the exact rows of the table it was
        // built from; serving a differently-sized column would read join
        // keys positionally against the wrong rows.
        MONSOON_DCHECK(it->second.column->size() == end - begin)
            << "cached column rows diverged from its key range";
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
  // the pool, and a blocking TaskGroup::Wait under mu_ would both stall
  // concurrent readers and violate the lock-rank rule (a stolen task
  // could itself need this cache).

  // Miss: evaluate the term once per row into a flat typed column holding
  // the range at local slots [0, end - begin). A retried shard attempt
  // re-enters here and rebuilds from scratch — the previous attempt's
  // partial column was a local that died with the failed fill, never
  // published.
  auto column = std::make_shared<CachedUdfColumn>();
  const Table& t = *table;
  const size_t n = end - begin;
  column->type_ = bound.result_type();
  column->size_ = n;
  switch (column->type_) {
    case ValueType::kInt64:
      column->int64s_.resize(n);
      break;
    case ValueType::kDouble:
      column->doubles_.resize(n);
      break;
    case ValueType::kString:
      column->strings_.resize(n);
      column->hashes_.resize(n);
      break;
  }
  // Morsels write disjoint index ranges of the presized vectors; the fill
  // is the only parallel section and is never charged to the work/object
  // counters (the cache is invisible to the paper's cost model). Each
  // morsel also adds up its strings' heap bytes for the column's size.
  std::atomic<size_t> string_bytes{0};
  MONSOON_RETURN_IF_ERROR(parallel::ParallelFor(
      pool, n, morsel_size == 0 ? 1 : morsel_size, token,
      [&](size_t, size_t slot_begin, size_t slot_end) -> Status {
        // Disjoint-range fill: writing past the presized column would race
        // with the neighbouring morsel.
        MONSOON_DCHECK(slot_begin <= slot_end && slot_end <= n)
            << "morsel out of bounds";
        size_t morsel_bytes = 0;
        for (size_t slot = slot_begin; slot < slot_end; ++slot) {
          // UDF evaluation dominates each iteration, so a per-row poll is
          // noise here — and a slow UDF is exactly when cancellation
          // latency matters. (Spelled without MONSOON_RETURN_IF_ERROR:
          // this lambda already sits inside that macro's expansion and the
          // nested temporary would shadow it.)
          if (token != nullptr) {
            Status polled = token->Check();
            if (!polled.ok()) return polled;
          }
          // Absolute row coordinate: the injected failure site must not
          // move when the same rows are filled shard-by-shard instead of
          // whole.
          const size_t row = begin + slot;
          MONSOON_FAULT_POINT("exec.udf_cache.fill", row);
          Value v = bound.Eval(t, row);
          if (v.type() != column->type_) {
            return Status::Internal("UDF produced a value of unexpected type");
          }
          switch (column->type_) {
            case ValueType::kInt64:
              column->int64s_[slot] = v.AsInt64();
              break;
            case ValueType::kDouble:
              column->doubles_[slot] = v.AsDouble();
              break;
            case ValueType::kString:
              column->strings_[slot] = v.AsString();
              column->hashes_[slot] = HashString(column->strings_[slot]);
              morsel_bytes += column->strings_[slot].capacity();
              break;
          }
        }
        string_bytes.fetch_add(morsel_bytes, std::memory_order_relaxed);
        return Status::OK();
      }));

  size_t bytes = sizeof(CachedUdfColumn);
  switch (column->type_) {
    case ValueType::kInt64:
      bytes += n * sizeof(int64_t);
      break;
    case ValueType::kDouble:
      bytes += n * sizeof(double);
      break;
    case ValueType::kString:
      bytes += n * (sizeof(std::string) + sizeof(uint64_t)) +
               string_bytes.load(std::memory_order_relaxed);
      break;
  }
  column->bytes_ = bytes;

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
    entries_[key] = Entry{table, column, lru_.begin()};
    stats_.bytes_in_use += bytes;
  }
  return CachedUdfColumnPtr(column);
}

}  // namespace monsoon
