#include "shard/shard.h"

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "common/env.h"
#include "common/hash.h"
#include "common/sync.h"
#include "fault/cancellation.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace monsoon::shard {

namespace {

/// Registry handles for the monsoon.shard.* metric family. Looked up once;
/// the registry owns the objects.
struct ShardMetrics {
  obs::Counter* exec_passes;
  obs::Counter* retries;
  obs::Counter* failures;
  obs::Counter* recoveries;
};

ShardMetrics& Metrics() {
  static ShardMetrics m = [] {
    obs::Registry& reg = obs::Registry::Global();
    ShardMetrics metrics;
    metrics.exec_passes = reg.GetCounter("monsoon.shard.exec_passes");
    metrics.retries = reg.GetCounter("monsoon.shard.retries");
    metrics.failures = reg.GetCounter("monsoon.shard.failures");
    metrics.recoveries = reg.GetCounter("monsoon.shard.recoveries");
    return metrics;
  }();
  return m;
}

std::atomic<int>& ShardCountHolder() {
  static std::atomic<int> holder = EnvNumber("MONSOON_SHARDS", 1, kCountRange);
  return holder;
}

}  // namespace

ShardMapPtr TrivialMap(size_t rows) {
  auto map = std::make_shared<ShardMap>();
  map->offsets = {0, rows};
  return map;
}

ShardMapPtr EvenMap(size_t rows, size_t num_shards) {
  if (num_shards < 1) num_shards = 1;
  auto map = std::make_shared<ShardMap>();
  map->offsets.reserve(num_shards + 1);
  for (size_t s = 0; s <= num_shards; ++s) {
    map->offsets.push_back(rows * s / num_shards);
  }
  return map;
}

uint64_t RowContentHash(const Table& table, size_t row) {
  uint64_t h = 0;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    uint64_t cell = 0;
    switch (schema.column(c).type) {
      case ValueType::kInt64:
        cell = HashInt64Value(table.Int64At(c, row));
        break;
      case ValueType::kDouble:
        cell = HashDoubleValue(table.DoubleAt(c, row));
        break;
      case ValueType::kString:
        cell = HashString(table.StringAt(c, row));
        break;
    }
    h = HashCombine(h, cell);
  }
  // ShardOfHash consumes the HIGH bits; HashCombine leaves them weak.
  return Mix64(h);
}

PartitionResult Partition(const TablePtr& table, size_t num_shards) {
  if (table == nullptr || num_shards <= 1) {
    return {table, nullptr};
  }
  const size_t rows = table->num_rows();
  std::vector<std::vector<uint32_t>> selections(num_shards);
  for (size_t row = 0; row < rows; ++row) {
    size_t s = ShardOfHash(RowContentHash(*table, row), num_shards);
    selections[s].push_back(static_cast<uint32_t>(row));
  }
  auto out = std::make_shared<Table>(table->schema());
  auto map = std::make_shared<ShardMap>();
  map->offsets.reserve(num_shards + 1);
  map->offsets.push_back(0);
  for (size_t s = 0; s < num_shards; ++s) {
    out->AppendSelectedFrom(*table, selections[s].data(), selections[s].size());
    map->offsets.push_back(out->num_rows());
  }
  return {std::move(out), std::move(map)};
}

namespace {

struct PartitionCacheEntry {
  std::weak_ptr<const Table> source;  // identity check: address reuse guard
  PartitionResult result;
};

Mutex& PartitionCacheMutex() {
  static Mutex* mu = new Mutex;  // NOLINT(monsoon-raw-new): leaked singleton
  return *mu;
}

/// Keyed (source address, shard count); validated against `source` so a
/// recycled Table address never serves another table's layout. Entries for
/// dead tables are pruned on every access — the cache never outgrows the
/// set of live base tables.
std::map<std::pair<const Table*, size_t>, PartitionCacheEntry>&
PartitionCache() {
  static auto* cache = new std::map<  // NOLINT(monsoon-raw-new): singleton
      std::pair<const Table*, size_t>, PartitionCacheEntry>;
  return *cache;
}

}  // namespace

PartitionResult GetOrPartition(const TablePtr& table, size_t num_shards) {
  if (table == nullptr || num_shards <= 1) {
    return {table, nullptr};
  }
  MutexLock lock(PartitionCacheMutex());
  auto& cache = PartitionCache();
  for (auto it = cache.begin(); it != cache.end();) {
    if (it->second.source.expired()) {
      it = cache.erase(it);
    } else {
      ++it;
    }
  }
  std::pair<const Table*, size_t> key(table.get(), num_shards);
  auto it = cache.find(key);
  if (it != cache.end() && it->second.source.lock() == table) {
    return it->second.result;
  }
  PartitionCacheEntry entry;
  entry.source = table;
  entry.result = Partition(table, num_shards);
  cache[key] = entry;
  return entry.result;
}

int DefaultShardCount() {
  return ShardCountHolder().load(std::memory_order_relaxed);
}

void SetDefaultShardCount(int num_shards) {
  ShardCountHolder().store(num_shards < 1 ? 1 : num_shards,
                           std::memory_order_relaxed);
}

Status RunSharded(parallel::ThreadPool* pool, fault::CancellationToken* token,
                  const ShardMap& map, const char* point_name,
                  const ShardBody& body, ShardRunStats* stats) {
  const size_t n = map.num_shards();
  if (n == 0) return Status::OK();
  const fault::FaultConfig* config = fault::InstalledConfig();
  const uint32_t retry_budget = config != nullptr ? config->max_retries : 0;

  std::vector<Status> verdicts(n, Status::OK());
  std::vector<ShardRunStats> local(n);

  // One shard's failure does NOT stop its siblings: every shard runs to
  // its own verdict. A doomed pass burns the surviving shards' (retry-
  // bounded) work, but in exchange the failure surface is a pure function
  // of per-shard outcomes — the recorded failure count and the winning
  // verdict are identical at every thread count, which is what lets the
  // degraded reason deterministically name the same shard in CI runs.
  // Deliberately NO CancellationToken on the group: a shard failure must
  // not cancel the query token, or the caller could no longer distinguish
  // "this pass failed, degrade it" from "the query is dead".
  parallel::TaskGroup group(pool);
  for (size_t s = 0; s < n; ++s) {
    group.Run([&, s] {
      obs::TraceSpan span("shard", "exec");
      span.Arg("shard", s).Arg("rows", map.rows(s));
      Metrics().exec_passes->Add(1);
      for (uint32_t attempt = 0;; ++attempt) {
        if (token != nullptr) {
          Status live = token->Check();
          if (!live.ok()) {
            verdicts[s] = std::move(live);
            return;
          }
        }
        Status st = body(s, map.begin(s), map.end(s), attempt);
        if (st.ok()) {
          if (attempt > 0) {
            local[s].recoveries = 1;
            Metrics().recoveries->Add(1);
          }
          return;
        }
        if (!st.IsTransient() || attempt >= retry_budget) {
          local[s].failures = 1;
          Metrics().failures->Add(1);
          std::string frame =
              "shard " + std::to_string(s) +
              (st.IsTransient() ? " exhausted retry budget after " +
                                      std::to_string(attempt + 1) + " attempts"
                                : " failed");
          verdicts[s] = std::move(st).WithContext(std::move(frame));
          return;
        }
        local[s].retries += 1;
        Metrics().retries->Add(1);
        obs::TraceSpan retry_span("shard", "retry");
        retry_span.Arg("shard", s).Arg("attempt",
                                       static_cast<uint64_t>(attempt) + 1);
        if (config != nullptr) {
          uint64_t backoff_us =
              fault::BackoffUs(config->seed, point_name, s, attempt + 1,
                               config->backoff_base_us);
          if (backoff_us > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
          }
        }
      }
    });
  }
  group.Wait();

  if (stats != nullptr) {
    for (const ShardRunStats& l : local) {
      stats->retries += l.retries;
      stats->failures += l.failures;
      stats->recoveries += l.recoveries;
    }
  }
  // Lowest-indexed failed shard wins, independent of thread interleaving.
  for (size_t s = 0; s < n; ++s) {
    if (!verdicts[s].ok()) return verdicts[s];
  }
  return token != nullptr ? token->Check() : Status::OK();
}

}  // namespace monsoon::shard
