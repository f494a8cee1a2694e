#include "shard/shard.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/env.h"
#include "common/hash.h"
#include "fault/cancellation.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"

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

ShardMap EvenMap(size_t rows, size_t num_shards) {
  if (num_shards < 1) num_shards = 1;
  ShardMap map;
  map.offsets.reserve(num_shards + 1);
  for (size_t s = 0; s <= num_shards; ++s) {
    map.offsets.push_back(rows * s / num_shards);
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
  // HashCombine leaves the high bits weak; Mix64 spreads every input bit.
  return Mix64(h);
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

  // One shard's failure does NOT stop its siblings: each claimed shard
  // runs its attempt loop, records its own verdict and hands the
  // dispenser OK. A doomed pass burns the surviving shards' (retry-
  // bounded) work, but in exchange the failure surface is a pure function
  // of per-shard outcomes — the recorded failure count and the winning
  // verdict are identical at every thread count, which is what lets the
  // degraded reason deterministically name the same shard in CI runs.
  // `token` is only polled: a shard failure must not cancel the query
  // token, or the caller could no longer distinguish "this pass failed,
  // degrade it" from "the query is dead".
  auto run_shard = [&](size_t s, size_t, size_t) -> Status {
    obs::TraceSpan span("shard", "exec");
    span.Arg("shard", s).Arg("rows", map.rows(s));
    Metrics().exec_passes->Add(1);
    for (uint32_t attempt = 0;; ++attempt) {
      if (token != nullptr) {
        Status live = token->Check();
        if (!live.ok()) {
          verdicts[s] = std::move(live);
          return Status::OK();
        }
      }
      Status st = body(s, map.begin(s), map.end(s), attempt);
      if (st.ok()) {
        if (attempt > 0) {
          local[s].recoveries = 1;
          Metrics().recoveries->Add(1);
        }
        return Status::OK();
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
        return Status::OK();
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
  };
  Status claimed = parallel::ParallelFor(pool, n, 1, token, run_shard);

  if (stats != nullptr) {
    for (const ShardRunStats& l : local) {
      stats->retries += l.retries;
      stats->failures += l.failures;
      stats->recoveries += l.recoveries;
    }
  }
  // Lowest-indexed failed shard wins, independent of thread interleaving.
  // Shards are claimed in index order, so one a tripped token left
  // unclaimed sorts after every claimed one; `claimed` reports that token.
  for (size_t s = 0; s < n; ++s) {
    if (!verdicts[s].ok()) return verdicts[s];
  }
  return claimed;
}

}  // namespace monsoon::shard
