#include "parallel/runtime.h"

#include <algorithm>
#include <memory>

#include "common/env.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace monsoon::parallel {

namespace {

struct Runtime {
  Mutex mu;
  Config config GUARDED_BY(mu);
  std::unique_ptr<ThreadPool> pool GUARDED_BY(mu);

  Runtime() {
    config.batch_size = std::max<uint64_t>(
        1, EnvUint64("MONSOON_BATCH_SIZE", config.batch_size));
  }
};

Runtime& GlobalRuntime() {
  static Runtime* runtime = new Runtime();  // NOLINT(monsoon-raw-new): leaked singleton outlives static destruction order
  return *runtime;
}

}  // namespace

Config DefaultConfig() {
  Runtime& rt = GlobalRuntime();
  MutexLock lock(rt.mu);
  return rt.config;
}

void SetDefaultConfig(const Config& config) {
  Runtime& rt = GlobalRuntime();
  MutexLock lock(rt.mu);
  rt.config = config;
  rt.config.num_threads = std::max(1, config.num_threads);
  rt.config.morsel_size = std::max<size_t>(1, config.morsel_size);
  rt.config.batch_size = std::max<size_t>(1, config.batch_size);
  // Rebuild eagerly so the old pool's workers wind down now rather than
  // under a later query.
  if (rt.config.num_threads <= 1) {
    rt.pool.reset();
  } else if (rt.pool == nullptr ||
             rt.pool->num_threads() != rt.config.num_threads) {
    rt.pool.reset();  // join old workers before spawning replacements
    rt.pool = std::make_unique<ThreadPool>(rt.config.num_threads);
  }
}

ThreadPool* SharedPool() {
  Runtime& rt = GlobalRuntime();
  MutexLock lock(rt.mu);
  return rt.pool.get();
}

int EffectiveMctsWorkers() { return DefaultConfig().num_threads; }

}  // namespace monsoon::parallel
