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
    config.num_threads = EnvNumber("MONSOON_THREADS", 1, kCountRange);
    if (config.num_threads > 1) {
      pool = std::make_unique<ThreadPool>(config.num_threads);
    }
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
  rt.config.num_threads = std::max(1, config.num_threads);
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
