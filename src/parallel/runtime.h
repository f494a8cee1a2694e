#ifndef MONSOON_PARALLEL_RUNTIME_H_
#define MONSOON_PARALLEL_RUNTIME_H_

#include "parallel/thread_pool.h"

namespace monsoon::parallel {

/// Process-wide parallel execution knob. Every ExecContext snapshots the
/// default config at construction, so one SetDefaultConfig call at startup
/// (e.g. from --threads=N) flips every strategy — Monsoon and all
/// baselines — to the same concurrency level. The executor's batch and
/// morsel widths are constants (exec/exec_context.h), not settings.
struct Config {
  /// Total threads per query (caller included). 1 = serial. Initialized
  /// from MONSOON_THREADS (default 1); an explicit --threads=N flag wins
  /// over the environment (common/env.h rule).
  int num_threads = 1;
};

/// The current process-wide default (thread-safe snapshot).
Config DefaultConfig();

/// Replaces the default config and rebuilds the shared pool to match.
/// Call while no query is executing (startup / between bench runs);
/// ExecContexts created before the call keep the old pool.
void SetDefaultConfig(const Config& config);

/// The process-wide pool sized per DefaultConfig(). Returns nullptr when
/// the config implies serial execution (num_threads <= 1), which every
/// consumer treats as "run inline".
ThreadPool* SharedPool();

/// Root-parallel MCTS searchers per decision: the default config's
/// num_threads.
int EffectiveMctsWorkers();

}  // namespace monsoon::parallel

#endif  // MONSOON_PARALLEL_RUNTIME_H_
