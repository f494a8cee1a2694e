#ifndef MONSOON_PARALLEL_RUNTIME_H_
#define MONSOON_PARALLEL_RUNTIME_H_

#include <cstddef>

#include "parallel/thread_pool.h"

namespace monsoon::parallel {

/// Process-wide parallel execution knobs. Every ExecContext snapshots the
/// default config at construction, so one SetDefaultConfig call at startup
/// (e.g. from --threads=N / MONSOON_THREADS) flips every strategy —
/// Monsoon and all baselines — to the same concurrency level.
struct Config {
  /// Total threads per query (caller included). 1 = serial.
  int num_threads = 1;
  /// Rows per morsel for morsel-driven operators. The default keeps a
  /// morsel's working set (a few thousand Values plus output rows) inside
  /// L2 while leaving enough morsels for stealing to balance skew; see
  /// DESIGN.md "Parallel runtime".
  size_t morsel_size = 2048;
  /// Rows per batch for the vectorized executor (DESIGN.md §12).
  /// 1 selects the legacy row-at-a-time strategy (same operators driven
  /// with degenerate batches — the seed executor's behavior, kept as the
  /// equivalence/ablation baseline). Morsel boundaries are always batch
  /// boundaries: batches chunk within a morsel and the final short batch
  /// ends at the morsel edge, where cancellation was already polled.
  /// Initialized from MONSOON_BATCH_SIZE (default 1024); an explicit
  /// --batch-size=N flag wins over the environment (common/env.h rule).
  size_t batch_size = 1024;
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
