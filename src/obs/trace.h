#ifndef MONSOON_OBS_TRACE_H_
#define MONSOON_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace monsoon::obs {

/// Structured tracing in Chrome trace_event format (loadable in
/// chrome://tracing and Perfetto). Spans are emitted as complete events
/// (ph:"X") onto *logical lanes* instead of OS thread ids: the lane layout
/// is fixed per process, so a same-seed serial run produces byte-identical
/// traces modulo the ts/dur wall-clock fields. Span ids and sequence
/// numbers come from per-lane Pcg32 streams seeded with seed + lane —
/// never from the clock.
///
/// Spans record into a *trace scope*: a tail-sampled query's own buffer
/// (BeginQueryTrace), or full tracing's one process scope.
///
/// Lifecycle: StartTracing(path, seed) arms the global flag and empties the
/// process scope; TraceSpan objects on any thread record into it;
/// StopTracing() disarms, sorts the scope's events by (lane, seq), and
/// writes the JSON file. When tracing is off a TraceSpan costs one acquire
/// load and a branch — no allocation, no lock (pinned by bench_obs_overhead
/// and the zero-allocation test).

enum class QueryReason;  // obs/report.h

namespace internal {
extern std::atomic<bool> g_trace_enabled;
extern std::atomic<bool> g_tail_mode;
}  // namespace internal

inline bool TracingEnabled() {
  // acquire pairs with the release store in StartTracing so a thread that
  // sees the flag also sees the reset lane states and trace epoch.
  return internal::g_trace_enabled.load(std::memory_order_acquire);
}

/// True while tail-based sampling (StartTailSampling) owns the tracer.
inline bool TailSamplingActive() {
  return internal::g_tail_mode.load(std::memory_order_acquire);
}

/// Logical lane layout. A lane is the "tid" in the trace file.
inline constexpr int kMainLane = 0;
/// Root-parallel MCTS workers: lane = kMctsLaneBase + worker index, named
/// "mcts-w<index>" in the trace file.
inline constexpr int kMctsLaneBase = 1;
/// Thread-pool workers: lane = kPoolLaneBase + pool worker id.
inline constexpr int kPoolLaneBase = 64;
/// Threads with no assigned lane draw one from 128 upward on first use.
inline constexpr int kExternalLaneBase = 128;
inline constexpr int kNumLanes = 192;

inline constexpr uint64_t kDefaultTraceSeed = 0x6d6f6e736f6f6eULL;

/// Permanently assigns this thread's default lane (pool workers call this
/// once from WorkerLoop). `name` labels the lane in the trace viewer.
void SetThreadDefaultLane(int lane, const std::string& name);

/// Scoped lane override for the current thread (MCTS worker tasks, which
/// run on arbitrary pool threads but must trace onto their worker's lane).
/// It sets a thread-local and nothing else: the MCTS lanes' names follow
/// from the lane layout, so no name is built and no lock is taken.
class TraceLaneScope {
 public:
  explicit TraceLaneScope(int lane);
  ~TraceLaneScope();

  TraceLaneScope(const TraceLaneScope&) = delete;
  TraceLaneScope& operator=(const TraceLaneScope&) = delete;

 private:
  int saved_lane_;
};

/// Begins capturing. Fails if tracing is already active. Resets every
/// lane's Pcg32 stream to seed + lane so same-seed runs replay span ids.
Status StartTracing(const std::string& path,
                    uint64_t seed = kDefaultTraceSeed);

/// Stops capturing and writes the JSON file passed to StartTracing.
/// Idempotent: returns OK if tracing was not active.
Status StopTracing();

/// Starts tracing from MONSOON_TRACE=<path> (and optional
/// MONSOON_TRACE_SEED=<n>); returns true if tracing was started. No-op if
/// the variable is unset or tracing is already active.
bool MaybeStartTracingFromEnv();

/// --- Tail-based trace sampling -------------------------------------------
///
/// Production mode: tracing stays armed for every query, but the buffered
/// events are kept only for queries that *end* interesting — slower than a
/// threshold, retried, degraded, cancelled, or faulted (ClassifyQuery) —
/// and are dropped at query end otherwise, under a global byte budget.
/// Each kept query becomes its own Chrome trace file in `dir`, prefixed
/// with a "sampling_decision" marker event recording why it was kept.
///
/// Scoping: BeginQueryTrace() opens the query's trace scope and makes it
/// the calling thread's current scope. ThreadPool tasks carry their
/// submitter's current scope to whichever thread runs them, so the morsel,
/// shard-range and MCTS-worker spans of a query land in its scope — also
/// when a peer session's thread runs the task while it waits. A span
/// recorded outside every query scope is not kept in tail mode. The
/// matching EndQueryTrace() closes the scope: a dropped query frees its
/// events without a global lock, a kept one writes its own. Full-file
/// tracing (StartTracing) and tail sampling are mutually exclusive.

struct TailSamplingOptions {
  /// Directory for kept trace files ("<dir>/tail-<serial>-<reason>.json").
  std::string dir;
  /// Keep queries with elapsed_us >= slow_us; 0 keeps only retried /
  /// degraded / cancelled / faulted queries.
  uint64_t slow_us = 0;
  /// Span-id stream seed, as StartTracing.
  uint64_t seed = kDefaultTraceSeed;
  /// Cap on bytes buffered across all in-flight queries; events past it
  /// are dropped (counted per query and stamped into the marker event).
  size_t byte_budget = 8 << 20;
};

/// Arms tail sampling. Fails if tracing (either mode) is already active.
Status StartTailSampling(const TailSamplingOptions& options);

/// Disarms tail sampling. Queries still in flight drop their events when
/// they end. Idempotent.
Status StopTailSampling();

/// Arms tail sampling from MONSOON_TRACE_TAIL_MS (threshold, milliseconds)
/// and MONSOON_TRACE_TAIL_DIR (default "."); returns true when armed.
bool MaybeStartTailSamplingFromEnv();

/// Opens a query's trace scope, makes it the calling thread's current
/// scope, and returns its serial (> 0), or 0 when tail sampling is
/// inactive. Costs one acquire load when inactive (gated by
/// bench_obs_overhead).
uint64_t BeginQueryTrace();

/// Closes the scope BeginQueryTrace opened; call it on the same thread.
/// `reason` is ClassifyQuery at TailSamplingSlowUs(): kClean drops the
/// events, anything else writes "<dir>/tail-<serial>-<reason>.json" (kError
/// is spelled "faulted"). Returns the written path; "" when dropped, on a
/// failed write, or for serial == 0 (tail sampling inactive at Begin time,
/// a no-op).
std::string EndQueryTrace(uint64_t serial, QueryReason reason,
                          uint64_t elapsed_us);

/// The armed tail sampler's slow threshold (TailSamplingOptions::slow_us).
uint64_t TailSamplingSlowUs();

/// Events dropped by the byte budget since StartTailSampling.
uint64_t TailSamplingDroppedEvents();

/// A span buffer (defined in trace.cc): one per tail-sampled query, plus
/// full tracing's process scope.
class TraceScope;

/// The calling thread's current query scope; null outside every
/// tail-sampled query, and copying a null scope costs no atomic.
/// ThreadPool::Submit captures it with each task.
std::shared_ptr<TraceScope> CurrentTraceScope();

/// Makes `scope` the calling thread's current scope for this object's
/// lifetime, then restores the thread's own. ThreadPool runs each task
/// under the scope captured when it was submitted.
class TraceScopeGuard {
 public:
  explicit TraceScopeGuard(const std::shared_ptr<TraceScope>& scope);
  ~TraceScopeGuard();

  TraceScopeGuard(const TraceScopeGuard&) = delete;
  TraceScopeGuard& operator=(const TraceScopeGuard&) = delete;

 private:
  std::shared_ptr<TraceScope> saved_;
};

/// One span arg, stored typed and formatted only when a trace file is
/// written. `key` must be a string literal (stored as a pointer).
struct TraceArg {
  const char* key;
  std::variant<int64_t, uint64_t, double, bool, std::string> value;
};

/// RAII span. Construction samples the start time and draws a span id
/// from the current lane's stream; End() (or the destructor) samples the
/// duration and records the event into the thread's current scope.
/// `category`, `name` and arg keys must be string literals (stored as
/// pointers). Guard expensive arg computation with `if (span.enabled())`.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name);
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool enabled() const { return enabled_; }

  /// Closes the span and records the event; further Arg() calls are
  /// ignored. Safe to call more than once.
  void End();

  TraceSpan& Arg(const char* key, int64_t value);
  TraceSpan& Arg(const char* key, uint64_t value);
  TraceSpan& Arg(const char* key, int value);
  TraceSpan& Arg(const char* key, double value);
  TraceSpan& Arg(const char* key, bool value);
  TraceSpan& Arg(const char* key, const char* value);
  TraceSpan& Arg(const char* key, const std::string& value);

 private:
  bool enabled_ = false;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  int lane_ = 0;
  uint64_t span_id_ = 0;
  uint64_t seq_ = 0;
  uint64_t start_us_ = 0;
  std::vector<TraceArg> args_;
};

}  // namespace monsoon::obs

#endif  // MONSOON_OBS_TRACE_H_
