#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/env.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "obs/json.h"
#include "obs/report.h"

namespace monsoon::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
std::atomic<bool> g_tail_mode{false};
}  // namespace internal

namespace {

struct TraceEvent {
  const char* category;
  const char* name;
  int lane;
  uint64_t span_id;
  uint64_t seq;
  uint64_t ts_us;
  uint64_t dur_us;
  std::vector<TraceArg> args;
};

/// Rough in-memory footprint, charged against the tail byte budget.
size_t ApproxEventBytes(const TraceEvent& ev) {
  size_t bytes = sizeof(TraceEvent) + ev.args.size() * sizeof(TraceArg);
  for (const TraceArg& arg : ev.args) {
    if (const auto* text = std::get_if<std::string>(&arg.value)) {
      bytes += text->size();
    }
  }
  return bytes;
}

void SortByLaneSeq(std::vector<TraceEvent>* events) {
  std::stable_sort(events->begin(), events->end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.lane != b.lane) return a.lane < b.lane;
                     return a.seq < b.seq;
                   });
}

/// Per-lane id stream. A lane has a single owning thread at any moment
/// (main, one MCTS worker task, or one pool worker), so rng/seq are
/// mutated without a lock; StartTracing's reset is published by the
/// release store on the enabled flag.
struct LaneState {
  Pcg32 rng;
  uint64_t seq = 0;
};

thread_local int tls_lane = -1;

}  // namespace

/// A span buffer. A query scope (serial > 0) is shared by the query's
/// session thread and the pool tasks it submitted, and charges its events
/// to the tail byte budget; the process scope (serial 0) collects full
/// tracing's spans. A span that ends after its query did (a task's
/// pool/task span closes after its group's Wait may return) is freed with
/// the scope. `smu` is deliberately not in tools/lint/lock_ranks.h: it is
/// a leaf lock.
class TraceScope {
 public:
  explicit TraceScope(uint64_t query_serial) : serial(query_serial) {}
  ~TraceScope() { Take(); }

  void Record(TraceEvent ev);
  /// Returns the events recorded so far and gives their bytes back to the
  /// tail budget.
  std::vector<TraceEvent> Take();
  /// Events this scope lost to the tail byte budget.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  const uint64_t serial;

 private:
  Mutex smu;
  std::vector<TraceEvent> events GUARDED_BY(smu);
  size_t bytes GUARDED_BY(smu) = 0;
  std::atomic<uint64_t> dropped_{0};
};

namespace {

/// The calling thread's current query scope (BeginQueryTrace, or the one a
/// pool task carries); null outside every query.
thread_local std::shared_ptr<TraceScope> tls_scope;

class Tracer {
 public:
  static Tracer& Global() {
    static Tracer* const global =
        new Tracer();  // NOLINT(monsoon-raw-new): leaked singleton
    return *global;
  }

  Mutex tracer_mu;
  bool active GUARDED_BY(tracer_mu) = false;
  std::string path GUARDED_BY(tracer_mu);
  uint64_t seed GUARDED_BY(tracer_mu) = 0;
  std::string lane_names[kNumLanes] GUARDED_BY(tracer_mu);
  /// Full tracing's scope: spans outside every query scope record here
  /// while StartTracing is armed.
  TraceScope process{0};

  /// Tail-sampling state (StartTailSampling). The atomics are read on the
  /// span fast path and at query end without the mutex; dir only changes
  /// under it. tail_bytes is the sum of the live query scopes' bytes.
  std::string tail_dir GUARDED_BY(tracer_mu);
  std::atomic<uint64_t> tail_slow_us{0};
  std::atomic<size_t> tail_byte_budget{0};
  std::atomic<size_t> tail_bytes{0};
  std::atomic<uint64_t> tail_dropped{0};
  std::atomic<uint64_t> next_query_serial{0};

  /// Start-of-trace epoch; written before the enabled flag's release
  /// store, read by every span after its acquire load.
  std::chrono::steady_clock::time_point t0;
  LaneState lanes[kNumLanes];
  std::atomic<int> next_external{kExternalLaneBase};

  void SetLaneName(int lane, const std::string& name) {
    MutexLock lock(tracer_mu);
    lane_names[lane] = name;
  }

  /// The arm step both modes share: fails while either mode is armed (they
  /// are mutually exclusive), else starts a fresh epoch and resets every
  /// lane's id stream to seed + lane. The caller publishes the state with
  /// the release store on g_trace_enabled.
  Status Arm(uint64_t trace_seed) REQUIRES(tracer_mu) {
    if (active) {
      return Status::AlreadyExists("full-file tracing is already active (" +
                                   path + ")");
    }
    if (TailSamplingActive()) {
      return Status::AlreadyExists("tail sampling is already active");
    }
    seed = trace_seed;
    t0 = std::chrono::steady_clock::now();
    for (int lane = 0; lane < kNumLanes; ++lane) {
      lanes[lane].rng = Pcg32(trace_seed + static_cast<uint64_t>(lane));
      lanes[lane].seq = 0;
    }
    if (lane_names[kMainLane].empty()) lane_names[kMainLane] = "main";
    if (tls_lane < 0) tls_lane = kMainLane;
    return Status::OK();
  }

 private:
  Tracer() = default;
};

int ClampLane(int lane) {
  if (lane < 0) return 0;
  if (lane >= kNumLanes) return kNumLanes - 1;
  return lane;
}

/// Lane for the current thread, assigning an external lane on first use.
int CurrentLane() {
  if (tls_lane >= 0) return tls_lane;
  Tracer& tracer = Tracer::Global();
  int lane =
      ClampLane(tracer.next_external.fetch_add(1, std::memory_order_relaxed));
  tracer.SetLaneName(lane, StrFormat("ext-%d", lane - kExternalLaneBase));
  tls_lane = lane;
  return lane;
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Tracer::Global().t0)
          .count());
}

void StopTracingAtExit() {
  // Process teardown: nowhere to report a flush failure, drop it.
  Status flush = StopTracing();
  (void)flush;
}

/// Shared Chrome-trace writer: process/thread metadata, then `events` as
/// ph:"X" complete events. `lane_names` points at kNumLanes entries (the
/// caller holds tracer_mu, which guards them).
Status WriteTraceJson(const std::string& path,
                      const std::vector<TraceEvent>& events,
                      const std::string* lane_names, uint64_t seed) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open trace file: " + path);
  }

  bool lane_used[kNumLanes] = {};
  lane_used[kMainLane] = true;
  for (const TraceEvent& ev : events) lane_used[ev.lane] = true;

  JsonWriter writer(out);
  writer.BeginObject();
  writer.Key("traceEvents");
  writer.BeginArray();
  writer.BeginObject();
  writer.KV("name", "process_name");
  writer.KV("ph", "M");
  writer.KV("pid", 1);
  writer.Key("args");
  writer.BeginObject();
  writer.KV("name", "monsoon");
  writer.EndObject();
  writer.EndObject();
  for (int lane = 0; lane < kNumLanes; ++lane) {
    if (!lane_used[lane]) continue;
    writer.BeginObject();
    writer.KV("name", "thread_name");
    writer.KV("ph", "M");
    writer.KV("pid", 1);
    writer.KV("tid", lane);
    writer.Key("args");
    writer.BeginObject();
    std::string name = lane_names[lane];
    if (name.empty()) {
      name = lane >= kMctsLaneBase && lane < kPoolLaneBase
                 ? StrFormat("mcts-w%d", lane - kMctsLaneBase)
                 : StrFormat("lane-%d", lane);
    }
    writer.KV("name", name);
    writer.EndObject();
    writer.EndObject();
  }
  for (const TraceEvent& ev : events) {
    writer.BeginObject();
    writer.KV("name", ev.name);
    writer.KV("cat", ev.category);
    writer.KV("ph", "X");
    writer.KV("pid", 1);
    writer.KV("tid", ev.lane);
    writer.KV("ts", ev.ts_us);
    writer.KV("dur", ev.dur_us);
    writer.Key("args");
    writer.BeginObject();
    writer.KV("span_id", StrFormat("0x%016llx",
                                   static_cast<unsigned long long>(ev.span_id)));
    writer.KV("seq", ev.seq);
    for (const TraceArg& arg : ev.args) {
      std::visit([&](const auto& value) { writer.KV(arg.key, value); },
                 arg.value);
    }
    writer.EndObject();
    writer.EndObject();
  }
  writer.EndArray();
  writer.KV("displayTimeUnit", "ms");
  writer.Key("otherData");
  writer.BeginObject();
  writer.KV("seed", seed);
  writer.EndObject();
  writer.EndObject();
  out << "\n";
  out.flush();
  if (!out) {
    return Status::Internal("failed writing trace file: " + path);
  }
  return Status::OK();
}

}  // namespace

void TraceScope::Record(TraceEvent ev) {
  Tracer& tracer = Tracer::Global();
  size_t ev_bytes = serial == 0 ? 0 : ApproxEventBytes(ev);
  MutexLock lock(smu);
  if (ev_bytes > 0) {
    size_t budget = tracer.tail_byte_budget.load(std::memory_order_relaxed);
    if (tracer.tail_bytes.fetch_add(ev_bytes, std::memory_order_relaxed) +
            ev_bytes >
        budget) {
      tracer.tail_bytes.fetch_sub(ev_bytes, std::memory_order_relaxed);
      tracer.tail_dropped.fetch_add(1, std::memory_order_relaxed);
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    bytes += ev_bytes;
  }
  events.push_back(std::move(ev));
}

std::vector<TraceEvent> TraceScope::Take() {
  std::vector<TraceEvent> taken;
  size_t freed = 0;
  {
    MutexLock lock(smu);
    taken.swap(events);
    std::swap(freed, bytes);
  }
  if (freed > 0) {
    Tracer::Global().tail_bytes.fetch_sub(freed, std::memory_order_relaxed);
  }
  return taken;
}

void SetThreadDefaultLane(int lane, const std::string& name) {
  lane = ClampLane(lane);
  tls_lane = lane;
  Tracer::Global().SetLaneName(lane, name);
}

TraceLaneScope::TraceLaneScope(int lane) : saved_lane_(tls_lane) {
  tls_lane = ClampLane(lane);
}

TraceLaneScope::~TraceLaneScope() { tls_lane = saved_lane_; }

Status StartTracing(const std::string& path, uint64_t seed) {
  Tracer& tracer = Tracer::Global();
  MutexLock lock(tracer.tracer_mu);
  MONSOON_RETURN_IF_ERROR(tracer.Arm(seed));
  tracer.path = path;

  static bool atexit_registered = false;
  if (!atexit_registered) {
    atexit_registered = true;
    std::atexit(StopTracingAtExit);
  }

  tracer.active = true;
  tracer.process.Take();  // spans that ended after the last StopTracing
  internal::g_trace_enabled.store(true, std::memory_order_release);
  return Status::OK();
}

Status StopTracing() {
  Tracer& tracer = Tracer::Global();
  MutexLock lock(tracer.tracer_mu);
  if (!tracer.active) return Status::OK();
  internal::g_trace_enabled.store(false, std::memory_order_release);
  tracer.active = false;

  std::vector<TraceEvent> events = tracer.process.Take();
  SortByLaneSeq(&events);
  return WriteTraceJson(tracer.path, events, tracer.lane_names, tracer.seed);
}

bool MaybeStartTracingFromEnv() {
  if (TracingEnabled()) return false;
  std::string path = EnvString("MONSOON_TRACE").value_or("");
  if (path.empty()) return false;
  return StartTracing(path, EnvNumber("MONSOON_TRACE_SEED", kDefaultTraceSeed,
                                      kUint64Range))
      .ok();
}

Status StartTailSampling(const TailSamplingOptions& options) {
  Tracer& tracer = Tracer::Global();
  MutexLock lock(tracer.tracer_mu);
  MONSOON_RETURN_IF_ERROR(tracer.Arm(options.seed));
  tracer.tail_dir = options.dir.empty() ? "." : options.dir;
  tracer.tail_slow_us.store(options.slow_us, std::memory_order_relaxed);
  tracer.tail_byte_budget.store(options.byte_budget,
                                std::memory_order_relaxed);
  tracer.tail_dropped.store(0, std::memory_order_relaxed);

  internal::g_tail_mode.store(true, std::memory_order_release);
  internal::g_trace_enabled.store(true, std::memory_order_release);
  return Status::OK();
}

Status StopTailSampling() {
  Tracer& tracer = Tracer::Global();
  MutexLock lock(tracer.tracer_mu);
  if (!TailSamplingActive()) return Status::OK();
  internal::g_trace_enabled.store(false, std::memory_order_release);
  internal::g_tail_mode.store(false, std::memory_order_release);
  return Status::OK();
}

bool MaybeStartTailSamplingFromEnv() {
  if (TracingEnabled() || TailSamplingActive()) return false;
  if (!EnvString("MONSOON_TRACE_TAIL_MS").has_value()) return false;
  TailSamplingOptions options;
  options.slow_us = EnvNumber("MONSOON_TRACE_TAIL_MS", 0, kWideRange) * 1000;
  options.dir = EnvString("MONSOON_TRACE_TAIL_DIR").value_or(".");
  options.seed =
      EnvNumber("MONSOON_TRACE_SEED", kDefaultTraceSeed, kUint64Range);
  options.byte_budget = EnvNumber("MONSOON_TRACE_TAIL_BUDGET",
                                  options.byte_budget, kUint64Range);
  return StartTailSampling(options).ok();
}

uint64_t BeginQueryTrace() {
  if (!TailSamplingActive()) return 0;
  Tracer& tracer = Tracer::Global();
  uint64_t serial =
      tracer.next_query_serial.fetch_add(1, std::memory_order_relaxed) + 1;
  tls_scope = std::make_shared<TraceScope>(serial);
  return serial;
}

std::string EndQueryTrace(uint64_t serial, QueryReason reason,
                          uint64_t elapsed_us) {
  if (serial == 0 || tls_scope == nullptr || tls_scope->serial != serial) {
    return std::string();
  }
  std::shared_ptr<TraceScope> scope = std::move(tls_scope);
  std::vector<TraceEvent> events = scope->Take();

  // Dropped: the events are freed with this scope. Also when sampling
  // stopped while the query was in flight.
  if (!TailSamplingActive() || reason == QueryReason::kClean) {
    return std::string();
  }
  const std::string reason_name =
      reason == QueryReason::kError ? "faulted" : QueryReasonName(reason);
  SortByLaneSeq(&events);

  Tracer& tracer = Tracer::Global();
  // The sampling-decision marker leads the file so checkers can classify
  // the trace without scanning it.
  TraceEvent marker;
  marker.category = "obs";
  marker.name = "sampling_decision";
  marker.lane = events.empty() ? kMainLane : events.front().lane;
  marker.span_id = serial;
  marker.seq = 0;
  marker.ts_us = events.empty() ? 0 : events.front().ts_us;
  marker.dur_us = 0;
  marker.args = {
      {"decision", std::string("sampled")},
      {"reason", reason_name},
      {"elapsed_us", elapsed_us},
      {"serial", serial},
      {"budget_dropped_events", scope->dropped()}};
  events.insert(events.begin(), std::move(marker));

  MutexLock lock(tracer.tracer_mu);
  std::string path =
      tracer.tail_dir +
      StrFormat("/tail-%06llu-", static_cast<unsigned long long>(serial)) +
      reason_name + ".json";
  if (!WriteTraceJson(path, events, tracer.lane_names, tracer.seed).ok()) {
    return std::string();
  }
  return path;
}

uint64_t TailSamplingSlowUs() {
  return Tracer::Global().tail_slow_us.load(std::memory_order_relaxed);
}

uint64_t TailSamplingDroppedEvents() {
  return Tracer::Global().tail_dropped.load(std::memory_order_relaxed);
}

TraceSpan::TraceSpan(const char* category, const char* name) {
  enabled_ = TracingEnabled();
  if (!enabled_) return;
  category_ = category;
  name_ = name;
  lane_ = CurrentLane();
  LaneState& lane_state = Tracer::Global().lanes[lane_];
  span_id_ = (static_cast<uint64_t>(lane_state.rng.Next()) << 32) |
             lane_state.rng.Next();
  seq_ = ++lane_state.seq;
  start_us_ = NowUs();
}

std::shared_ptr<TraceScope> CurrentTraceScope() { return tls_scope; }

TraceScopeGuard::TraceScopeGuard(const std::shared_ptr<TraceScope>& scope)
    : saved_(scope) {
  tls_scope.swap(saved_);
}

TraceScopeGuard::~TraceScopeGuard() { tls_scope.swap(saved_); }

void TraceSpan::End() {
  if (!enabled_) return;
  enabled_ = false;
  TraceScope* scope = tls_scope.get();
  if (scope == nullptr) {
    // Outside every query scope only full tracing keeps the span.
    if (TailSamplingActive()) return;
    scope = &Tracer::Global().process;
  }
  uint64_t end_us = NowUs();
  scope->Record(TraceEvent{category_, name_, lane_, span_id_, seq_, start_us_,
                           end_us >= start_us_ ? end_us - start_us_ : 0,
                           std::move(args_)});
}

TraceSpan& TraceSpan::Arg(const char* key, int64_t value) {
  if (enabled_) args_.emplace_back(key, value);
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, uint64_t value) {
  if (enabled_) args_.emplace_back(key, value);
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, int value) {
  return Arg(key, static_cast<int64_t>(value));
}

TraceSpan& TraceSpan::Arg(const char* key, double value) {
  if (enabled_) args_.emplace_back(key, value);
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, bool value) {
  if (enabled_) args_.emplace_back(key, value);
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, const char* value) {
  // Checked here too (not just in the string overload) so the disabled
  // path never materializes a std::string for long literals.
  if (enabled_) return Arg(key, std::string(value));
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, const std::string& value) {
  if (enabled_) args_.emplace_back(key, value);
  return *this;
}

}  // namespace monsoon::obs
