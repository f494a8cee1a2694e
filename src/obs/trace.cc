#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>

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
  /// BeginQueryTrace scope the event was recorded under; 0 outside any
  /// scope. Only consulted in tail mode.
  uint64_t query_serial = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Rough in-memory footprint, charged against the tail byte budget.
size_t ApproxEventBytes(const TraceEvent& ev) {
  size_t bytes = sizeof(TraceEvent);
  for (const auto& [key, value] : ev.args) bytes += key.size() + value.size();
  return bytes;
}

/// Per-thread event buffer. The owning thread appends under the buffer's
/// own mutex (uncontended except during a drain); StopTracing locks each
/// buffer to collect. `bmu` is deliberately not in tools/lint/lock_ranks.h:
/// it nests only inside the tracer mutex and never wraps other locks.
struct ThreadBuffer {
  Mutex bmu;
  std::vector<TraceEvent> events GUARDED_BY(bmu);
};

/// Per-lane id stream. A lane has a single owning thread at any moment
/// (main, one MCTS worker task, or one pool worker), so rng/seq are
/// mutated without a lock; StartTracing's reset is published by the
/// release store on the enabled flag.
struct LaneState {
  Pcg32 rng;
  uint64_t seq = 0;
};

thread_local int tls_lane = -1;
/// Active BeginQueryTrace scope for this thread; 0 = none.
thread_local uint64_t tls_query_serial = 0;

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
  std::vector<std::unique_ptr<ThreadBuffer>> buffers GUARDED_BY(tracer_mu);
  std::vector<TraceEvent> orphans GUARDED_BY(tracer_mu);

  /// Tail-sampling state (StartTailSampling). The atomics are read on the
  /// span fast path and at query end without the mutex; dir only changes
  /// under it.
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

  ThreadBuffer* RegisterBuffer() {
    MutexLock lock(tracer_mu);
    buffers.push_back(std::make_unique<ThreadBuffer>());
    return buffers.back().get();
  }

  void ReleaseBuffer(ThreadBuffer* buffer) {
    MutexLock lock(tracer_mu);
    for (size_t i = 0; i < buffers.size(); ++i) {
      if (buffers[i].get() != buffer) continue;
      {
        MutexLock buffer_lock(buffer->bmu);
        for (TraceEvent& ev : buffer->events) {
          orphans.push_back(std::move(ev));
        }
      }
      buffers.erase(buffers.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }

  void SetLaneName(int lane, const std::string& name) {
    MutexLock lock(tracer_mu);
    lane_names[lane] = name;
  }

  /// The arm step both modes share: fails while either mode is armed (they
  /// are mutually exclusive), else starts a fresh epoch, resets every
  /// lane's id stream to seed + lane and empties the buffers. The caller
  /// publishes the state with the release store on g_trace_enabled.
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
    for (const auto& buffer : buffers) {
      MutexLock buffer_lock(buffer->bmu);
      buffer->events.clear();
    }
    orphans.clear();
    if (tls_lane < 0) tls_lane = kMainLane;
    return Status::OK();
  }

 private:
  Tracer() = default;
};

/// Owns this thread's registration; thread exit moves any still-buffered
/// events into the tracer's orphan list so they survive into the file.
struct BufferHandle {
  ThreadBuffer* buffer = nullptr;
  ~BufferHandle() {
    if (buffer != nullptr) Tracer::Global().ReleaseBuffer(buffer);
  }
};

thread_local BufferHandle tls_buffer;

ThreadBuffer* CurrentBuffer() {
  if (tls_buffer.buffer == nullptr) {
    tls_buffer.buffer = Tracer::Global().RegisterBuffer();
  }
  return tls_buffer.buffer;
}

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
    if (name.empty()) name = StrFormat("lane-%d", lane);
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
    for (const auto& [key, json_text] : ev.args) {
      writer.Key(key);
      writer.Raw(json_text);
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

void SetThreadDefaultLane(int lane, const std::string& name) {
  lane = ClampLane(lane);
  tls_lane = lane;
  Tracer::Global().SetLaneName(lane, name);
}

TraceLaneScope::TraceLaneScope(int lane, const std::string& name)
    : saved_lane_(tls_lane) {
  lane = ClampLane(lane);
  tls_lane = lane;
  if (TracingEnabled()) Tracer::Global().SetLaneName(lane, name);
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
  internal::g_trace_enabled.store(true, std::memory_order_release);
  return Status::OK();
}

Status StopTracing() {
  Tracer& tracer = Tracer::Global();
  MutexLock lock(tracer.tracer_mu);
  if (!tracer.active) return Status::OK();
  internal::g_trace_enabled.store(false, std::memory_order_release);
  tracer.active = false;

  std::vector<TraceEvent> events;
  for (const auto& buffer : tracer.buffers) {
    MutexLock buffer_lock(buffer->bmu);
    for (TraceEvent& ev : buffer->events) {
      events.push_back(std::move(ev));
    }
    buffer->events.clear();
  }
  for (TraceEvent& ev : tracer.orphans) {
    events.push_back(std::move(ev));
  }
  tracer.orphans.clear();

  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.lane != b.lane) return a.lane < b.lane;
                     return a.seq < b.seq;
                   });

  return WriteTraceJson(tracer.path, events, tracer.lane_names, tracer.seed);
}

bool MaybeStartTracingFromEnv() {
  if (TracingEnabled()) return false;
  std::string path = EnvString("MONSOON_TRACE").value_or("");
  if (path.empty()) return false;
  return StartTracing(path, EnvUint64("MONSOON_TRACE_SEED", kDefaultTraceSeed))
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
  tracer.tail_bytes.store(0, std::memory_order_relaxed);
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
  for (const auto& buffer : tracer.buffers) {
    MutexLock buffer_lock(buffer->bmu);
    buffer->events.clear();
  }
  tracer.orphans.clear();
  tracer.tail_bytes.store(0, std::memory_order_relaxed);
  return Status::OK();
}

bool MaybeStartTailSamplingFromEnv() {
  if (TracingEnabled() || TailSamplingActive()) return false;
  if (!HasEnv("MONSOON_TRACE_TAIL_MS")) return false;
  TailSamplingOptions options;
  options.slow_us = EnvUint64("MONSOON_TRACE_TAIL_MS", 0) * 1000;
  options.dir = EnvString("MONSOON_TRACE_TAIL_DIR").value_or(".");
  options.seed = EnvUint64("MONSOON_TRACE_SEED", kDefaultTraceSeed);
  options.byte_budget = EnvUint64("MONSOON_TRACE_TAIL_BUDGET",
                                  TailSamplingOptions().byte_budget);
  return StartTailSampling(options).ok();
}

uint64_t BeginQueryTrace() {
  if (!TailSamplingActive()) return 0;
  Tracer& tracer = Tracer::Global();
  uint64_t serial =
      tracer.next_query_serial.fetch_add(1, std::memory_order_relaxed) + 1;
  tls_query_serial = serial;
  return serial;
}

std::string EndQueryTrace(uint64_t serial, QueryReason reason,
                          uint64_t elapsed_us) {
  if (serial == 0) return std::string();
  if (tls_query_serial == serial) tls_query_serial = 0;

  Tracer& tracer = Tracer::Global();
  MutexLock lock(tracer.tracer_mu);

  // Sweep this query's events out of every buffer (they normally live in
  // the session thread's buffer only; orphans cover a thread that exited).
  std::vector<TraceEvent> events;
  auto take_from = [&](std::vector<TraceEvent>& source) {
    auto keep_end = std::stable_partition(
        source.begin(), source.end(),
        [&](const TraceEvent& ev) { return ev.query_serial != serial; });
    for (auto it = keep_end; it != source.end(); ++it) {
      events.push_back(std::move(*it));
    }
    source.erase(keep_end, source.end());
  };
  for (const auto& buffer : tracer.buffers) {
    MutexLock buffer_lock(buffer->bmu);
    take_from(buffer->events);
  }
  take_from(tracer.orphans);
  size_t freed = 0;
  for (const TraceEvent& ev : events) freed += ApproxEventBytes(ev);
  tracer.tail_bytes.fetch_sub(freed, std::memory_order_relaxed);

  // Dropped: the events are discarded with this scope. Also when sampling
  // stopped while the query was in flight.
  if (!TailSamplingActive() || reason == QueryReason::kClean) {
    return std::string();
  }
  const std::string reason_name =
      reason == QueryReason::kError ? "faulted" : QueryReasonName(reason);

  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.lane != b.lane) return a.lane < b.lane;
                     return a.seq < b.seq;
                   });

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
  marker.args.emplace_back("decision", "\"sampled\"");
  marker.args.emplace_back("reason", "\"" + reason_name + "\"");
  marker.args.emplace_back(
      "elapsed_us",
      StrFormat("%llu", static_cast<unsigned long long>(elapsed_us)));
  marker.args.emplace_back(
      "serial", StrFormat("%llu", static_cast<unsigned long long>(serial)));
  marker.args.emplace_back(
      "budget_dropped_events",
      StrFormat("%llu", static_cast<unsigned long long>(
                            tracer.tail_dropped.load(std::memory_order_relaxed))));
  events.insert(events.begin(), std::move(marker));

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

void TraceSpan::End() {
  if (!enabled_) return;
  enabled_ = false;
  TraceEvent ev;
  ev.category = category_;
  ev.name = name_;
  ev.lane = lane_;
  ev.span_id = span_id_;
  ev.seq = seq_;
  ev.ts_us = start_us_;
  uint64_t end_us = NowUs();
  ev.dur_us = end_us >= start_us_ ? end_us - start_us_ : 0;
  ev.query_serial = tls_query_serial;
  ev.args = std::move(args_);
  if (internal::g_tail_mode.load(std::memory_order_acquire)) {
    // Tail mode buffers only events inside a query scope, under the global
    // byte budget; everything else is discarded right here so idle-time
    // spans can never grow the buffers unboundedly.
    if (ev.query_serial == 0) return;
    Tracer& tracer = Tracer::Global();
    size_t bytes = ApproxEventBytes(ev);
    size_t budget = tracer.tail_byte_budget.load(std::memory_order_relaxed);
    if (tracer.tail_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes >
        budget) {
      tracer.tail_bytes.fetch_sub(bytes, std::memory_order_relaxed);
      tracer.tail_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  ThreadBuffer* buffer = CurrentBuffer();
  MutexLock lock(buffer->bmu);
  buffer->events.push_back(std::move(ev));
}

TraceSpan& TraceSpan::Arg(const char* key, int64_t value) {
  if (enabled_) {
    args_.emplace_back(key, StrFormat("%lld", static_cast<long long>(value)));
  }
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, uint64_t value) {
  if (enabled_) {
    args_.emplace_back(key,
                       StrFormat("%llu", static_cast<unsigned long long>(value)));
  }
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, int value) {
  return Arg(key, static_cast<int64_t>(value));
}

TraceSpan& TraceSpan::Arg(const char* key, double value) {
  if (enabled_) args_.emplace_back(key, StrFormat("%.17g", value));
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, bool value) {
  if (enabled_) args_.emplace_back(key, value ? "true" : "false");
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, const char* value) {
  // Checked here too (not just in the string overload) so the disabled
  // path never materializes a std::string for long literals.
  if (enabled_) return Arg(key, std::string(value));
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, const std::string& value) {
  if (enabled_) {
    std::string quoted;
    quoted.reserve(value.size() + 2);
    quoted += '"';
    quoted += JsonEscape(value);
    quoted += '"';
    args_.emplace_back(key, std::move(quoted));
  }
  return *this;
}

}  // namespace monsoon::obs
