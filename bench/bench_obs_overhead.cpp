// Measures the cost of the observability layer, pinning the paper of
// record for "tracing off costs one branch on a relaxed atomic":
//
//   baseline        — the measurement loop with only the accumulator
//   disabled_span   — TraceSpan ctor + 4 Arg() calls + End(), tracing off
//   enabled_check   — a bare TracingEnabled() load
//   local_counter   — obs::LocalCounter::Add (ExecContext accounting path)
//   plain_uint64    — the raw `x += n` the LocalCounter replaced
//   counter_add     — obs::Counter::Add (sharded relaxed atomic)
//   histogram_obs   — obs::Histogram::Observe (bucket + count + sum)
//   tail_hooks      — BeginQueryTrace + EndQueryTrace, tail sampling off
//
// Writes BENCH_obs_overhead.json (or argv[1]) and exits non-zero when the
// disabled-span overhead exceeds a generous CI bound — catching an
// accidentally de-inlined or allocating disabled path, not measuring
// machine speed.
//
// Not based on bench_micro's google-benchmark harness: this bench is run
// by the CI obs stage, where a tiny fixed-iteration loop with a hand-rolled
// DoNotOptimize is faster and has no extra dependencies.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace monsoon {
namespace {

template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

constexpr int kIterations = 2000000;
constexpr int kRepeats = 5;

/// Best-of-kRepeats nanoseconds per iteration of `body`.
template <typename Fn>
double MeasureNs(Fn&& body) {
  double best = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIterations; ++i) body(i);
    auto stop = std::chrono::steady_clock::now();
    double ns =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        kIterations;
    if (ns < best) best = ns;
  }
  return best;
}

}  // namespace

int Main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_obs_overhead.json");

  uint64_t sink = 0;
  double baseline_ns = MeasureNs([&](int i) {
    sink += static_cast<uint64_t>(i);
    DoNotOptimize(sink);
  });

  if (obs::TracingEnabled()) {
    std::fprintf(stderr, "tracing must be off for this bench\n");
    return 2;
  }
  double disabled_span_ns = MeasureNs([&](int i) {
    obs::TraceSpan span("bench", "disabled");
    span.Arg("i", static_cast<int64_t>(i))
        .Arg("d", 0.5)
        .Arg("b", true)
        .Arg("s", "a label long enough that accidental copies would allocate");
    span.End();
    sink += static_cast<uint64_t>(i);
    DoNotOptimize(sink);
  });

  double enabled_check_ns = MeasureNs([&](int i) {
    bool enabled = obs::TracingEnabled();
    DoNotOptimize(enabled);
    sink += static_cast<uint64_t>(i);
    DoNotOptimize(sink);
  });

  obs::LocalCounter local;
  double local_counter_ns = MeasureNs([&](int i) {
    local.Add(static_cast<uint64_t>(i));
    DoNotOptimize(local);
  });

  uint64_t plain = 0;
  double plain_uint64_ns = MeasureNs([&](int i) {
    plain += static_cast<uint64_t>(i);
    DoNotOptimize(plain);
  });

  obs::Counter counter;
  double counter_add_ns = MeasureNs([&](int i) {
    counter.Add(static_cast<uint64_t>(i) & 1);
    DoNotOptimize(counter);
  });

  obs::Histogram histogram;
  double histogram_obs_ns = MeasureNs([&](int i) {
    histogram.Observe(static_cast<uint64_t>(i));
    DoNotOptimize(histogram);
  });

  if (obs::TailSamplingActive()) {
    std::fprintf(stderr, "tail sampling must be off for this bench\n");
    return 2;
  }
  double disabled_tail_ns = MeasureNs([&](int i) {
    uint64_t serial = obs::BeginQueryTrace();
    DoNotOptimize(serial);
    std::string path = obs::EndQueryTrace(serial, obs::QueryReason::kClean,
                                          static_cast<uint64_t>(i));
    DoNotOptimize(path);
    sink += static_cast<uint64_t>(i);
    DoNotOptimize(sink);
  });

  double disabled_overhead_ns = disabled_span_ns - baseline_ns;
  double disabled_tail_overhead_ns = disabled_tail_ns - baseline_ns;

  {
    std::ofstream out(out_path);
    obs::JsonWriter writer(out);
    writer.BeginObject();
    writer.KV("bench", "obs_overhead");
    writer.KV("iterations", static_cast<int64_t>(kIterations));
    writer.KV("repeats", static_cast<int64_t>(kRepeats));
    writer.Key("ns_per_op");
    writer.BeginObject();
    writer.KV("baseline", baseline_ns);
    writer.KV("disabled_span", disabled_span_ns);
    writer.KV("disabled_span_overhead", disabled_overhead_ns);
    writer.KV("enabled_check", enabled_check_ns);
    writer.KV("local_counter_add", local_counter_ns);
    writer.KV("plain_uint64_add", plain_uint64_ns);
    writer.KV("counter_add", counter_add_ns);
    writer.KV("histogram_observe", histogram_obs_ns);
    writer.KV("disabled_tail_hooks", disabled_tail_ns);
    writer.KV("disabled_tail_hooks_overhead", disabled_tail_overhead_ns);
    writer.EndObject();
    writer.EndObject();
    out << "\n";
  }

  std::printf("baseline             %8.2f ns/op\n", baseline_ns);
  std::printf("disabled span        %8.2f ns/op (overhead %+.2f ns)\n",
              disabled_span_ns, disabled_overhead_ns);
  std::printf("TracingEnabled()     %8.2f ns/op\n", enabled_check_ns);
  std::printf("LocalCounter::Add    %8.2f ns/op (plain uint64 %+.2f ns)\n",
              local_counter_ns, local_counter_ns - plain_uint64_ns);
  std::printf("Counter::Add         %8.2f ns/op\n", counter_add_ns);
  std::printf("Histogram::Observe   %8.2f ns/op\n", histogram_obs_ns);
  std::printf("tail hooks (off)     %8.2f ns/op (overhead %+.2f ns)\n",
              disabled_tail_ns, disabled_tail_overhead_ns);
  std::printf("wrote %s\n", out_path.c_str());

  // A disabled span is a load + branch per Arg/ctor/End; tens of
  // nanoseconds of overhead would mean it started allocating or locking.
  // The bound is loose so a noisy CI machine cannot flake the stage.
  if (disabled_overhead_ns > 50.0) {
    std::fprintf(stderr,
                 "FAIL: disabled TraceSpan overhead %.2f ns/op exceeds the "
                 "50 ns bound\n",
                 disabled_overhead_ns);
    return 1;
  }
  // Same contract for the per-query tail-sampling scope: with sampling
  // off, BeginQueryTrace returns 0 after one relaxed load and
  // EndQueryTrace(0, ...) returns an empty path — a pair of calls
  // that allocates or locks has broken the disabled path.
  if (disabled_tail_overhead_ns > 50.0) {
    std::fprintf(stderr,
                 "FAIL: disabled tail-sampling hook overhead %.2f ns/op "
                 "exceeds the 50 ns bound\n",
                 disabled_tail_overhead_ns);
    return 1;
  }
  DoNotOptimize(sink);
  return 0;
}

}  // namespace monsoon

int main(int argc, char** argv) { return monsoon::Main(argc, argv); }
