#ifndef MONSOON_PERFBENCH_BENCH_UTIL_H_
#define MONSOON_PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();

/// Linearly interpolated quantile of `values` (q in [0, 1]); the same
/// definition numpy uses by default. 0 for an empty vector.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The process's peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// CPU seconds (user + system) the process has used so far.
double ProcessCpuSeconds();

/// Wall seconds of a fixed CPU-only integer loop. It touches no memory
/// beyond registers, so it tracks the host's speed, not the program's.
double ReferenceLoopSeconds();

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Insertion-ordered metric list for the result line.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    items_.emplace_back(name, Metric{value, unit});
  }
  const std::vector<std::pair<std::string, Metric>>& items() const { return items_; }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

/// One recorded span of the traced run: one query, request or module
/// call. Spans are kept in memory and written as a Chrome trace when the
/// run ends.
struct Span {
  std::string name;
  std::string layer;
  uint64_t id = 0;
  double start_s = 0;
  double end_s = 0;
  std::map<std::string, double> args;
};

/// In-memory span log (single-threaded writers only, or external locking).
class SpanLog {
 public:
  uint64_t Add(Span span);
  size_t size() const { return spans_.size(); }
  /// Writes the Chrome trace-event JSON; an empty path writes nothing.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Counter, or histogram sample sum, delta between two registry snapshots.
uint64_t CounterDelta(const monsoon::obs::MetricsSnapshot& delta,
                      const std::string& name);
uint64_t HistogramSumDelta(const monsoon::obs::MetricsSnapshot& delta,
                           const std::string& name);
double HistogramP50(const monsoon::obs::MetricsSnapshot& delta,
                    const std::string& name);

/// Adds every counter and histogram sum of `delta` to `span->args`.
void AttachCounts(const monsoon::obs::MetricsSnapshot& delta, Span* span);

}  // namespace perfbench

#endif  // MONSOON_PERFBENCH_BENCH_UTIL_H_
