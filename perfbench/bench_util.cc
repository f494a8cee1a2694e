#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "obs/json.h"
#include "obs/timeseries.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ReferenceLoopSeconds() {
  double start = NowSeconds();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  // Keep the loop's result observable so it is not folded away.
  volatile uint64_t sink = x;
  (void)sink;
  return NowSeconds() - start;
}

uint64_t SpanLog::Add(Span span) {
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) return false;
  double origin = spans_.empty() ? 0 : spans_.front().start_s;
  for (const Span& span : spans_) origin = std::min(origin, span.start_s);
  monsoon::obs::JsonWriter w(out);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const Span& span : spans_) {
    w.BeginObject();
    w.KV("name", span.name);
    w.KV("cat", span.layer);
    w.KV("ph", "X");
    w.KV("pid", uint64_t{1});
    w.KV("tid", uint64_t{1});
    w.KV("ts", (span.start_s - origin) * 1e6);
    w.KV("dur", (span.end_s - span.start_s) * 1e6);
    w.Key("args");
    w.BeginObject();
    w.KV("id", span.id);
    for (const auto& [key, value] : span.args) w.KV(key, value);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  return static_cast<bool>(out);
}

uint64_t CounterDelta(const monsoon::obs::MetricsSnapshot& delta,
                      const std::string& name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

uint64_t HistogramSumDelta(const monsoon::obs::MetricsSnapshot& delta,
                           const std::string& name) {
  auto it = delta.histograms.find(name);
  return it == delta.histograms.end() ? 0 : it->second.sum;
}

double HistogramP50(const monsoon::obs::MetricsSnapshot& delta,
                    const std::string& name) {
  auto it = delta.histograms.find(name);
  return it == delta.histograms.end()
             ? 0
             : monsoon::obs::HistogramPercentile(it->second, 0.5);
}

void AttachCounts(const monsoon::obs::MetricsSnapshot& delta, Span* span) {
  for (const auto& [name, value] : delta.counters) {
    span->args[name] = static_cast<double>(value);
  }
  for (const auto& [name, hist] : delta.histograms) {
    span->args[name + ".sum"] = static_cast<double>(hist.sum);
  }
}

}  // namespace perfbench
