// The benchmark program. One process runs one workload:
//
//   perfbench --workload <imdb_serial|tpch_sharded> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--trace-out <path>]
//
// It sets the workload up and warms it up several times, computes the
// reference results after the first set-up, runs the timed phase, checks every result against the
// reference and prints one JSON result line last. --trace 0 reports the
// end-to-end metrics; --trace 1 splits the time into an untraced and a
// traced half and reports the per-layer metrics.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench_util.h"
#include "obs/json.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;
// A timed phase pools at least this many latencies, so the p90 has ten
// samples beyond it. The traced halves report means and need no floor.
constexpr uint64_t kMinSamples = 100;

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--workload" && (v = value())) {
      options->workload = v;
    } else if (arg == "--seed" && (v = value())) {
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      options->seconds = std::atof(v);
    } else if (arg == "--trace" && (v = value())) {
      options->trace = std::atoi(v) != 0;
    } else if (arg == "--trace-out" && (v = value())) {
      options->trace_out = v;
    } else {
      std::cerr << "perfbench: bad argument '" << arg << "'\n";
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0;
}

double Qps(const Tally& tally) {
  return tally.wall_s > 0 ? static_cast<double>(tally.completed()) / tally.wall_s : 0;
}

void ReportEndToEnd(const Tally& tally, double setup_s, MetricSet* out) {
  const double completed = static_cast<double>(tally.completed());
  // Every pass repeats every query, so each query's latencies form a
  // narrow band and pooled quantiles would land on the edge between two
  // bands (the TPC-H p50 falls between q3 and q7, which are 2x apart).
  // The quantiles are taken over each query's median.
  const std::vector<double> latencies = tally.MedianLatencies();
  out->Set("query_p50_ms", Quantile(latencies, 0.5), "ms");
  out->Set("query_p90_ms", Quantile(latencies, 0.9), "ms");
  out->Set("queries_per_s", Qps(tally), "1/s");
  out->Set("mobjects", tally.MeanObjects() / 1e6, "Mobj");
  out->Set("ok_frac",
           tally.attempted > 0 ? completed / static_cast<double>(tally.attempted) : 0,
           "fraction");
  out->Set("setup_s", setup_s, "s");
  out->Set("peak_rss_mb", PeakRssMb(), "MiB");
}

std::string ResultLine(bool correct, const Tally& tally, const MetricSet& metrics) {
  std::ostringstream out;
  monsoon::obs::JsonWriter w(out);
  w.BeginObject();
  w.KV("correct", correct);
  w.KV("attempted", tally.attempted);
  w.KV("failed", tally.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, metric] : metrics.items()) {
    w.Key(name);
    w.BeginObject();
    w.KV("value", std::isfinite(metric.value) ? metric.value : 0.0);
    w.KV("unit", metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return out.str();
}

int Main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: perfbench --workload <name> [--seed n] [--seconds s] "
                 "[--trace 0|1] [--smoke] [--trace-out path]\n";
    return 2;
  }
  std::unique_ptr<BenchWorkload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << options.workload
              << "'; known:";
    for (const std::string& name : WorkloadNames()) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  std::cout << "# host reference loop at start: " << ReferenceLoopSeconds() << " s\n";

  // setup_s = the median over several set-ups of data generation plus a
  // warm-up pass (the first pass of a process runs up to 20% slower). The
  // reference results are computed once, after the first set-up, and not
  // counted.
  std::vector<double> setup_times;
  double reference_s = 0;
  monsoon::Status status = monsoon::Status::OK();
  for (int i = 0; i < (options.smoke ? 1 : kSetups) && status.ok(); ++i) {
    workload->Teardown();
    double start = NowSeconds();
    status = workload->Setup();
    double setup_s = NowSeconds() - start;
    if (status.ok() && i == 0) {
      start = NowSeconds();
      status = workload->ComputeReference();
      reference_s = NowSeconds() - start;
    }
    start = NowSeconds();
    if (status.ok()) status = workload->Warmup();
    setup_times.push_back(setup_s + NowSeconds() - start);
  }
  if (!status.ok()) {
    std::cerr << "perfbench: set-up failed: " << status.ToString() << "\n";
    return 1;
  }
  const double setup_s = Median(setup_times);

  MetricSet metrics;
  Tally tally;
  const double cpu_start = ProcessCpuSeconds();
  if (!options.trace) {
    tally = workload->Measure(options.seconds, kMinSamples, nullptr);
    ReportEndToEnd(tally, setup_s, &metrics);
  } else {
    Tally untraced = workload->Measure(options.seconds / 2, 0, nullptr);
    Ledger ledger;
    Tally traced = workload->Measure(options.seconds / 2, 0, &ledger);
    workload->Probe(&ledger);
    ledger.Report(Qps(untraced), Qps(traced), &metrics);
    if (!ledger.spans.WriteChromeTrace(options.trace_out)) {
      std::cerr << "perfbench: cannot write " << options.trace_out << "\n";
    }
    std::cout << "# traced queries: " << ledger.queries
              << ", spans: " << ledger.spans.size() << "\n";
    tally.Merge(untraced);
    tally.Merge(traced);
  }
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  workload->Teardown();

  const bool correct = tally.failed == 0 && tally.completed() > 0;
  std::cout << "# workload " << options.workload << " seed " << options.seed
            << ": " << tally.completed() << " of " << tally.attempted
            << " queries completed in " << tally.wall_s << " s (process CPU "
            << cpu_s << " s); failed_frac "
            << (tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                          static_cast<double>(tally.attempted)
                                    : 0)
            << " (" << tally.mismatched << " wrong results)\n";
  std::cout << "# latency samples: " << tally.completed() << "; set-ups with warm-up:";
  for (double t : setup_times) std::cout << " " << t;
  std::cout << " s; reference plans " << reference_s << " s\n";
  if (!tally.pass_s.empty()) {
    std::cout << "# pass seconds:";
    for (double t : tally.pass_s) std::cout << " " << t;
    std::cout << "\n";
  }
  std::cout << "# per-query median ms, in suite order:";
  for (double ms : tally.MedianLatencies()) std::cout << " " << ms;
  std::cout << "\n";
  std::cout << "# host reference loop at end: " << ReferenceLoopSeconds() << " s\n";
  std::cout << ResultLine(correct, tally, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
