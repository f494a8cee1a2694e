// monsoon-top: a live one-screen dashboard over a running monsoon-serve.
//
//   monsoon-top --connect=HOST:PORT [--interval-ms=N] [--once]
//       [--metrics-out=FILE]
//
// Polls the server's `.metrics` (Prometheus text exposition wrapped in one
// JSON line) and `.health` commands over the ordinary line protocol and
// renders qps, window latency percentiles, rows/s, UDF cache hit rate,
// Bloom reject rate, fault and degraded counts, and tail-sampling totals.
// Rates are computed from counter deltas between consecutive polls; the
// window percentiles come from the server's telemetry ring verbatim.
//
// --once takes a single sample and prints it without clearing the screen
// (scripting / CI mode; rate columns show "-" since there is no previous
// sample). Every exposition body is also run through
// obs::ValidateExposition, so `monsoon-top --once` doubles as a format
// check — CI runs exactly that. --metrics-out dumps the latest raw
// exposition text to a file for offline scraping.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/string_util.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "server/net.h"

using namespace monsoon;

namespace {

struct TopConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int interval_ms = 1000;
  bool once = false;
  std::string metrics_out;
};

/// One poll's worth of parsed samples: flattened metric name (labels
/// stripped) -> value. Histogram series keep only _sum / _count.
using Samples = std::map<std::string, double>;

/// Parses the Prometheus text exposition into name -> value samples.
/// Labelled series (histogram buckets) are skipped — the dashboard reads
/// the pre-merged window gauges instead.
Samples ParseExposition(const std::string& text) {
  Samples samples;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t brace = line.find('{');
    size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    if (brace != std::string::npos && brace < space) continue;  // labelled
    samples[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return samples;
}

double Get(const Samples& samples, const std::string& name) {
  auto it = samples.find(name);
  return it == samples.end() ? 0.0 : it->second;
}

/// Sends one dot-command and returns the parsed JSON response object.
StatusOr<obs::JsonValue> Command(int fd, server::LineReader* reader,
                                 const std::string& command) {
  MONSOON_RETURN_IF_ERROR(server::WriteAll(fd, command + "\n"));
  std::string response;
  MONSOON_ASSIGN_OR_RETURN(bool got, reader->ReadLine(&response));
  if (!got) return Status::Unavailable("connection closed by server");
  MONSOON_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::JsonParse(response));
  const obs::JsonValue* status = doc.Find("status");
  if (status == nullptr || !status->is_string() ||
      status->string_value != "ok") {
    return Status::Internal("server rejected '" + command + "': " + response);
  }
  return doc;
}

double JsonNumber(const obs::JsonValue& doc, const char* key) {
  const obs::JsonValue* v = doc.Find(key);
  return (v != nullptr && v->is_number()) ? v->number : 0.0;
}

const obs::JsonValue* JsonObject(const obs::JsonValue& doc, const char* key) {
  const obs::JsonValue* v = doc.Find(key);
  return (v != nullptr && v->is_object()) ? v : nullptr;
}

std::string FormatRate(double value, bool have_rate) {
  if (!have_rate) return "-";
  return StrFormat("%.1f", value);
}

std::string FormatPercent(double numerator, double denominator) {
  if (denominator <= 0) return "-";
  return StrFormat("%.1f%%", 100.0 * numerator / denominator);
}

std::string FormatMicros(double us) {
  if (us >= 1e6) return StrFormat("%.2fs", us / 1e6);
  if (us >= 1e3) return StrFormat("%.1fms", us / 1e3);
  return StrFormat("%.0fus", us);
}

struct PollResult {
  Samples samples;
  double sessions = 0;
  double rows = 0;  // scan + join output rows, the executor volume proxy
  obs::JsonValue health;
  std::string exposition;
};

StatusOr<PollResult> Poll(int fd, server::LineReader* reader) {
  PollResult poll;
  MONSOON_ASSIGN_OR_RETURN(obs::JsonValue metrics,
                           Command(fd, reader, ".metrics"));
  const obs::JsonValue* body = metrics.Find("body");
  if (body == nullptr || !body->is_string()) {
    return Status::Internal(".metrics response missing body");
  }
  poll.exposition = body->string_value;
  MONSOON_RETURN_IF_ERROR(obs::ValidateExposition(poll.exposition)
                              .WithContext("validating .metrics exposition"));
  poll.samples = ParseExposition(poll.exposition);
  poll.sessions = Get(poll.samples, "monsoon_server_sessions_total");
  poll.rows = Get(poll.samples, "exec_scan_rows_in_total") +
              Get(poll.samples, "exec_join_rows_out_total");
  MONSOON_ASSIGN_OR_RETURN(poll.health, Command(fd, reader, ".health"));
  return poll;
}

void Render(const TopConfig& config, const PollResult& poll,
            const PollResult* previous, double interval_seconds,
            std::ostream& out) {
  bool have_rate = previous != nullptr && interval_seconds > 0;
  double qps = have_rate
                   ? (poll.sessions - previous->sessions) / interval_seconds
                   : 0;
  double rows_per_s =
      have_rate ? (poll.rows - previous->rows) / interval_seconds : 0;
  const Samples& s = poll.samples;
  const obs::JsonValue& health = poll.health;
  const obs::JsonValue* window = JsonObject(health, "window");
  const obs::JsonValue* draining = health.Find("draining");

  out << "monsoon-top — " << config.host << ":" << config.port
      << (config.once ? " (single sample)"
                      : StrFormat(" (every %dms)", config.interval_ms))
      << "\n\n";
  out << StrFormat(
      "sessions %8.0f   active %3.0f   queued %3.0f   draining %s\n",
      JsonNumber(health, "sessions"), JsonNumber(health, "active"),
      JsonNumber(health, "queued"),
      (draining != nullptr && draining->kind == obs::JsonValue::Kind::kBool &&
       draining->bool_value)
          ? "yes"
          : "no");
  if (window != nullptr) {
    out << StrFormat("window   %7.1fs   qps %7.2f   p50 %s   p95 %s   p99 %s\n",
                     JsonNumber(*window, "seconds"),
                     JsonNumber(*window, "qps"),
                     FormatMicros(JsonNumber(*window, "latency_p50_us")).c_str(),
                     FormatMicros(JsonNumber(*window, "latency_p95_us")).c_str(),
                     FormatMicros(JsonNumber(*window, "latency_p99_us")).c_str());
  }
  out << "qps      " << FormatRate(qps, have_rate) << "   rows/s "
      << FormatRate(rows_per_s, have_rate) << "\n";
  double cache_hits = Get(s, "exec_udf_cache_hits_total");
  double cache_misses = Get(s, "exec_udf_cache_misses_total");
  double bloom_checks = Get(s, "exec_bloom_checks_total");
  double bloom_rejects = Get(s, "exec_bloom_rejects_total");
  out << "cache    hit " << FormatPercent(cache_hits, cache_hits + cache_misses)
      << " (" << StrFormat("%.0f", cache_hits) << "/"
      << StrFormat("%.0f", cache_hits + cache_misses) << ")"
      << "   bloom reject " << FormatPercent(bloom_rejects, bloom_checks)
      << "\n";
  out << StrFormat(
      "queries  degraded %.0f   slow %.0f   cancelled %.0f   faults fired "
      "%.0f\n",
      JsonNumber(health, "degraded_queries"),
      JsonNumber(health, "slow_queries"),
      Get(s, "monsoon_server_cancelled_total"), Get(s, "faults_fired_total"));
  out << StrFormat("tail     sampled %.0f   dropped %.0f\n",
                   JsonNumber(health, "tail_sampled"),
                   JsonNumber(health, "tail_dropped"));
  out << StrFormat("bytes    in %.0f   out %.0f\n",
                   Get(s, "monsoon_server_bytes_in_total"),
                   Get(s, "monsoon_server_bytes_out_total"));
  out.flush();
}

}  // namespace

int main(int argc, char** argv) {
  TopConfig config;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (FlagValue(argv[i], "--connect=", &value)) {
      size_t colon = value.rfind(':');
      std::optional<uint16_t> port;
      if (colon != std::string::npos) {
        port = ParseNumber(std::string_view(value).substr(colon + 1),
                           kConnectPortRange);
      }
      if (!port.has_value()) {
        std::cerr << "monsoon-top: --connect wants HOST:PORT, PORT in "
                     "[1, 65535]\n";
        return 2;
      }
      config.host = value.substr(0, colon);
      config.port = *port;
    } else if (FlagValue(argv[i], "--host=", &config.host) ||
               FlagValue(argv[i], "--metrics-out=", &config.metrics_out) ||
               NumericFlag(argv[i], "--port=", kConnectPortRange,
                           &config.port) ||
               NumericFlag(argv[i], "--interval-ms=", kNonNegativeIntRange,
                           &config.interval_ms)) {
      // The helper stored the value.
    } else if (std::strcmp(argv[i], "--once") == 0) {
      config.once = true;
    } else {
      std::cerr << "unknown flag '" << argv[i] << "'\n";
      return 2;
    }
  }
  if (config.port == 0) {
    std::cerr << "monsoon-top: --connect=HOST:PORT (or --port=) is required\n";
    return 2;
  }
  if (config.interval_ms < 50) config.interval_ms = 50;

  StatusOr<int> fd_or = server::ConnectTo(config.host, config.port);
  if (!fd_or.ok()) {
    std::cerr << "monsoon-top: " << fd_or.status().ToString() << "\n";
    return 1;
  }
  int fd = fd_or.value();
  server::LineReader reader(fd);

  PollResult previous;
  bool have_previous = false;
  for (;;) {
    StatusOr<PollResult> poll = Poll(fd, &reader);
    if (!poll.ok()) {
      std::cerr << "monsoon-top: " << poll.status().ToString() << "\n";
      server::CloseFd(fd);
      return 1;
    }
    if (!config.metrics_out.empty()) {
      std::ofstream out(config.metrics_out);
      if (!out) {
        std::cerr << "monsoon-top: cannot write '" << config.metrics_out
                  << "'\n";
        server::CloseFd(fd);
        return 1;
      }
      out << poll->exposition;
    }
    if (!config.once) std::cout << "\x1b[2J\x1b[H";  // clear + home
    Render(config, *poll, have_previous ? &previous : nullptr,
           config.interval_ms / 1000.0, std::cout);
    if (config.once) break;
    previous = std::move(*poll);
    have_previous = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(config.interval_ms));
  }
  server::CloseFd(fd);
  return 0;
}
