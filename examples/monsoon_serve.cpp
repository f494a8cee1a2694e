// monsoon-serve: the long-running MONSOON query server.
//
// Binds a line-protocol endpoint on 127.0.0.1 (newline-delimited SQL in,
// one JSON response line out; see src/server/protocol.h), serves one of
// the benchmark databases, and shares the UDF column cache plus the
// learned statistics memo across every session. SIGINT drains gracefully:
// queued sessions are rejected, active ones are cancelled through their
// CancellationToken, and the process exits once the session pool is empty.
//
// Usage:
//   ./build/examples/monsoon-serve [--workload=tpch|imdb|ott|udf]
//       [--port=N] [--max-sessions=N] [--queue-depth=N] [--threads=N]
//       [--shards=N] [--deadline-ms=N] [--work-budget=N]
//       [--iterations=N] [--trace-out=FILE] [--no-shared-state]
//       [--telemetry-ms=N] [--trace-tail-ms=N] [--trace-tail-dir=DIR]
//       [--slow-log=FILE] [--slow-ms=N] [--faults=SPEC]
//
// Every knob follows flag > MONSOON_SERVER_* env > default precedence
// (see the README knob table). A numeric flag whose value is not a whole
// base-10 integer in its range exits with code 2 before the workload
// loads. Drive it with tools/monsoon-client,
// `sql_shell --connect=127.0.0.1:PORT`, or watch it live with
// tools/top/monsoon-top. --trace-out (whole-process trace) and
// --trace-tail-ms (per-query tail sampling) are mutually exclusive.

#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "common/env.h"
#include "fault/injector.h"
#include "obs/trace.h"
#include "parallel/runtime.h"
#include "server/server.h"
#include "shard/shard.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

using namespace monsoon;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSigint(int) { g_interrupted = 1; }

StatusOr<Workload> LoadWorkload(const std::string& name) {
  if (name == "tpch") {
    TpchOptions options;
    options.scale = 0.25;
    return MakeTpchWorkload(options);
  }
  if (name == "imdb") {
    ImdbOptions options;
    options.scale = 0.5;
    return MakeImdbWorkload(options);
  }
  if (name == "ott") return MakeOttWorkload(OttOptions{});
  if (name == "udf") return MakeUdfBenchWorkload(UdfBenchOptions{});
  return Status::InvalidArgument("unknown workload '" + name +
                                 "' (expected tpch|imdb|ott|udf)");
}

bool FlagValue(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *value = arg + len;
  return true;
}

/// Parses all of `value` as a base-10 integer in [lo, hi].
bool ParseIntInRange(const std::string& value, int64_t lo, int64_t hi,
                     int64_t* out) {
  const char* end = value.data() + value.size();
  int64_t parsed = 0;
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error != std::errc() || stop != end || parsed < lo || parsed > hi) {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Env first, flags second: an explicit --flag always wins.
  server::ServerOptions options = server::ServerOptions::FromEnv();
  std::string workload_name = "tpch";
  std::string trace_out;
  obs::TailSamplingOptions tail;
  bool tail_requested = false;
  std::string faults;
  int threads = 0;
  int shards = 0;
  std::string value;
  int64_t number = 0;
  bool bad_number = false;
  constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
  // Wide knobs stay below INT64_MAX / 1000 so --trace-tail-ms can scale to
  // microseconds without overflow.
  constexpr int64_t kMaxWide = std::numeric_limits<int64_t>::max() / 1000;
  for (int i = 1; i < argc; ++i) {
    // True when argv[i] is `name`; a value that is not an integer in
    // [lo, hi] is reported and sets bad_number instead of `number`.
    auto numeric = [&](const char* name, int64_t lo, int64_t hi) {
      if (!FlagValue(argv[i], name, &value)) return false;
      if (!ParseIntInRange(value, lo, hi, &number)) {
        std::cerr << std::string(name, std::strlen(name) - 1)
                  << " expects an integer in [" << lo << ", " << hi
                  << "], got '" << value << "'\n";
        bad_number = true;
      }
      return true;
    };
    if (FlagValue(argv[i], "--workload=", &value)) {
      workload_name = value;
    } else if (numeric("--port=", 0, 65535)) {
      options.port = static_cast<uint16_t>(number);
    } else if (numeric("--max-sessions=", 1, kMaxInt)) {
      options.max_sessions = static_cast<int>(number);
    } else if (numeric("--queue-depth=", 0, kMaxInt)) {
      options.queue_depth = static_cast<int>(number);
    } else if (numeric("--threads=", 1, 1024)) {
      threads = static_cast<int>(number);
    } else if (numeric("--shards=", 1, 1024)) {
      shards = static_cast<int>(number);
    } else if (numeric("--deadline-ms=", 0, kMaxWide)) {
      options.optimizer.deadline_ms = static_cast<uint64_t>(number);
    } else if (numeric("--work-budget=", 0, kMaxWide)) {
      options.optimizer.work_budget = static_cast<uint64_t>(number);
    } else if (numeric("--iterations=", 1, kMaxInt)) {
      options.optimizer.mcts.iterations = static_cast<int>(number);
    } else if (FlagValue(argv[i], "--trace-out=", &value)) {
      trace_out = value;
    } else if (numeric("--telemetry-ms=", 0, kMaxWide)) {
      options.telemetry_interval_ms = static_cast<uint64_t>(number);
    } else if (numeric("--trace-tail-ms=", 0, kMaxWide)) {
      tail.slow_us = static_cast<uint64_t>(number) * 1000;
      tail_requested = true;
    } else if (FlagValue(argv[i], "--trace-tail-dir=", &value)) {
      tail.dir = value;
      tail_requested = true;
    } else if (FlagValue(argv[i], "--slow-log=", &value)) {
      options.slow_log_path = value;
    } else if (numeric("--slow-ms=", 0, kMaxWide)) {
      options.slow_query_ms = static_cast<uint64_t>(number);
    } else if (FlagValue(argv[i], "--faults=", &value)) {
      faults = value;
    } else if (std::strcmp(argv[i], "--no-shared-state") == 0) {
      options.share_state = false;
    } else {
      std::cerr << "unknown flag '" << argv[i] << "'\n";
      return 2;
    }
    if (bad_number) return 2;
  }

  if (threads > 0) {
    // Explicit flag wins over MONSOON_THREADS (common/env.h rule); without
    // it the shared pool keeps the size MONSOON_THREADS gave it.
    parallel::Config config;
    config.num_threads = threads;
    parallel::SetDefaultConfig(config);
  }
  if (shards > 0) {
    // Explicit flag wins over MONSOON_SHARDS (common/env.h rule).
    shard::SetDefaultShardCount(shards);
  }
  if (!trace_out.empty()) {
    Status status = obs::StartTracing(trace_out);
    if (!status.ok()) {
      std::cerr << "trace: " << status.ToString() << "\n";
      return 1;
    }
  }
  if (tail_requested) {
    Status status = obs::StartTailSampling(tail);
    if (!status.ok()) {
      std::cerr << "trace-tail: " << status.ToString() << "\n";
      return 1;
    }
  } else {
    // MONSOON_TRACE_TAIL_MS / _DIR / _BUDGET still apply without flags.
    obs::MaybeStartTailSamplingFromEnv();
  }
  if (faults.empty()) faults = EnvString("MONSOON_FAULTS").value_or("");
  if (!faults.empty()) {
    Status status = fault::InstallSpec(faults, fault::BaseConfigFromEnv());
    if (!status.ok()) {
      std::cerr << "faults: " << status.ToString() << "\n";
      return 1;
    }
  }

  auto workload = LoadWorkload(workload_name);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }

  server::QueryServer query_server(workload->catalog.get(), options);
  Status started = query_server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }
  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);
  std::cout << "monsoon-serve: workload '" << workload_name
            << "', listening on 127.0.0.1:" << query_server.port()
            << " (max_sessions=" << options.max_sessions
            << ", queue_depth=" << options.queue_depth
            << ", shared_state=" << (options.share_state ? "on" : "off")
            << ")\n"
            << std::flush;

  while (g_interrupted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "monsoon-serve: draining...\n" << std::flush;
  query_server.Shutdown();

  server::AdmissionStats stats = query_server.admission_stats();
  std::cout << "monsoon-serve: drained. sessions admitted=" << stats.admitted
            << " rejected=" << stats.rejected
            << " cancelled=" << query_server.cancelled_sessions()
            << " pool pending=" << query_server.pool_pending() << "\n"
            << std::flush;

  if (!trace_out.empty()) {
    Status status = obs::StopTracing();
    if (!status.ok()) {
      std::cerr << "trace: " << status.ToString() << "\n";
      return 1;
    }
  }
  if (obs::TailSamplingActive()) {
    Status status = obs::StopTailSampling();
    if (!status.ok()) std::cerr << "trace-tail: " << status.ToString() << "\n";
  }
  if (query_server.slow_log() != nullptr) {
    std::cout << "monsoon-serve: slow-query log entries="
              << query_server.slow_log()->entries_written() << "\n"
              << std::flush;
  }
  return query_server.pool_pending() == 0 ? 0 : 3;
}
