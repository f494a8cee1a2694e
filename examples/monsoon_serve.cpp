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
// loads (common/env.h). Drive it with tools/monsoon-client,
// `sql_shell --connect=127.0.0.1:PORT`, or watch it live with
// tools/top/monsoon-top. --trace-out (whole-process trace) and
// --trace-tail-ms (per-query tail sampling) are mutually exclusive.

#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "common/env.h"
#include "fault/injector.h"
#include "obs/trace.h"
#include "parallel/runtime.h"
#include "server/server.h"
#include "shard/shard.h"
#include "workloads/by_name.h"

using namespace monsoon;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSigint(int) { g_interrupted = 1; }

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
  uint64_t tail_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (FlagValue(argv[i], "--workload=", &workload_name) ||
        FlagValue(argv[i], "--trace-out=", &trace_out) ||
        FlagValue(argv[i], "--slow-log=", &options.slow_log_path) ||
        FlagValue(argv[i], "--faults=", &faults) ||
        NumericFlag(argv[i], "--port=", kListenPortRange, &options.port) ||
        NumericFlag(argv[i], "--max-sessions=", kCountRange,
                    &options.max_sessions) ||
        NumericFlag(argv[i], "--queue-depth=", kNonNegativeIntRange,
                    &options.queue_depth) ||
        NumericFlag(argv[i], "--threads=", kCountRange, &threads) ||
        NumericFlag(argv[i], "--shards=", kCountRange, &shards) ||
        NumericFlag(argv[i], "--deadline-ms=", kWideRange,
                    &options.optimizer.deadline_ms) ||
        NumericFlag(argv[i], "--work-budget=", kWideRange,
                    &options.optimizer.work_budget) ||
        NumericFlag(argv[i], "--iterations=", kPositiveIntRange,
                    &options.optimizer.mcts.iterations) ||
        NumericFlag(argv[i], "--telemetry-ms=", kWideRange,
                    &options.telemetry_interval_ms) ||
        NumericFlag(argv[i], "--slow-ms=", kWideRange,
                    &options.slow_query_ms)) {
      // The helper stored the value.
    } else if (NumericFlag(argv[i], "--trace-tail-ms=", kWideRange,
                           &tail_ms)) {
      tail.slow_us = tail_ms * 1000;
      tail_requested = true;
    } else if (FlagValue(argv[i], "--trace-tail-dir=", &tail.dir)) {
      tail_requested = true;
    } else if (std::strcmp(argv[i], "--no-shared-state") == 0) {
      options.share_state = false;
    } else {
      std::cerr << "unknown flag '" << argv[i] << "'\n";
      return 2;
    }
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
