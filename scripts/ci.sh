#!/usr/bin/env bash
# CI pipeline, twelve stages:
#
#   release  Release build (warnings as errors) + full ctest suite
#   tsan     ThreadSanitizer build + `ctest -L tsan` (concurrency suites)
#   asan     AddressSanitizer build + `ctest -L asan` (lifetime suites)
#   ubsan    UBSan build (-fno-sanitize-recover) + full ctest suite
#   lint     monsoon-lint over src/ tools/ tests/, plus clang-tidy when
#            a clang-tidy binary is on PATH
#   analyze  monsoon-analyze over src/ tools/ tests/: the flow-sensitive
#            CFG passes (must-poll, lock-scope, status-flow, accounting);
#            findings are CI-blocking, plus a self-check that injects one
#            violation per pass and expects the analyzer to catch it
#   obs      observability smoke: quickstart --threads=2x must exit 2,
#            quickstart with --trace-out/--report-out,
#            monsoon-trace-check over both artifacts, and the
#            bench_obs_overhead disabled-path gate (BENCH_obs_overhead.json)
#   fault    fault-injection soak under ASan: quickstart over all four
#            workloads at 1% transient UDF faults (every query must finish
#            retried or degraded, never crash), a traced faulty run through
#            monsoon-trace-check, and the bench_fault_overhead
#            disabled-path gate (BENCH_fault_overhead.json)
#   server   query-server smoke: an out-of-range --port must make
#            monsoon-serve, monsoon-client and monsoon-top exit 2, then
#            monsoon-serve + concurrent monsoon-client runs — a literal
#            past int64 answered with an InvalidArgument reply while the
#            server keeps serving, two sessions held mid-query, one more rejected past the
#            admission limit (kUnavailable), one cancelled by client
#            disconnect — then SIGINT drain (pool pending must reach 0)
#            and monsoon-trace-check over the traced run
#   telemetry  live-telemetry smoke: monsoon-serve under load with an
#            injected Σ fault, .metrics scraped through monsoon-top --once
#            and validated as Prometheus exposition, tail sampling keeping
#            exactly the degraded query's trace, and the slow-query log
#            capturing the same query
#   shard    shard-failover soak under ASan: quickstart over all four
#            workloads at shards=4 with 1% shard.exec faults (a seeded
#            shard kill per pass) — every run must recover, never degrade,
#            and its accounting must equal a clean shards=1 run — plus a
#            monsoon-analyze self-check that a per-shard morsel loop
#            without a cancellation poll is caught, and the bench_shard
#            shard-invariance / kill-and-recover gate (BENCH_shard.json)
#   bench    the repository benchmark's self-test (perfbench/selftest.py):
#            every BENCHMARK.json workload at smoke size, traced and
#            untraced, must finish correct with every metric present,
#            finite and in its unit
#
# Run from anywhere in the repository:
#
#   ./scripts/ci.sh            # all stages
#   ./scripts/ci.sh release    # one stage by name
#                              # (release|tsan|asan|ubsan|lint|analyze|obs|
#                              #  fault|server|telemetry|shard|bench)
set -euo pipefail
cd "$(dirname "$0")/.."

# nproc is Linux coreutils; fall back to a safe width elsewhere.
if command -v nproc >/dev/null 2>&1; then
  JOBS="${JOBS:-$(nproc)}"
else
  JOBS="${JOBS:-2}"
fi
STAGE="${1:-all}"

# Runs a command that must fail as a usage error: exit code 2, before it
# does any work (common/env.h). Its output goes to the log file $1.
expect_usage_error() {
  local log="$1"
  shift
  local status=0
  timeout 60 "$@" > "${log}" 2>&1 || status=$?
  if [ "${status}" -ne 2 ]; then
    echo "FAIL: $* exited ${status}, want 2" >&2
    cat "${log}" >&2
    exit 1
  fi
}

release_stage() {
  echo "=== [1/12] Release build (-Werror) + full test suite ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release -DMONSOON_WERROR=ON
  cmake --build build-ci-release -j "${JOBS}"
  ctest --test-dir build-ci-release --output-on-failure -j "${JOBS}"
}

tsan_stage() {
  echo "=== [2/12] ThreadSanitizer build + concurrency tests ==="
  cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMONSOON_SANITIZE=thread
  cmake --build build-ci-tsan -j "${JOBS}" \
    --target parallel_test exec_test exec_batch_test determinism_test \
    obs_test timeseries_test fault_test shard_test server_test \
    planner_golden_test exec_order_golden_test
  # Everything that crosses the src/parallel/ runtime: the pool/TaskGroup/
  # ParallelFor unit tests, the serial-vs-parallel equivalence suite
  # (the executor's range driver over morsels and shards, the flat hash
  # index, parallel Σ), the shard supervisor and its kill-and-recover
  # matrix, the telemetry sampler, the same-seed cross-run determinism
  # suite, the cancellation stress tests, the concurrent-session
  # query-server suite, the planner goldens run through root-parallel
  # MCTS workers, and the executor-order goldens (every generator's plans
  # over shards {1, 4} x {serial, a 4-thread pool}: concurrent id gathers
  # reading shared column stores). Every tsan-labelled suite must
  # be a build target here: an unbuilt one registers as an unlabelled
  # *_NOT_BUILT test, which `ctest -L tsan` skips without a word.
  ctest --test-dir build-ci-tsan --output-on-failure -L tsan
}

asan_stage() {
  echo "=== [3/12] AddressSanitizer build + lifetime tests ==="
  cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMONSOON_SANITIZE=address
  cmake --build build-ci-asan -j "${JOBS}" \
    --target parallel_test udf_cache_test exec_test exec_batch_test \
    fault_test shard_test server_test timeseries_test harness_test \
    storage_test exec_order_golden_test stats_store_test mdp_test mcts_test \
    planner_golden_test
  # The pool, TaskGroup and ParallelFor suite (a throwing lane's exception
  # held and rethrown once), the cache-on/off/serial/parallel equivalence
  # suite plus the executor, batch-execution, fault and shard suites:
  # every cached column read
  # (join build/probe, residual filters, Σ passes, at every shard count),
  # every scan-selection and Bloom-probe path, every LRU eviction, every
  # killed-and-retried shard attempt, every barrier gather into a pre-sized
  # output window, and every injected-fault error path runs under ASan.
  # The storage suite covers the table gathers themselves (appends, the
  # pre-size step, window gathers, gathers of gathers, store lifetimes and
  # copies); the executor-order goldens run every workload plan's gathered
  # intermediates, which hold their base tables' stores alive; the server,
  # timeseries and harness suites the query-end path (one report feeding
  # the run report, slow log, tail sampler and server reply); the
  # statistics-store, MDP, MCTS and planner-golden suites the planner's
  # sorted in-place inserts and arena copies of its flat stores. As above,
  # every asan-labelled suite must be built.
  ctest --test-dir build-ci-asan --output-on-failure -L asan
}

ubsan_stage() {
  echo "=== [4/12] UndefinedBehaviorSanitizer build + full test suite ==="
  # -fno-sanitize-recover=all (set by the CMake option) turns any UB hit
  # into a test failure rather than a log line.
  cmake -B build-ci-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMONSOON_SANITIZE=undefined
  cmake --build build-ci-ubsan -j "${JOBS}"
  ctest --test-dir build-ci-ubsan --output-on-failure -j "${JOBS}"
}

lint_stage() {
  echo "=== [5/12] monsoon-lint + clang-tidy ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release -DMONSOON_WERROR=ON
  cmake --build build-ci-release -j "${JOBS}" --target monsoon-lint
  # Syntactic repo invariants (RNG discipline, accounting isolation,
  # include hygiene, ...): findings are CI-blocking. See tools/lint/rules.h.
  ./build-ci-release/tools/lint/monsoon-lint --root .
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build-ci-release -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # shellcheck disable=SC2046
    clang-tidy -p build-ci-release --quiet $(git ls-files 'src/*.cc' 'tools/*.cc')
  else
    echo "clang-tidy not found; skipping (monsoon-lint ran)"
  fi
}

analyze_stage() {
  echo "=== [6/12] monsoon-analyze (flow-sensitive CFG passes) ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release -DMONSOON_WERROR=ON
  cmake --build build-ci-release -j "${JOBS}" --target monsoon-analyze
  # Execution invariants the token linter cannot see (cancellation polls on
  # every loop path, lock scopes, Status consumption, append/charge
  # balance): findings are CI-blocking. See tools/analyze/analysis.h.
  ./build-ci-release/tools/analyze/monsoon-analyze --root .
  # Self-check: each pass must catch a deliberately injected violation.
  # A pass that silently stops firing would otherwise rot unnoticed.
  local inject_dir="build-ci-release/analyze-inject"
  rm -rf "${inject_dir}"
  mkdir -p "${inject_dir}/src/exec" "${inject_dir}/src/server"
  cat > "${inject_dir}/src/exec/inject_poll.cc" <<'EOS'
Status Run(ExecContext* ctx, const Table& t) {
  for (size_t i = 0; i < t.num_rows(); ++i) {
    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));
  }
  return Status::OK();
}
EOS
  cat > "${inject_dir}/src/server/inject_lock.cc" <<'EOS'
void Reply() {
  MutexLock lock(sessions_mu_);
  WriteAll(fd, response);
}
EOS
  cat > "${inject_dir}/src/exec/inject_status.cc" <<'EOS'
void Close() {
  Status s = conn.Close();
  log("closed");
}
EOS
  cat > "${inject_dir}/src/exec/inject_accounting.cc" <<'EOS'
Status Emit(Table* dst, ExecContext* ctx) {
  dst->AppendSelectedFrom(src, rows, n);
  return Status::OK();
}
EOS
  local pass file found
  for pass in must-poll lock-scope status-flow accounting; do
    case "${pass}" in
      must-poll) file="src/exec/inject_poll.cc" ;;
      lock-scope) file="src/server/inject_lock.cc" ;;
      status-flow) file="src/exec/inject_status.cc" ;;
      accounting) file="src/exec/inject_accounting.cc" ;;
    esac
    # The analyzer exits 1 on findings — the expected outcome here — so
    # capture its output instead of piping (pipefail would fail the if).
    found="$(./build-ci-release/tools/analyze/monsoon-analyze \
        --root "${inject_dir}" "${file}" || true)"
    if echo "${found}" | grep -q "monsoon-analyze-${pass}"; then
      echo "self-check: ${pass} caught the injected violation"
    else
      echo "FAIL: monsoon-analyze-${pass} missed an injected violation" >&2
      exit 1
    fi
  done
}

obs_stage() {
  echo "=== [7/12] Observability smoke: trace + run report + overhead gate ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release -DMONSOON_WERROR=ON
  cmake --build build-ci-release -j "${JOBS}" \
    --target quickstart monsoon-trace-check bench_obs_overhead
  local obs_dir="build-ci-release/obs-smoke"
  mkdir -p "${obs_dir}"
  # A numeric flag that is not a whole integer in range is rejected, never
  # read by its prefix (--threads=2x used to run at 2 threads).
  expect_usage_error "${obs_dir}/bad-threads.log" \
    ./build-ci-release/examples/quickstart --threads=2x
  # --threads=2 exercises the pool lanes so the trace must contain all four
  # span categories (mdp, mcts, exec, pool).
  ./build-ci-release/examples/quickstart --threads=2 \
    --trace-out="${obs_dir}/trace.json" --report-out="${obs_dir}/report.json"
  ./build-ci-release/tools/obs/monsoon-trace-check \
    --trace "${obs_dir}/trace.json" --expect-pool \
    --report "${obs_dir}/report.json"
  # Fails when the disabled tracing path stops being branch-cheap.
  ./build-ci-release/bench/bench_obs_overhead "${obs_dir}/BENCH_obs_overhead.json"
}

fault_stage() {
  echo "=== [8/12] Fault-injection soak (ASan) + overhead gate ==="
  cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMONSOON_SANITIZE=address
  cmake --build build-ci-asan -j "${JOBS}" \
    --target quickstart monsoon-trace-check
  # The overhead gate measures the uninstrumented fast path, so it runs
  # from the release build; ASan would tax the relaxed load itself.
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release -DMONSOON_WERROR=ON
  cmake --build build-ci-release -j "${JOBS}" --target bench_fault_overhead
  local fault_dir="build-ci-asan/fault-soak"
  mkdir -p "${fault_dir}"
  # 1% transient faults across every UDF evaluation point, plus forced Σ
  # failures: every query over all four workloads must complete (retried
  # or degraded, never crashed — quickstart exits non-zero on any hard
  # error), and degradation must reach the run report.
  local spec='exec.udf_eval*=0.01;exec.sigma.pass=1:permanent'
  for wl in tpch imdb ott udf; do
    ./build-ci-asan/examples/quickstart --workload="${wl}" \
      --faults="${spec}" --report-out="${fault_dir}/report_${wl}.json"
  done
  if ! grep -l -q '"degraded":true' "${fault_dir}"/report_*.json; then
    echo "FAIL: no degraded query in any fault-soak run report" >&2
    exit 1
  fi
  # A traced faulty run must still produce a well-formed trace + report.
  ./build-ci-asan/examples/quickstart --threads=2 --faults="${spec}" \
    --trace-out="${fault_dir}/trace.json" \
    --report-out="${fault_dir}/report_demo.json"
  ./build-ci-asan/tools/obs/monsoon-trace-check \
    --trace "${fault_dir}/trace.json" --expect-pool \
    --report "${fault_dir}/report_demo.json"
  # Fails when the disabled MONSOON_FAULT_POINT path stops being
  # branch-cheap.
  ./build-ci-release/bench/bench_fault_overhead \
    "${fault_dir}/BENCH_fault_overhead.json"
}

server_stage() {
  echo "=== [9/12] Query-server smoke: admission, cancellation, drain ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release -DMONSOON_WERROR=ON
  cmake --build build-ci-release -j "${JOBS}" \
    --target monsoon-serve monsoon-client monsoon-top monsoon-trace-check
  local server_dir="build-ci-release/server-smoke"
  mkdir -p "${server_dir}"
  local serve="./build-ci-release/examples/monsoon-serve"
  local client="./build-ci-release/tools/client/monsoon-client"
  local top="./build-ci-release/tools/top/monsoon-top"
  # A port out of range is rejected with exit code 2 before the workload
  # loads or a connection is tried, never wrapped (70000 used to mean 4464).
  expect_usage_error "${server_dir}/bad-port.log" "${serve}" --port=70000
  expect_usage_error "${server_dir}/bad-client-port.log" \
    "${client}" --port=70000 --ping
  expect_usage_error "${server_dir}/bad-top-port.log" \
    "${top}" --port=70000 --once
  # 200k MCTS iterations stretch each session to multiple seconds, giving
  # the overflow / disconnect clients a wide deterministic window while
  # both admission slots are provably occupied. Shared state is off so the
  # second heavy query cannot warm-start and finish early.
  local sql='SELECT * FROM docs d, docinfo di, authorinfo ai WHERE extract_id(d.d_text) = di.di_key AND extract_author(d.d_text) = ai.ai_key'
  "${serve}" --workload=udf --max-sessions=2 --queue-depth=0 \
    --iterations=200000 --no-shared-state \
    --trace-out="${server_dir}/trace.json" \
    > "${server_dir}/serve.log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 200); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "${server_dir}/serve.log" | head -1)"
    [ -n "${port}" ] && break
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "FAIL: monsoon-serve never reported its port" >&2
    cat "${server_dir}/serve.log" >&2
    exit 1
  fi
  # Protocol smoke first: ping + stats round-trip on a control connection.
  "${client}" --port="${port}" --ping --stats --quiet
  # A numeric literal past int64 fails the parse with an error reply, and
  # the server keeps serving.
  "${client}" --port="${port}" --expect=InvalidArgument --quiet \
    --query='SELECT * FROM docinfo di WHERE di.di_key = 99999999999999999999'
  "${client}" --port="${port}" --ping --quiet
  # Session A holds slot 1 to completion; session C holds slot 2 until its
  # client disconnects after 4s, which must cancel the query server-side.
  "${client}" --port="${port}" --query="${sql}" --expect=OK --quiet &
  local client_a=$!
  "${client}" --port="${port}" --query="${sql}" --cancel-after-ms=4000 \
    --quiet &
  local client_c=$!
  sleep 1.5
  # Both slots busy, queue depth 0: one more client must be turned away
  # with a structured kUnavailable, not an error or a hang.
  "${client}" --port="${port}" --query="${sql}" --expect=Unavailable --quiet
  wait "${client_c}"
  wait "${client_a}"
  # Graceful drain on SIGINT: the serve process must exit 0, report zero
  # leaked pool tasks, and have seen both the rejection and the
  # disconnect-triggered cancellation.
  kill -INT "${serve_pid}"
  wait "${serve_pid}"
  grep -q 'pool pending=0' "${server_dir}/serve.log"
  grep -q 'rejected=[1-9]' "${server_dir}/serve.log"
  grep -q 'cancelled=[1-9]' "${server_dir}/serve.log"
  # The traced run must carry the usual span categories (sessions run as
  # pool tasks, hence --expect-pool) alongside the server's own spans.
  ./build-ci-release/tools/obs/monsoon-trace-check \
    --trace "${server_dir}/trace.json" --expect-pool
}

telemetry_stage() {
  echo "=== [10/12] Telemetry: exposition, tail sampling, slow log, top ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release -DMONSOON_WERROR=ON
  cmake --build build-ci-release -j "${JOBS}" \
    --target monsoon-serve monsoon-client monsoon-top monsoon-trace-check \
    bench_server_throughput
  local telem_dir="build-ci-release/telemetry-smoke"
  rm -rf "${telem_dir}"
  mkdir -p "${telem_dir}/tail"
  local serve="./build-ci-release/examples/monsoon-serve"
  local client="./build-ci-release/tools/client/monsoon-client"
  local top="./build-ci-release/tools/top/monsoon-top"
  # Full telemetry stack: 50 ms sampler ticks, tail sampling with an
  # unreachable slow threshold (only degraded/faulted queries keep traces),
  # a slow log at threshold 0 (logs only degraded/cancelled/failed), and a
  # permanent Σ fault. Shared state is off so every session plans cold and
  # which queries degrade stays deterministic: the three-way obscured join
  # below never executes a Σ pass under these options (clean), while the
  # single-table obscured filter always does (degraded).
  "${serve}" --workload=udf --max-sessions=4 --iterations=120 \
    --no-shared-state --telemetry-ms=50 \
    --trace-tail-ms=3600000 --trace-tail-dir="${telem_dir}/tail" \
    --slow-log="${telem_dir}/slow.jsonl" \
    --faults='exec.sigma.pass=1:permanent' \
    > "${telem_dir}/serve.log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 200); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "${telem_dir}/serve.log" | head -1)"
    [ -n "${port}" ] && break
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "FAIL: monsoon-serve never reported its port" >&2
    cat "${telem_dir}/serve.log" >&2
    exit 1
  fi
  local clean_sql='SELECT * FROM docs d, docinfo di, authorinfo ai WHERE extract_id(d.d_text) = di.di_key AND extract_author(d.d_text) = ai.ai_key'
  local degraded_sql="SELECT * FROM docs d WHERE extract_date(d.d_when) = '2019-01-11'"
  # Load: four clean sessions feed the latency histogram and the sampler
  # window, then the fault-injected query completes degraded.
  for _ in 1 2 3 4; do
    "${client}" --port="${port}" --query="${clean_sql}" --expect=OK --quiet
  done
  "${client}" --port="${port}" --query="${degraded_sql}" --expect=OK --quiet
  # Scrape .metrics through monsoon-top (--once validates the exposition
  # client-side and renders one dashboard frame; --metrics-out keeps the
  # raw scrape for the checks below).
  "${top}" --port="${port}" --once --metrics-out="${telem_dir}/metrics.txt"
  # The scrape is well-formed Prometheus text, the degraded run reached the
  # registry, and the sampler window has real latency percentiles.
  ./build-ci-release/tools/obs/monsoon-trace-check \
    --exposition "${telem_dir}/metrics.txt"
  grep -q '^monsoon_server_degraded_total 1$' "${telem_dir}/metrics.txt"
  grep -q '^monsoon_server_sessions_total 5$' "${telem_dir}/metrics.txt"
  # Tail sampling kept exactly the degraded query's trace: every file in
  # the tail dir validates in --tail mode with reason "degraded" (the four
  # clean queries were dropped — one kept trace total).
  ./build-ci-release/tools/obs/monsoon-trace-check \
    --expect-sampled "${telem_dir}/tail" --reason degraded
  [ "$(ls "${telem_dir}/tail" | wc -l)" -eq 1 ]
  # The slow log captured the same query — one entry, reason degraded,
  # pointing at the kept trace file.
  [ "$(wc -l < "${telem_dir}/slow.jsonl")" -eq 1 ]
  grep -q '"reason":"degraded"' "${telem_dir}/slow.jsonl"
  grep -q '"trace":"[^"]*tail-[0-9]*-degraded\.json"' "${telem_dir}/slow.jsonl"
  # Graceful drain; the shutdown line reports the telemetry tallies.
  kill -INT "${serve_pid}"
  wait "${serve_pid}"
  grep -q 'pool pending=0' "${telem_dir}/serve.log"
  # Telemetry A/B (DESIGN.md §14): the 16-client point against a
  # telemetry-off and a fully instrumented server over four interleaved
  # rounds; fails when the median round's on/off qps ratio drops past
  # MONSOON_OBS_AB_MAX_DROP_PCT (50%).
  MONSOON_SERVER_CLIENTS=16 MONSOON_SERVER_REQUESTS=800 \
    ./build-ci-release/bench/bench_server_throughput \
    "${telem_dir}/BENCH_server.json"
}

shard_stage() {
  echo "=== [11/12] Shard failover soak (ASan) + analyze self-check + bench ==="
  cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMONSOON_SANITIZE=address
  cmake --build build-ci-asan -j "${JOBS}" --target quickstart
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release -DMONSOON_WERROR=ON
  cmake --build build-ci-release -j "${JOBS}" \
    --target bench_shard monsoon-analyze
  local shard_dir="build-ci-asan/shard-soak"
  rm -rf "${shard_dir}"
  mkdir -p "${shard_dir}"
  # One line per query: the status always, plus the accounting scalars
  # that must be shard- and failover-invariant when the query completes
  # OK — including shard_failures, which pins the recovered run to zero
  # shards lost (the clean shards=1 side is structurally zero). Budget-
  # exhausted (TO) queries contribute status only: partial accounting is
  # documented as nondeterministic (the budget trips at morsel/shard
  # granularity), and their shards legitimately record non-transient
  # ResourceExhausted failures. The udf_cache hits and misses are pinned
  # too: columns are keyed by (expression, bound term) and bound whole
  # before a pass's ranges run, so neither the shard count nor a recovered
  # shard moves them. shard_retries is excluded: retries are exactly what
  # differs on a recovered run.
  acct() {
    sed 's/{"query":/\n{"query":/g' "$1" | tail -n +2 | while IFS= read -r q; do
      if printf '%s' "${q}" | grep -q '"status":"ok"'; then
        printf '%s' "${q}" | grep -o \
          '"\(status\|result_rows\|objects_processed\|work_units\|execute_rounds\|stats_collections\|degraded\|hits\|misses\|shard_failures\)":"\?[A-Za-z0-9]*"\?' \
          | tr '\n' ' '
        echo
      else
        printf '%s' "${q}" | grep -o '"status":"[^"]*"' | head -1
      fi
    done
  }
  # Fault draws are a pure function of (seed, point, coord=shard,
  # attempt): seed 4 at p=0.01 fires exactly shard 2's attempt 0 and
  # clears its retry, so EVERY sharded pass in every workload kills one
  # shard once and the supervisor must recover it — deterministically,
  # never exhausting the retry budget.
  local seed=4
  local fired=0
  for wl in tpch imdb ott udf; do
    ./build-ci-asan/examples/quickstart --workload="${wl}" \
      --report-out="${shard_dir}/clean_${wl}.json"
    MONSOON_FAULT_SEED="${seed}" \
      ./build-ci-asan/examples/quickstart --workload="${wl}" --shards=4 \
      --faults='shard.exec=0.01' \
      --report-out="${shard_dir}/shard_${wl}.json"
    if grep -q '"shard_retries":[1-9]' "${shard_dir}/shard_${wl}.json"; then
      fired=1
    fi
    # The recovered shards=4 run must match the clean shards=1 run query
    # for query: same status sequence, and for every OK query the same
    # accounting with zero failed shards (recovered, never degraded).
    if ! diff <(acct "${shard_dir}/clean_${wl}.json") \
              <(acct "${shard_dir}/shard_${wl}.json"); then
      echo "FAIL: ${wl}: recovered shards=4 accounting differs from the" \
           "clean shards=1 run" >&2
      exit 1
    fi
    echo "shard soak: ${wl} recovered with clean-run-identical accounting"
  done
  if [ "${fired}" -ne 1 ]; then
    echo "FAIL: the seeded shard kill never fired — the soak proved nothing" >&2
    exit 1
  fi
  # The shipped per-shard morsel loops must satisfy must-poll...
  ./build-ci-release/tools/analyze/monsoon-analyze --root . \
    src/shard/shard.cc src/exec/executor.cc
  # ...and the pass must still CATCH a per-shard loop that drops its
  # cancellation poll (same self-check contract as the analyze stage).
  local inject_dir="build-ci-asan/shard-inject"
  rm -rf "${inject_dir}"
  mkdir -p "${inject_dir}/src/exec"
  cat > "${inject_dir}/src/exec/inject_shard_poll.cc" <<'EOS'
Status RunShards(ExecContext* ctx, const ShardMap& map, const Table& t) {
  for (size_t s = 0; s < map.num_shards(); ++s) {
    for (size_t i = map.begin(s); i < map.end(s); ++i) {
      MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));
    }
  }
  return Status::OK();
}
EOS
  local found
  found="$(./build-ci-release/tools/analyze/monsoon-analyze \
      --root "${inject_dir}" src/exec/inject_shard_poll.cc || true)"
  if echo "${found}" | grep -q "monsoon-analyze-must-poll"; then
    echo "self-check: must-poll caught the poll-free per-shard loop"
  else
    echo "FAIL: monsoon-analyze-must-poll missed a per-shard morsel loop" \
         "without a cancellation poll" >&2
    exit 1
  fi
  # Shard sweep + kill-and-recover gate; hard-fails unless every arm's
  # outputs equal shards=1 and the kill arm recovered (BENCH_shard.json).
  local bench_dir="build-ci-release/shard-bench"
  mkdir -p "${bench_dir}"
  (cd "${bench_dir}" && ../../build-ci-release/bench/bench_shard)
}

bench_stage() {
  echo "=== [12/12] Repository benchmark self-test ==="
  # Builds perfbench from this checkout (into .bench_build/) and runs each
  # workload for one smoke-size pass in both modes.
  python3 perfbench/selftest.py
}

case "${STAGE}" in
  release) release_stage ;;
  tsan) tsan_stage ;;
  asan) asan_stage ;;
  ubsan) ubsan_stage ;;
  lint) lint_stage ;;
  analyze) analyze_stage ;;
  obs) obs_stage ;;
  fault) fault_stage ;;
  server) server_stage ;;
  telemetry) telemetry_stage ;;
  shard) shard_stage ;;
  bench) bench_stage ;;
  all)
    release_stage
    tsan_stage
    asan_stage
    ubsan_stage
    lint_stage
    analyze_stage
    obs_stage
    fault_stage
    server_stage
    telemetry_stage
    shard_stage
    bench_stage
    ;;
  *)
    echo "usage: $0 [release|tsan|asan|ubsan|lint|analyze|obs|fault|server|telemetry|shard|bench|all]" >&2
    exit 2
    ;;
esac

echo "CI passed."
