// monsoon-client: scripted line-protocol client for monsoon-serve.
//
//   monsoon-client --port=N [--host=127.0.0.1] --query="SELECT ..."
//       [--query="..."]... [--repeat=N] [--threads=N] [--retries=K]
//       [--cancel-after-ms=N] [--expect=CODE] [--ping] [--stats] [--quiet]
//
// Each thread opens its own connection and sends every --query (in order)
// --repeat times, reading one JSON response line per request. With
// --expect=CODE the process exits 0 only when every response carries that
// status code ("OK", "Unavailable", "Cancelled", ...) — the CI stage uses
// this to assert structured admission rejections. --cancel-after-ms sends
// the first query, waits, then drops the connection without reading the
// response, exercising the server's disconnect-cancellation path.
// --retries=K (default 0: exactly today's one-shot behavior) re-sends a
// request whose response carries code "Unavailable" — the server's
// transient admission-rejection signal — up to K times, on a fresh
// connection each attempt, sleeping the same deterministic
// fault::BackoffUs schedule the server-side retry loops use; a request
// still Unavailable after K retries counts as a failure.

#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "fault/injector.h"
#include "obs/json.h"
#include "server/net.h"

using namespace monsoon;

namespace {

struct ClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::vector<std::string> queries;
  int repeat = 1;
  int threads = 1;
  int retries = 0;
  int cancel_after_ms = -1;
  std::string expect;
  bool ping = false;
  bool stats = false;
  bool quiet = false;
};

/// Outcome of one request/response exchange on an open connection.
enum class Exchange { kOk, kTransient, kFail };

/// Sends `line` + '\n' and reads one response line. Validates --expect.
/// kTransient is returned instead of a verdict when --retries is armed and
/// the response code is "Unavailable" (unless that is exactly the code
/// --expect asks for, in which case retrying would defeat the assertion).
Exchange SendOnce(int fd, server::LineReader* reader,
                  const ClientConfig& config, const std::string& line) {
  Status sent = server::WriteAll(fd, line + "\n");
  if (!sent.ok()) {
    std::cerr << "monsoon-client: " << sent.ToString() << "\n";
    return Exchange::kFail;
  }
  std::string response;
  StatusOr<bool> got = reader->ReadLine(&response);
  if (!got.ok() || !got.value()) {
    std::cerr << "monsoon-client: connection closed before a response\n";
    return Exchange::kFail;
  }
  if (!config.quiet) std::cout << response << "\n";
  if (config.expect.empty() && config.retries <= 0) return Exchange::kOk;
  StatusOr<obs::JsonValue> doc = obs::JsonParse(response);
  const obs::JsonValue* code = doc.ok() ? doc->Find("code") : nullptr;
  std::string code_str =
      code != nullptr && code->is_string() ? code->string_value : "";
  if (config.retries > 0 && code_str == "Unavailable" &&
      config.expect != "Unavailable") {
    return Exchange::kTransient;
  }
  if (config.expect.empty()) return Exchange::kOk;
  if (code_str != config.expect) {
    std::cerr << "monsoon-client: expected code '" << config.expect
              << "', got: " << response << "\n";
    return Exchange::kFail;
  }
  return Exchange::kOk;
}

/// One request with the --retries policy: transient "Unavailable"
/// responses are retried up to config.retries times, each on a brand-new
/// connection (the rejecting server may be draining the old one), after
/// the deterministic fault::BackoffUs sleep — same schedule as the
/// server-side retry loops, streamed by the request ordinal `coord` so a
/// scripted run reproduces its exact timing. `fd`/`reader` are in-out: a
/// retry replaces the connection and the caller keeps using the new one.
bool RoundTrip(int* fd, std::unique_ptr<server::LineReader>* reader,
               const ClientConfig& config, const std::string& line,
               uint64_t coord, std::atomic<int>* failures) {
  for (uint32_t attempt = 0;; ++attempt) {
    Exchange result = SendOnce(*fd, reader->get(), config, line);
    if (result == Exchange::kOk) return true;
    if (result == Exchange::kFail) {
      failures->fetch_add(1);
      return false;
    }
    if (attempt >= static_cast<uint32_t>(config.retries)) {
      std::cerr << "monsoon-client: '" << line << "' still Unavailable after "
                << config.retries << " retries\n";
      failures->fetch_add(1);
      return false;
    }
    uint64_t backoff = fault::BackoffUs(/*seed=*/0, "client.request", coord,
                                        attempt + 1, /*base_us=*/1000);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
    server::CloseFd(*fd);
    StatusOr<int> fd_or = server::ConnectTo(config.host, config.port);
    if (!fd_or.ok()) {
      std::cerr << "monsoon-client: " << fd_or.status().ToString() << "\n";
      failures->fetch_add(1);
      return false;
    }
    *fd = fd_or.value();
    *reader = std::make_unique<server::LineReader>(*fd);
  }
}

void RunConnection(const ClientConfig& config, std::atomic<int>* failures) {
  StatusOr<int> fd_or = server::ConnectTo(config.host, config.port);
  if (!fd_or.ok()) {
    std::cerr << "monsoon-client: " << fd_or.status().ToString() << "\n";
    failures->fetch_add(1);
    return;
  }
  int fd = fd_or.value();
  auto reader = std::make_unique<server::LineReader>(fd);

  if (config.cancel_after_ms >= 0) {
    // Fire the first query, linger, then vanish: the server must notice
    // the disconnect and cancel the session.
    std::string query = config.queries.empty() ? ".ping" : config.queries[0];
    Status sent = server::WriteAll(fd, query + "\n");
    if (!sent.ok()) failures->fetch_add(1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config.cancel_after_ms));
    server::CloseFd(fd);
    return;
  }

  uint64_t coord = 0;  // request ordinal: streams the backoff schedule
  bool alive = true;
  if (config.ping) {
    alive = RoundTrip(&fd, &reader, config, ".ping", coord++, failures);
  }
  for (int round = 0; alive && round < config.repeat; ++round) {
    for (const std::string& query : config.queries) {
      if (!RoundTrip(&fd, &reader, config, query, coord++, failures)) {
        alive = false;
        break;
      }
    }
  }
  if (alive && config.stats) {
    RoundTrip(&fd, &reader, config, ".stats", coord++, failures);
  }
  server::CloseFd(fd);
}

}  // namespace

int main(int argc, char** argv) {
  ClientConfig config;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (FlagValue(argv[i], "--host=", &config.host) ||
        FlagValue(argv[i], "--expect=", &config.expect) ||
        NumericFlag(argv[i], "--port=", kConnectPortRange, &config.port) ||
        NumericFlag(argv[i], "--repeat=", kPositiveIntRange, &config.repeat) ||
        NumericFlag(argv[i], "--threads=", kCountRange, &config.threads) ||
        NumericFlag(argv[i], "--retries=", kNonNegativeIntRange,
                    &config.retries) ||
        NumericFlag(argv[i], "--cancel-after-ms=", kNonNegativeIntRange,
                    &config.cancel_after_ms)) {
      // The helper stored the value.
    } else if (FlagValue(argv[i], "--query=", &value)) {
      config.queries.push_back(value);
    } else if (std::strcmp(argv[i], "--ping") == 0) {
      config.ping = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      config.stats = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      config.quiet = true;
    } else {
      std::cerr << "unknown flag '" << argv[i] << "'\n";
      return 2;
    }
  }
  if (config.port == 0) {
    std::cerr << "monsoon-client: --port is required\n";
    return 2;
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(config.threads));
  for (int i = 0; i < config.threads; ++i) {
    workers.emplace_back([&config, &failures] {
      RunConnection(config, &failures);
    });
  }
  for (std::thread& worker : workers) worker.join();
  return failures.load() == 0 ? 0 : 1;
}
