// A tiny interactive shell over the Monsoon stack: loads one of the
// benchmark databases and runs SQL with a chosen strategy, printing the
// optimizer's action trace, the result sample and the cost accounting.
//
// Usage:
//   ./build/examples/sql_shell [tpch|imdb|ott|udf]
//   ./build/examples/sql_shell --connect=host:port
//
//   monsoon> .strategy monsoon          (or defaults/greedy/sampling/...)
//   monsoon> .tables
//   monsoon> SELECT * FROM orders o, customer c WHERE o.o_custkey = c.c_custkey
//   monsoon> .quit
//
// With --connect the shell is a thin client for a running monsoon-serve:
// every line goes over the wire and the server's JSON response line is
// printed verbatim (.ping/.stats are served remotely; .quit closes the
// connection). Piped input works in both modes:
//   echo "SELECT * FROM region r, nation n WHERE ..." | ./build/examples/sql_shell tpch

#include <unistd.h>

#include <cstring>
#include <iostream>
#include <string>

#include "baselines/baselines.h"
#include "common/env.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "exec/projection.h"
#include "monsoon/monsoon_optimizer.h"
#include "server/net.h"
#include "sql/parser.h"
#include "workloads/by_name.h"

using namespace monsoon;

namespace {

StatusOr<std::unique_ptr<Strategy>> MakeStrategy(const std::string& name) {
  if (name == "defaults") return MakeDefaultsStrategy();
  if (name == "greedy") return MakeGreedyStrategy();
  if (name == "postgres") return MakeFullStatsStrategy();
  if (name == "ondemand") return MakeOnDemandStrategy();
  if (name == "sampling") return MakeSamplingStrategy();
  if (name == "skinner") return MakeSkinnerStrategy();
  if (name == "lec") return MakeLecStrategy();
  return Status::InvalidArgument("unknown strategy '" + name + "'");
}

void PrintResult(const QuerySpec& query, const RunResult& result) {
  if (result.result_table == nullptr) return;
  auto projected = ApplySelect(*result.result_table, query.select_items());
  if (!projected.ok()) {
    std::cout << "projection error: " << projected.status().ToString() << "\n";
    return;
  }
  std::cout << (*projected)->ToString(/*limit=*/8);
}

void RunQuery(const Catalog& catalog, const std::string& strategy_name,
              const QuerySpec& query) {
  RunResult result;
  if (strategy_name == "monsoon") {
    MonsoonOptimizer::Options options;
    options.mcts.iterations = 400;
    MonsoonOptimizer monsoon(&catalog, options);
    result = monsoon.Run(query);
  } else {
    auto strategy = MakeStrategy(strategy_name);
    if (!strategy.ok()) {
      std::cout << strategy.status().ToString() << "\n";
      return;
    }
    result = (*strategy)->Run(catalog, query, 0);
  }
  if (!result.ok()) {
    std::cout << "error: " << result.status.ToString() << "\n";
    return;
  }
  if (!result.action_log.empty()) {
    std::cout << "actions:\n";
    for (const std::string& action : result.action_log) {
      std::cout << "  - " << action << "\n";
    }
  }
  PrintResult(query, result);
  std::cout << StrFormat(
      "%s rows  |  %s objects processed  |  %.3f s "
      "(plan %.3f, stats %.3f, exec %.3f)\n",
      FormatWithCommas(result.result_rows).c_str(),
      FormatWithCommas(result.objects_processed).c_str(), result.total_seconds,
      result.plan_seconds, result.stats_seconds, result.exec_seconds);
}

/// Client mode: forwards each input line to a monsoon-serve endpoint and
/// prints the JSON response lines. Returns the process exit code.
int RunConnected(const std::string& endpoint) {
  size_t colon = endpoint.rfind(':');
  std::optional<uint16_t> port;
  if (colon != std::string::npos) {
    port = ParseNumber(std::string_view(endpoint).substr(colon + 1),
                       kConnectPortRange);
  }
  if (!port.has_value()) {
    std::cerr << "--connect expects host:port with a port in [1, 65535], got '"
              << endpoint << "'\n";
    return 2;
  }
  std::string host = endpoint.substr(0, colon);
  auto fd_or = server::ConnectTo(host, *port);
  if (!fd_or.ok()) {
    std::cerr << fd_or.status().ToString() << "\n";
    return 1;
  }
  int fd = fd_or.value();
  server::LineReader reader(fd);
  bool interactive = isatty(0);
  if (interactive) {
    std::cout << "Monsoon SQL shell — connected to " << host << ":" << *port
              << ". Lines are sent verbatim; responses are JSON. "
                 ".ping, .stats, .quit\n";
  }
  std::string line;
  int exit_code = 0;
  while (true) {
    if (interactive) std::cout << "monsoon> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(TrimString(line));
    if (trimmed.empty()) continue;
    if (!server::WriteAll(fd, trimmed + "\n").ok()) {
      std::cerr << "connection lost\n";
      exit_code = 1;
      break;
    }
    std::string response;
    auto got = reader.ReadLine(&response);
    if (!got.ok() || !got.value()) {
      std::cerr << "server closed the connection\n";
      exit_code = trimmed == ".quit" ? 0 : 1;
      break;
    }
    std::cout << response << "\n";
    if (trimmed == ".quit") break;
  }
  server::CloseFd(fd);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      return RunConnected(argv[i] + 10);
    }
  }
  std::string workload_name = argc > 1 ? argv[1] : "tpch";
  auto workload = LoadWorkload(workload_name);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 1;
  }
  const Catalog& catalog = *workload->catalog;
  std::string strategy = "monsoon";
  bool interactive = isatty(0);

  std::cout << "Monsoon SQL shell — workload '" << workload_name << "' ("
            << catalog.TableNames().size()
            << " tables). Commands: .tables, .schema <t>, .strategy <name>, "
               ".queries, .quit\n";

  std::string line;
  while (true) {
    if (interactive) std::cout << "monsoon> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(TrimString(line));
    if (trimmed.empty()) continue;
    if (trimmed == ".quit" || trimmed == ".exit") break;
    if (trimmed == ".tables") {
      for (const std::string& name : catalog.TableNames()) {
        auto rows = catalog.RowCount(name);
        std::cout << "  " << name << "  (" << (rows.ok() ? *rows : 0) << " rows)\n";
      }
      continue;
    }
    if (trimmed.rfind(".schema ", 0) == 0) {
      auto table = catalog.GetTable(trimmed.substr(8));
      if (!table.ok()) {
        std::cout << table.status().ToString() << "\n";
      } else {
        std::cout << "  " << (*table)->schema().ToString() << "\n";
      }
      continue;
    }
    if (trimmed.rfind(".strategy ", 0) == 0) {
      strategy = ToLower(trimmed.substr(10));
      std::cout << "strategy = " << strategy << "\n";
      continue;
    }
    if (trimmed == ".queries") {
      for (const BenchQuery& query : workload->queries) {
        std::cout << "  " << query.name << ": " << query.sql << "\n";
      }
      continue;
    }
    SqlParser parser(&catalog);
    auto query = parser.Parse(trimmed);
    if (!query.ok()) {
      std::cout << "parse error: " << query.status().ToString() << "\n";
      continue;
    }
    RunQuery(catalog, strategy, *query);
  }
  return 0;
}
