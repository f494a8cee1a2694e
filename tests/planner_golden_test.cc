// Golden planner behaviour: every query of the IMDB, TPC-H, OTT and UDF
// generators (small scale) runs through MonsoonOptimizer::Run with a fixed
// seed at one and two root-parallel MCTS workers. The exact action log,
// objects processed, result rows and the first decision's merged root
// edges (visits and mean return, compared with ==) are checked against
// tests/golden/planner_golden.txt.
//
// The determinism suites compare a run with another run of the same
// build; this file pins behaviour across builds, so a refactor of the MDP
// or the search that changes any decision fails here.
//
// Each golden line is
//   workload <TAB> query <TAB> w<workers> <TAB> status <TAB> rows=<n>
//   <TAB> objects=<n> <TAB> edges=<action>@<visits>:<mean>|... <TAB>
//   log=<action> ; <action> ; ...
// A mismatch prints the actual line prefixed with "GOLDEN ", which is the
// format of the file.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "mcts/root_parallel.h"
#include "monsoon/monsoon_optimizer.h"
#include "parallel/runtime.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

#ifndef MONSOON_PLANNER_GOLDEN_FILE
#error "MONSOON_PLANNER_GOLDEN_FILE must name tests/golden/planner_golden.txt"
#endif

namespace monsoon {
namespace {

constexpr int kIterations = 96;
constexpr uint64_t kSeed = 0x5eed;
constexpr uint64_t kWorkBudget = 2'000'000;

StatusOr<Workload> MakeSmallWorkload(const std::string& name) {
  if (name == "imdb") {
    ImdbOptions options;
    options.scale = 0.05;
    return MakeImdbWorkload(options);
  }
  if (name == "tpch") {
    TpchOptions options;
    options.scale = 0.1;
    return MakeTpchWorkload(options);
  }
  if (name == "ott") {
    OttOptions options;
    options.rows_per_table = 400;
    options.key_cardinality = 25;
    return MakeOttWorkload(options);
  }
  UdfBenchOptions options;
  options.scale = 0.1;
  return MakeUdfBenchWorkload(options);
}

MonsoonOptimizer::Options GoldenOptions(int workers) {
  MonsoonOptimizer::Options options;
  options.mcts.iterations = kIterations;
  options.seed = kSeed;
  options.work_budget = kWorkBudget;
  options.mcts_workers = workers;
  return options;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// The merged root edges of the optimizer's first search: the same MDP,
// state and seed MonsoonOptimizer::RunImpl uses for decision 1.
StatusOr<std::string> FirstDecisionEdges(const Catalog& catalog,
                                         const QuerySpec& query,
                                         const MonsoonOptimizer::Options& options) {
  std::unique_ptr<Prior> prior = MakePrior(options.prior);
  QueryMdp mdp(query, prior.get(), options.mdp);
  std::map<ExprSig, double> base_counts;
  for (int i = 0; i < query.num_relations(); ++i) {
    MONSOON_ASSIGN_OR_RETURN(uint64_t rows,
                             catalog.RowCount(query.relation(i).table_name));
    base_counts[ExprSig::Of(RelSet::Single(i), 0)] = static_cast<double>(rows);
  }
  MdpState state = mdp.InitialState(StatsStore(), base_counts);
  if (mdp.IsTerminal(state) || mdp.LegalActions(state).size() < 2) {
    return std::string("-");
  }
  RootParallelMcts::Options rp_options;
  rp_options.search = options.mcts;
  rp_options.search.seed = options.seed + 0x9e37;
  rp_options.workers = options.mcts_workers;
  RootParallelMcts search(&mdp, rp_options, parallel::SharedPool());
  MONSOON_RETURN_IF_ERROR(search.SearchBestAction(state).status());
  std::string out;
  for (const MctsSearch::RootEdgeInfo& edge : search.last_info().root_edges) {
    if (!out.empty()) out += "|";
    out += edge.action.ToString(query) + "@" + std::to_string(edge.visits) + ":" +
           FormatDouble(edge.mean_return);
  }
  return out;
}

std::string ActualLine(const std::string& workload, const BenchQuery& query,
                       int workers, const RunResult& result,
                       const std::string& edges) {
  std::ostringstream line;
  line << workload << "\t" << query.name << "\tw" << workers << "\t"
       << StatusCodeToString(result.status.code()) << "\trows=" << result.result_rows
       << "\tobjects=" << result.objects_processed << "\tedges=" << edges << "\tlog=";
  for (size_t i = 0; i < result.action_log.size(); ++i) {
    if (i > 0) line << " ; ";
    line << result.action_log[i];
  }
  return line.str();
}

// Golden lines keyed by "workload \t query \t w<workers>".
std::map<std::string, std::string> LoadGoldens() {
  std::map<std::string, std::string> out;
  std::ifstream in(MONSOON_PLANNER_GOLDEN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t third_tab = line.find('\t', line.find('\t', line.find('\t') + 1) + 1);
    out[line.substr(0, third_tab)] = line;
  }
  return out;
}

class PlannerGoldenTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PlannerGoldenTest, MatchesParentBehaviour) {
  const auto& [workload_name, workers] = GetParam();
  const std::map<std::string, std::string> goldens = LoadGoldens();
  ASSERT_FALSE(goldens.empty()) << "cannot read " << MONSOON_PLANNER_GOLDEN_FILE;
  StatusOr<Workload> workload = MakeSmallWorkload(workload_name);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  MonsoonOptimizer::Options options = GoldenOptions(workers);
  for (const BenchQuery& query : workload->queries) {
    RunResult result = MonsoonOptimizer(workload->catalog.get(), options).Run(query.spec);
    StatusOr<std::string> edges =
        FirstDecisionEdges(*workload->catalog, query.spec, options);
    ASSERT_TRUE(edges.ok()) << query.name << ": " << edges.status().ToString();
    std::string actual = ActualLine(workload_name, query, workers, result, *edges);
    std::string key = workload_name + "\t" + query.name + "\tw" + std::to_string(workers);
    auto it = goldens.find(key);
    if (it == goldens.end()) {
      ADD_FAILURE() << "no golden for " << query.name << "\nGOLDEN " << actual;
    } else if (it->second != actual) {
      ADD_FAILURE() << "planner behaviour changed for " << query.name
                    << "\nexpected: " << it->second << "\nGOLDEN " << actual;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PlannerGoldenTest,
    ::testing::Combine(::testing::Values("imdb", "tpch", "ott", "udf"),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_w" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace monsoon
