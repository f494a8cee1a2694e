// Golden executor row order: every query of the IMDB, TPC-H, OTT and UDF
// generators (small scale) runs one fixed plan through the executor under
// {shards 1/4} x {no pool / 4 threads}, and the output rows are hashed IN
// ORDER. The digest, row count, objects and work units are checked against
// tests/golden/exec_order_golden.txt.
//
// DifferentialTest compares rows as multisets, so an executor change that
// reorders its output would pass it; this file pins the order itself
// across builds. Shards are even ranges of the table as stored and every
// pass gathers its ranges in order, so the order is the same at every
// shard and thread count: each s4.* line must equal its s1.* twin, config
// column aside.
//
// Each golden line is
//   workload <TAB> query <TAB> s<shards>.t<threads>.b<batch> <TAB> status
//   <TAB> rows=<n> <TAB> objects=<n> <TAB> work=<n> <TAB> digest=<hex>
// where <batch> is the executor's fixed batch width, kBatchRows.
// A mismatch prints the actual line prefixed with "GOLDEN ", which is the
// format of the file: to re-capture, run the binary and keep those lines,
//   ./exec_order_golden_test | sed -n 's/^GOLDEN //p'
// (only when a change is meant to alter the output order).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "exec/executor.h"
#include "exec/materialized_store.h"
#include "parallel/thread_pool.h"
#include "shard/shard.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

#ifndef MONSOON_EXEC_ORDER_GOLDEN_FILE
#error "MONSOON_EXEC_ORDER_GOLDEN_FILE must name tests/golden/exec_order_golden.txt"
#endif

namespace monsoon {
namespace {

constexpr uint64_t kWorkBudget = 20'000'000;

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

// A left-deep plan that starts at relation 0 and joins, at each step, the
// lowest-numbered relation a predicate connects to what is already joined
// (the lowest unjoined one when none is connected). Every predicate runs at
// the lowest node covering its relations, so leaves filter, equi-join
// predicates hash-join and the rest become residual filters.
PlanNode::Ptr ConnectedLeftDeepPlan(const QuerySpec& query) {
  std::vector<bool> applied(query.predicates().size(), false);
  auto preds_within = [&](RelSet rels) {
    std::vector<int> ids;
    for (const Predicate& pred : query.predicates()) {
      if (applied[pred.pred_id] || !rels.ContainsAll(pred.rels())) continue;
      applied[pred.pred_id] = true;
      ids.push_back(pred.pred_id);
    }
    return ids;
  };
  auto leaf = [&](int rel) {
    RelSet single = RelSet::Single(rel);
    return PlanNode::Leaf(ExprSig::Of(single, 0), preds_within(single));
  };
  RelSet joined = RelSet::Single(0);
  PlanNode::Ptr plan = leaf(0);
  for (int step = 1; step < query.num_relations(); ++step) {
    int next = -1;
    for (int rel = 0; rel < query.num_relations() && next < 0; ++rel) {
      if (joined.Contains(rel)) continue;
      RelSet with = joined;
      with.Add(rel);
      for (const Predicate& pred : query.predicates()) {
        RelSet rels = pred.rels();
        if (rels.Contains(rel) && with.ContainsAll(rels) &&
            !RelSet::Single(rel).ContainsAll(rels)) {
          next = rel;
          break;
        }
      }
    }
    for (int rel = 0; rel < query.num_relations() && next < 0; ++rel) {
      if (!joined.Contains(rel)) next = rel;
    }
    PlanNode::Ptr right = leaf(next);
    joined.Add(next);
    plan = PlanNode::Join(plan, right, preds_within(joined));
  }
  return plan;
}

/// Sets the process default shard count for its lifetime, then restores
/// the unsharded default.
class DefaultShardsScope {
 public:
  explicit DefaultShardsScope(int shards) { shard::SetDefaultShardCount(shards); }
  ~DefaultShardsScope() { shard::SetDefaultShardCount(1); }
  DefaultShardsScope(const DefaultShardsScope&) = delete;
  DefaultShardsScope& operator=(const DefaultShardsScope&) = delete;
};

std::string ActualLine(const std::string& workload, const Catalog& catalog,
                       const BenchQuery& query, int shards,
                       parallel::ThreadPool* pool) {
  std::ostringstream line;
  line << workload << "\t" << query.name << "\ts" << shards << ".t"
       << (pool == nullptr ? 1 : pool->num_threads()) << ".b" << kBatchRows
       << "\t";
  // Runs the arm as a process started with --shards=<shards> does: every
  // module that reads the process default (the context snapshots it) sees
  // the arm's count, so the s4-equals-s1 check covers them all.
  DefaultShardsScope scope(shards);
  StatusOr<MaterializedStore> store =
      MaterializedStore::ForQuery(catalog, query.spec);
  if (!store.ok()) return line.str() + StatusCodeToString(store.status().code());
  Executor executor(query.spec, &UdfRegistry::Global());
  ExecContext ctx(kWorkBudget);
  ctx.SetParallel(pool, /*morsel_size=*/64);
  StatusOr<ExecResult> exec =
      executor.Execute(ConnectedLeftDeepPlan(query.spec), &*store, &ctx);
  line << StatusCodeToString(exec.status().code());
  if (!exec.ok()) return line.str();
  const Table& out = *exec->output.table;
  uint64_t digest = 0;
  for (size_t row = 0; row < out.num_rows(); ++row) {
    digest = HashCombine(digest, shard::RowContentHash(out, row));
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Mix64(digest)));
  line << "\trows=" << out.num_rows() << "\tobjects=" << ctx.objects_processed()
       << "\twork=" << ctx.work_units() << "\tdigest=" << hex;
  return line.str();
}

// Golden lines keyed by "workload \t query \t config".
std::map<std::string, std::string> LoadGoldens() {
  std::map<std::string, std::string> out;
  std::ifstream in(MONSOON_EXEC_ORDER_GOLDEN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t third_tab = line.find('\t', line.find('\t', line.find('\t') + 1) + 1);
    out[line.substr(0, third_tab)] = line;
  }
  return out;
}

class ExecOrderGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ExecOrderGoldenTest, OrderedRowsMatchGolden) {
  const std::string& workload_name = GetParam();
  const std::map<std::string, std::string> goldens = LoadGoldens();
  ASSERT_TRUE(std::ifstream(MONSOON_EXEC_ORDER_GOLDEN_FILE).good())
      << "cannot read " << MONSOON_EXEC_ORDER_GOLDEN_FILE;
  StatusOr<Workload> workload = MakeSmallWorkload(workload_name);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  parallel::ThreadPool pool(4);
  for (const BenchQuery& query : workload->queries) {
    // The s1 line's fields after the config, per pool.
    std::map<parallel::ThreadPool*, std::string> unsharded;
    for (int shards : {1, 4}) {
      for (parallel::ThreadPool* threads :
           {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
        std::string actual =
            ActualLine(workload_name, *workload->catalog, query, shards, threads);
        const size_t config_end =
            actual.find('\t', actual.find('\t', actual.find('\t') + 1) + 1);
        std::string key = actual.substr(0, config_end);
        std::string fields = actual.substr(config_end);
        if (shards == 1) {
          unsharded[threads] = std::move(fields);
        } else {
          EXPECT_EQ(unsharded[threads], fields)
              << "sharding changed the output of " << key;
        }
        auto it = goldens.find(key);
        if (it == goldens.end()) {
          ADD_FAILURE() << "no golden for " << key << "\nGOLDEN " << actual;
        } else if (it->second != actual) {
          ADD_FAILURE() << "executor output changed for " << key
                        << "\nexpected: " << it->second << "\nGOLDEN " << actual;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ExecOrderGoldenTest,
                         ::testing::Values("imdb", "tpch", "ott", "udf"));

}  // namespace
}  // namespace monsoon
