// Component microbenchmarks (google-benchmark): the sketch, executor,
// prior sampling, MDP simulation and MCTS building blocks that the
// table-reproduction benches are composed of.

#include <benchmark/benchmark.h>

#include "common/hash.h"
#include "exec/executor.h"
#include "mcts/mcts.h"
#include "plan/logical_ops.h"
#include "sketch/distinct_estimator.h"
#include "sketch/hyperloglog.h"
#include "sql/parser.h"
#include "workloads/imdb.h"

namespace monsoon {
namespace {

void BM_HllAdd(benchmark::State& state) {
  HyperLogLog hll(14);
  uint64_t i = 0;
  for (auto _ : state) {
    hll.AddHash(Mix64(++i));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HllAdd);

void BM_HllEstimate(benchmark::State& state) {
  HyperLogLog hll(static_cast<int>(state.range(0)));
  for (uint64_t i = 0; i < 100000; ++i) hll.AddHash(Mix64(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hll.Estimate());
  }
}
BENCHMARK(BM_HllEstimate)->Arg(10)->Arg(12)->Arg(14);

void BM_GeeEstimate(benchmark::State& state) {
  Pcg32 rng(1);
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 10000; ++i) hashes.push_back(Mix64(rng.NextBounded(1000)));
  for (auto _ : state) {
    SampleProfile profile = SampleProfile::FromHashes(hashes);
    benchmark::DoNotOptimize(EstimateDistinctGee(profile, 1000000));
  }
}
BENCHMARK(BM_GeeEstimate);

void BM_PriorSample(benchmark::State& state) {
  auto prior = MakePrior(static_cast<PriorKind>(state.range(0)));
  Pcg32 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prior->Sample(rng, 1e6, 1e4));
  }
}
BENCHMARK(BM_PriorSample)
    ->Arg(static_cast<int>(PriorKind::kUniform))
    ->Arg(static_cast<int>(PriorKind::kUShaped))
    ->Arg(static_cast<int>(PriorKind::kSpikeAndSlab));

// A reusable two-table join fixture.
struct JoinFixture {
  JoinFixture(size_t left_rows, size_t right_rows) {
    auto left = std::make_shared<Table>(Schema({{"k", ValueType::kInt64}}));
    for (size_t i = 0; i < left_rows; ++i) {
      (void)left->AppendRow({Value(static_cast<int64_t>(i % 1000))});
    }
    auto right = std::make_shared<Table>(Schema({{"k", ValueType::kInt64}}));
    for (size_t i = 0; i < right_rows; ++i) {
      (void)right->AppendRow({Value(static_cast<int64_t>(i % 1000))});
    }
    (void)catalog.AddTable("l", left);
    (void)catalog.AddTable("r", right);
    auto parsed = SqlParser(&catalog).Parse(
        "SELECT * FROM l a, r b WHERE a.k = b.k");
    query = std::move(*parsed);
  }
  Catalog catalog;
  QuerySpec query;
};

void BM_HashJoin(benchmark::State& state) {
  JoinFixture fixture(static_cast<size_t>(state.range(0)),
                      static_cast<size_t>(state.range(0)));
  PlanNode::Ptr plan = PlanNode::Join(MakeLeaf(fixture.query, 0),
                                      MakeLeaf(fixture.query, 1), {0});
  Executor executor(fixture.query, &UdfRegistry::Global());
  uint64_t rows = 0;
  for (auto _ : state) {
    auto store = MaterializedStore::ForQuery(fixture.catalog, fixture.query);
    ExecContext ctx;
    auto result = executor.Execute(plan, &*store, &ctx);
    rows = result->output.table->num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000);

void BM_SigmaPass(benchmark::State& state) {
  JoinFixture fixture(static_cast<size_t>(state.range(0)), 10);
  PlanNode::Ptr plan = PlanNode::StatsCollect(MakeLeaf(fixture.query, 0));
  Executor executor(fixture.query, &UdfRegistry::Global());
  for (auto _ : state) {
    auto store = MaterializedStore::ForQuery(fixture.catalog, fixture.query);
    ExecContext ctx;
    auto result = executor.Execute(plan, &*store, &ctx);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SigmaPass)->Arg(10000)->Arg(100000);

// A leaf scan with two residual filters on one inline range (no pool, one
// shard, 1024-row batches) over 100 k rows: the first keeps half the rows,
// the second half of those. Arg 1 reads the store's evaluate-once columns
// (typed filter loops; the store outlives the loop, so every column hits),
// arg 0 turns the cache off and evaluates each filter per row.
void BM_FilteredScan(benchmark::State& state) {
  const size_t rows = 100000;
  auto table = std::make_shared<Table>(
      Schema({{"k", ValueType::kInt64}, {"m", ValueType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    (void)table->AppendRow({Value(static_cast<int64_t>(i % 2)),
                            Value(static_cast<int64_t>((i / 2) % 2))});
  }
  Catalog catalog;
  (void)catalog.AddTable("t", table);
  auto query =
      SqlParser(&catalog).Parse("SELECT * FROM t x WHERE x.k = 0 AND x.m = 1");
  PlanNode::Ptr plan = MakeLeaf(*query, 0);
  Executor executor(*query, &UdfRegistry::Global());
  auto store = MaterializedStore::ForQuery(catalog, *query);
  if (state.range(0) == 0) store->udf_cache()->set_byte_budget(0);
  for (auto _ : state) {
    ExecContext ctx;
    ctx.SetParallel(nullptr, rows);
    ctx.SetShards(1);
    ctx.SetBatchSize(1024);
    auto result = executor.Execute(plan, &*store, &ctx);
    // Checked here, not after the loop: GCC 12 at -O2 dropped the in-loop
    // store of a row count passed to DoNotOptimize and read after it.
    if (!result.ok() || result->output.table->num_rows() != rows / 4) {
      state.SkipWithError("scan failed or kept the wrong rows");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_FilteredScan)->Arg(0)->Arg(1);

// One relation of a join output: eight mixed-type columns (three int64,
// two double, three strings past the small-string buffer).
Table GatherRelation(const std::string& prefix, size_t rows) {
  std::vector<ColumnDef> columns;
  for (int c = 0; c < 8; ++c) {
    const ValueType type = c < 3   ? ValueType::kInt64
                           : c < 5 ? ValueType::kDouble
                                   : ValueType::kString;
    columns.push_back({prefix + std::to_string(c), type});
  }
  Table table{Schema(columns)};
  std::vector<Value> row(columns.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      switch (columns[c].type) {
        case ValueType::kInt64:
          row[c] = Value(static_cast<int64_t>(r * (c + 1)));
          break;
        case ValueType::kDouble:
          row[c] = Value(static_cast<double>(r) / static_cast<double>(c + 1));
          break;
        case ValueType::kString:
          row[c] = Value(prefix + "-comment-" + std::to_string(r * (c + 1)));
          break;
      }
    }
    (void)table.AppendRow(row);
  }
  return table;
}

// The barrier's gather of one join output, serially: 100 k (left, right)
// row pairs of two 8-column relations into a 16-column result, which is
// then dropped — the output's construction, fill and destruction.
void BM_GatherJoinOutput(benchmark::State& state) {
  const size_t out_rows = 100000;
  const Table left = GatherRelation("l", 40000);
  const Table right = GatherRelation("r", 25000);
  std::vector<uint32_t> lrows(out_rows);
  std::vector<uint32_t> rrows(out_rows);
  for (size_t i = 0; i < out_rows; ++i) {
    lrows[i] = static_cast<uint32_t>((i * 7919) % left.num_rows());
    rrows[i] = static_cast<uint32_t>((i * 104729) % right.num_rows());
  }
  const Schema schema = Schema::Concat(left.schema(), right.schema());
  for (auto _ : state) {
    Table out(schema);
    out.AppendConcatSelected(left, lrows.data(), right, rrows.data(), out_rows);
    benchmark::DoNotOptimize(out.num_rows());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(out_rows));
}
BENCHMARK(BM_GatherJoinOutput)->Unit(benchmark::kMillisecond);

// The Sec. 2.3 MDP, used for MCTS throughput.
struct MdpFixture {
  MdpFixture() : prior(MakePrior(PriorKind::kSpikeAndSlab)) {
    (void)query.AddRelation("R", "r");
    (void)query.AddRelation("S", "s");
    (void)query.AddRelation("T", "t");
    auto f1 = query.MakeTerm("f1", {"R.a"});
    auto f2 = query.MakeTerm("f2", {"S.b"});
    (void)query.AddJoinPredicate(std::move(*f1), std::move(*f2));
    auto f3 = query.MakeTerm("f3", {"R.a"});
    auto f4 = query.MakeTerm("f4", {"T.c"});
    (void)query.AddJoinPredicate(std::move(*f3), std::move(*f4));
    mdp = std::make_unique<QueryMdp>(query, prior.get(), QueryMdp::Options());
    counts[ExprSig::Of(RelSet::Single(0), 0)] = 1e6;
    counts[ExprSig::Of(RelSet::Single(1), 0)] = 1e4;
    counts[ExprSig::Of(RelSet::Single(2), 0)] = 1e4;
  }
  QuerySpec query;
  std::unique_ptr<Prior> prior;
  std::unique_ptr<QueryMdp> mdp;
  std::map<ExprSig, double> counts;
};

void BM_MdpSimulateExecute(benchmark::State& state) {
  MdpFixture fixture;
  MdpState root = fixture.mdp->InitialState(StatsStore(), fixture.counts);
  auto actions = fixture.mdp->LegalActions(root);
  const MdpAction* join = nullptr;
  for (const auto& action : actions) {
    if (action.type == MdpAction::Type::kJoinExecExec) join = &action;
  }
  MdpState planned = fixture.mdp->ApplyPlanAction(root, *join).value();
  Pcg32 rng(3);
  for (auto _ : state) {
    auto result = fixture.mdp->SimulateExecute(planned, rng);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MdpSimulateExecute);

void BM_MctsIterations(benchmark::State& state) {
  MdpFixture fixture;
  MdpState root = fixture.mdp->InitialState(StatsStore(), fixture.counts);
  for (auto _ : state) {
    MctsSearch::Options options;
    options.iterations = static_cast<int>(state.range(0));
    MctsSearch search(fixture.mdp.get(), options);
    benchmark::DoNotOptimize(search.SearchBestAction(root).ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MctsIterations)->Arg(100)->Arg(400);

// imdb-q13 (five relations), the planner-bound case of the repository
// benchmark, from its initial state.
struct ImdbQ13Fixture {
  ImdbQ13Fixture() : prior(MakePrior(PriorKind::kSpikeAndSlab)) {
    ImdbOptions options;
    options.scale = 0.05;
    workload = MakeImdbWorkload(options).value();
    for (const BenchQuery& q : workload.queries) {
      if (q.name == "imdb-q13") query = &q.spec;
    }
    mdp = std::make_unique<QueryMdp>(*query, prior.get(), QueryMdp::Options());
    std::map<ExprSig, double> counts;
    for (int i = 0; i < query->num_relations(); ++i) {
      counts[ExprSig::Of(RelSet::Single(i), 0)] = static_cast<double>(
          workload.catalog->RowCount(query->relation(i).table_name).value());
    }
    root = mdp->InitialState(StatsStore(), counts);
  }
  Workload workload;
  const QuerySpec* query = nullptr;
  std::unique_ptr<Prior> prior;
  std::unique_ptr<QueryMdp> mdp;
  MdpState root;
};

void BM_LegalActions(benchmark::State& state) {
  ImdbQ13Fixture fixture;
  std::pmr::vector<MdpAction> actions;
  for (auto _ : state) {
    fixture.mdp->LegalActions(fixture.root, &actions);
    benchmark::DoNotOptimize(actions.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegalActions);

// imdb-q13 mid-query, the shape MCTS rollouts enumerate: each of two rounds
// plans a Σ over a base relation and two joins, then simulates EXECUTE, so
// R_e grows from 5 entries to 7–9 and S holds sampled distinct counts.
MdpState MidQueryState(const QueryMdp& mdp, const MdpState& root) {
  MdpState state = root;
  Pcg32 rng(7);
  auto apply_first = [&](MdpAction::Type type) {
    for (const MdpAction& action : mdp.LegalActions(state)) {
      if (action.type != type) continue;
      state = mdp.ApplyPlanAction(state, action).value();
      return;
    }
  };
  for (int round = 0; round < 2; ++round) {
    apply_first(MdpAction::Type::kAddStatsPlan);
    apply_first(MdpAction::Type::kJoinExecExec);
    apply_first(MdpAction::Type::kJoinExecExec);
    state = mdp.SimulateExecute(state, rng).value().state;
  }
  return state;
}

void BM_LegalActionsMidQuery(benchmark::State& state) {
  ImdbQ13Fixture fixture;
  MdpState mid = MidQueryState(*fixture.mdp, fixture.root);
  std::pmr::vector<MdpAction> actions;
  for (auto _ : state) {
    fixture.mdp->LegalActions(mid, &actions);
    benchmark::DoNotOptimize(actions.data());
  }
  state.counters["executed"] = static_cast<double>(mid.epoch->executed().size());
  state.counters["actions"] = static_cast<double>(actions.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegalActionsMidQuery);

// StatsStore's containment fallback: 8 terms, each with partner-specific
// samples and observations over 15 sub-expressions of a six-relation
// query; every lookup misses its exact and wildcard keys and scans the
// term's entries for the most specific sub-expression.
void BM_StatsStoreLookupDistinct(benchmark::State& state) {
  StatsStore store;
  const ExprSig partner{0b100000, 0};
  for (int term = 0; term < 8; ++term) {
    for (uint64_t rels = 1; rels < 16; ++rels) {
      ExprSig expr{rels, rels << 1};
      store.SetDistinct(term, expr, partner, static_cast<double>(100 * term + rels));
      if (rels % 3 == 0) store.SetDistinctObserved(term, expr, static_cast<double>(rels));
      store.SetDistinct(term, expr, ExprSig{0b010000, 0}, 1);
    }
  }
  const ExprSig lookup{0b011111, 0b111};
  int term = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.LookupDistinct(term, lookup, partner));
    term = (term + 1) & 7;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatsStoreLookupDistinct);

// Also reports one search's epochs (simulated EXECUTE outcomes) and
// LegalActions calls: the calls between two EXECUTEs share an epoch.
void BM_MctsIterationsImdbQ13(benchmark::State& state) {
  ImdbQ13Fixture fixture;
  MctsSearch::SearchInfo info;
  for (auto _ : state) {
    MctsSearch::Options options;
    options.iterations = static_cast<int>(state.range(0));
    MctsSearch search(fixture.mdp.get(), options);
    benchmark::DoNotOptimize(search.SearchBestAction(fixture.root).ok());
    info = search.last_info();
  }
  state.counters["epochs"] = static_cast<double>(info.epochs);
  state.counters["legal_action_calls"] = static_cast<double>(info.legal_action_calls);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MctsIterationsImdbQ13)->Arg(300);

void BM_SqlParse(benchmark::State& state) {
  JoinFixture fixture(10, 10);
  SqlParser parser(&fixture.catalog);
  const std::string sql =
      "SELECT * FROM l a, r b WHERE bucket1000(a.k) = bucket1000(b.k) "
      "AND a.k = 5";
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.Parse(sql).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlParse);

}  // namespace
}  // namespace monsoon

BENCHMARK_MAIN();
