#include "workload.h"

#include <iostream>
#include <map>

#include "baselines/baselines.h"
#include "catalog/stats_store.h"
#include "common/random.h"
#include "mcts/root_parallel.h"
#include "mdp/mdp.h"
#include "parallel/runtime.h"
#include "priors/prior.h"
#include "shard/shard.h"
#include "sql/parser.h"
#include "workloads/imdb.h"
#include "workloads/tpch.h"

namespace perfbench {

using monsoon::Status;
using monsoon::StatusOr;

namespace {

// Base relation sizes of `spec`, the only statistics known up front.
StatusOr<std::map<monsoon::ExprSig, double>> BaseCounts(
    const monsoon::Catalog& catalog, const monsoon::QuerySpec& spec) {
  std::map<monsoon::ExprSig, double> counts;
  for (int i = 0; i < spec.num_relations(); ++i) {
    MONSOON_ASSIGN_OR_RETURN(uint64_t rows,
                             catalog.RowCount(spec.relation(i).table_name));
    counts[monsoon::ExprSig::Of(monsoon::RelSet::Single(i), 0)] =
        static_cast<double>(rows);
  }
  return counts;
}

// Runs the reference plan of `spec` without a work budget: the DP plan
// over exact offline statistics ("Postgres"), or the Greedy plan where a
// multi-table UDF makes exact offline statistics unrealistic.
monsoon::RunResult RunReference(const monsoon::Catalog& catalog,
                                const monsoon::QuerySpec& spec) {
  monsoon::RunResult result =
      monsoon::MakeFullStatsStrategy()->Run(catalog, spec, /*work_budget=*/0);
  if (result.status.code() == monsoon::StatusCode::kUnimplemented) {
    result = monsoon::MakeGreedyStrategy()->Run(catalog, spec, /*work_budget=*/0);
  }
  return result;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// 0..n-1 in a random order drawn from `rng` (Fisher-Yates).
std::vector<size_t> ShuffledOrder(size_t n, monsoon::Pcg32* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(static_cast<uint32_t>(i))]);
  }
  return order;
}

}  // namespace

BenchWorkload::BenchWorkload(const RunOptions& options, int threads, int shards,
                             int iterations, uint64_t work_budget,
                             Generator generate)
    : smoke_(options.smoke),
      order_rng_(options.seed),
      threads_(threads),
      shards_(shards),
      generate_(std::move(generate)) {
  monsoon_.mcts.iterations = iterations;
  monsoon_.work_budget = work_budget;
}

Status BenchWorkload::Setup() {
  monsoon::parallel::Config config;
  config.num_threads = threads_;
  monsoon::parallel::SetDefaultConfig(config);
  monsoon::shard::SetDefaultShardCount(shards_);
  MONSOON_ASSIGN_OR_RETURN(data_, generate_());
  return Status::OK();
}

Status BenchWorkload::Warmup() {
  Tally tally = RunPass(nullptr);
  if (tally.failed > 0) return Status::Internal("warm-up pass failed");
  return Status::OK();
}

Tally BenchWorkload::Measure(double seconds, uint64_t min_samples, Ledger* ledger) {
  monsoon::obs::Registry& registry = monsoon::obs::Registry::Global();
  monsoon::obs::MetricsSnapshot before;
  if (ledger != nullptr) before = registry.Snapshot();
  Tally total;
  double start = NowSeconds();
  // Whole passes only, so every run weighs the queries alike. Another
  // pass starts while the run has too few samples for a p90, or while it
  // would end nearer the deadline than stopping.
  while (true) {
    double pass_start = NowSeconds();
    total.Merge(RunPass(ledger));
    double now = NowSeconds();
    total.pass_s.push_back(now - pass_start);
    if (smoke_) break;
    if (total.completed() >= min_samples &&
        now - start + (now - pass_start) / 2 >= seconds) {
      break;
    }
  }
  total.wall_s = NowSeconds() - start;
  if (ledger != nullptr) {
    ledger->registry = monsoon::obs::SnapshotDelta(before, registry.Snapshot());
  }
  return total;
}

Tally BenchWorkload::RunPass(Ledger* ledger) {
  Tally tally;
  monsoon::obs::Registry& registry = monsoon::obs::Registry::Global();
  monsoon::MonsoonOptimizer optimizer(data_.catalog.get(), monsoon_);
  for (size_t q : ShuffledOrder(data_.queries.size(), &order_rng_)) {
    const monsoon::BenchQuery& query = data_.queries[q];
    monsoon::obs::MetricsSnapshot before;
    if (ledger != nullptr) before = registry.Snapshot();
    ++tally.attempted;
    double start = NowSeconds();
    monsoon::RunResult result = optimizer.Run(query.spec);
    double end = NowSeconds();
    if (result.ok() && q < reference_.size() && reference_[q] == result.result_rows) {
      tally.AddCompleted(q, (end - start) * 1e3,
                         static_cast<double>(result.objects_processed));
    } else {
      ++tally.failed;
      if (result.ok()) ++tally.mismatched;
      std::cerr << "perfbench: " << query.name << " failed: "
                << (result.ok() ? std::to_string(result.result_rows) +
                                      " rows, expected " +
                                      std::to_string(reference_[q])
                                : result.status.ToString())
                << "\n";
    }
    if (ledger == nullptr || !result.ok()) continue;
    Span span;
    span.name = query.name;
    span.layer = "monsoon.run";
    span.start_s = start;
    span.end_s = end;
    span.args["plan_s"] = result.plan_seconds;
    span.args["sigma_s"] = result.stats_seconds;
    span.args["exec_s"] = result.exec_seconds;
    span.args["rows"] = static_cast<double>(result.result_rows);
    span.args["objects"] = static_cast<double>(result.objects_processed);
    AttachCounts(monsoon::obs::SnapshotDelta(before, registry.Snapshot()), &span);
    ledger->spans.Add(std::move(span));
    ++ledger->queries;
    ledger->plan_s += result.plan_seconds;
    ledger->sigma_s += result.stats_seconds;
    ledger->exec_s += result.exec_seconds;
    ledger->run_s += end - start;
  }
  return tally;
}

void Tally::AddCompleted(size_t query, double latency_ms, double objects) {
  PerQuery& runs = completed_by_query[query];
  runs.latency_ms.push_back(latency_ms);
  runs.objects += objects;
}

uint64_t Tally::completed() const {
  uint64_t n = 0;
  for (const auto& [query, runs] : completed_by_query) n += runs.latency_ms.size();
  return n;
}

std::vector<double> Tally::MedianLatencies() const {
  std::vector<double> medians;
  for (const auto& [query, runs] : completed_by_query) {
    medians.push_back(Median(runs.latency_ms));
  }
  return medians;
}

double Tally::MeanObjects() const {
  double sum = 0;
  for (const auto& [query, runs] : completed_by_query) {
    sum += runs.objects / static_cast<double>(runs.latency_ms.size());
  }
  return completed_by_query.empty()
             ? 0
             : sum / static_cast<double>(completed_by_query.size());
}

void Tally::Merge(const Tally& other) {
  for (const auto& [query, runs] : other.completed_by_query) {
    PerQuery& into = completed_by_query[query];
    into.latency_ms.insert(into.latency_ms.end(), runs.latency_ms.begin(),
                           runs.latency_ms.end());
    into.objects += runs.objects;
  }
  attempted += other.attempted;
  failed += other.failed;
  mismatched += other.mismatched;
  wall_s += other.wall_s;
  pass_s.insert(pass_s.end(), other.pass_s.begin(), other.pass_s.end());
}

Status BenchWorkload::ComputeReference() {
  reference_.clear();
  for (const monsoon::BenchQuery& query : data_.queries) {
    monsoon::RunResult result = RunReference(*data_.catalog, query.spec);
    if (!result.ok()) {
      return Status::Internal("reference plan of " + query.name +
                              " failed: " + result.status.ToString());
    }
    reference_.push_back(result.result_rows);
  }
  return Status::OK();
}

void BenchWorkload::Probe(Ledger* ledger) const {
  const monsoon::Catalog& catalog = *data_.catalog;
  monsoon::SqlParser parser(&catalog);
  std::unique_ptr<monsoon::Prior> prior = monsoon::MakePrior(monsoon_.prior);
  for (const monsoon::BenchQuery& query : data_.queries) {
    Span parse;
    parse.name = query.name;
    parse.layer = "sql.parse";
    parse.start_s = NowSeconds();
    bool parsed = parser.Parse(query.sql).ok();
    parse.end_s = NowSeconds();
    if (parsed) {
      ledger->parse_us.push_back((parse.end_s - parse.start_s) * 1e6);
      ledger->spans.Add(parse);
    }

    monsoon::QueryMdp mdp(query.spec, prior.get(), monsoon_.mdp);
    StatusOr<std::map<monsoon::ExprSig, double>> counts =
        BaseCounts(catalog, query.spec);
    if (counts.ok()) {
      monsoon::MdpState state = mdp.InitialState(monsoon::StatsStore(), *counts);
      if (mdp.LegalActions(state).size() >= 2) {
        monsoon::RootParallelMcts::Options options;
        options.search = monsoon_.mcts;
        options.search.seed = monsoon_.seed;
        options.workers = monsoon_.mcts_workers > 0
                              ? monsoon_.mcts_workers
                              : monsoon::parallel::EffectiveMctsWorkers();
        monsoon::RootParallelMcts search(&mdp, options,
                                         monsoon::parallel::SharedPool());
        Span span;
        span.name = query.name;
        span.layer = "mcts.search";
        span.start_s = NowSeconds();
        bool ok = search.SearchBestAction(state).ok();
        span.end_s = NowSeconds();
        if (ok) {
          span.args["iterations"] = search.last_info().iterations_run;
          ledger->search_ms.push_back((span.end_s - span.start_s) * 1e3);
          ledger->spans.Add(std::move(span));
        }
      }
    }

    Span exec;
    exec.name = query.name;
    exec.layer = "exec.fixed_plan";
    exec.start_s = NowSeconds();
    monsoon::RunResult result = RunReference(catalog, query.spec);
    exec.end_s = NowSeconds();
    if (result.ok()) {
      exec.args["rows"] = static_cast<double>(result.result_rows);
      exec.args["exec_s"] = result.exec_seconds;
      ledger->fixed_plan_ms.push_back(result.exec_seconds * 1e3);
      ledger->spans.Add(std::move(exec));
    }
  }
}

void Ledger::Report(double qps_untraced, double qps_traced, MetricSet* out) const {
  const double n = queries > 0 ? static_cast<double>(queries) : 1.0;
  auto per_query = [&](const std::string& counter) {
    return static_cast<double>(CounterDelta(registry, counter)) / n;
  };
  const double scan_rows =
      static_cast<double>(HistogramSumDelta(registry, "exec.scan_rows_in"));
  const double iterations =
      static_cast<double>(CounterDelta(registry, "mcts.iterations"));
  const double bloom_checks =
      static_cast<double>(CounterDelta(registry, "exec.bloom_checks"));
  const double cache_hits =
      static_cast<double>(CounterDelta(registry, "exec.udf_cache_hits"));
  const double cache_misses =
      static_cast<double>(CounterDelta(registry, "exec.udf_cache_misses"));

  out->Set("sql.parse_us", Mean(parse_us), "us");
  out->Set("monsoon.plan_ms", plan_s / n * 1e3, "ms");
  out->Set("monsoon.sigma_ms", sigma_s / n * 1e3, "ms");
  out->Set("monsoon.exec_ms", exec_s / n * 1e3, "ms");
  out->Set("monsoon.closure", Ratio(plan_s + sigma_s + exec_s, run_s), "ratio");
  out->Set("mdp.decisions", per_query("mdp.decisions"), "count");
  out->Set("mdp.executes", per_query("mdp.executes"), "count");
  out->Set("mcts.iterations", iterations / n, "count");
  out->Set("mcts.iters_per_s", Ratio(iterations, plan_s), "1/s");
  out->Set("mcts.search_ms", Mean(search_ms), "ms");
  out->Set("exec.scan_rows_in", scan_rows / n, "count");
  out->Set("exec.join_rows_out",
           static_cast<double>(HistogramSumDelta(registry, "exec.join_rows_out")) / n,
           "count");
  out->Set("exec.sigma_ops", per_query("exec.sigma_ops"), "count");
  out->Set("exec.mrows_per_s", Ratio(scan_rows / 1e6, exec_s), "Mrows/s");
  out->Set("exec.fixed_plan_ms", Mean(fixed_plan_ms), "ms");
  out->Set("exec.bloom_reject_ratio",
           Ratio(static_cast<double>(CounterDelta(registry, "exec.bloom_rejects")),
                 bloom_checks),
           "ratio");
  out->Set("exec.udf_cache_hit_ratio",
           Ratio(cache_hits, cache_hits + cache_misses), "ratio");
  out->Set("shard.exec_passes", per_query("monsoon.shard.exec_passes"), "count");
  out->Set("shard.retries",
           static_cast<double>(CounterDelta(registry, "monsoon.shard.retries")),
           "count");
  out->Set("pool.tasks_run", per_query("pool.tasks_run"), "count");
  out->Set("pool.tasks_stolen", per_query("pool.tasks_stolen"), "count");
  out->Set("pool.queue_us_p50", HistogramP50(registry, "pool.queue_us"), "us");
  out->Set("obs.trace_overhead_pct",
           Ratio(qps_untraced - qps_traced, qps_untraced) * 100, "%");
}

std::vector<std::string> WorkloadNames() {
  return {"imdb_serial", "tpch_sharded"};
}

// The data and query suites come from each generator's fixed seed; the run
// seed draws the query order. Seeded data would make the workloads differ
// in cost from seed to seed: IMDB passes took 3.1-4.6 s on most generator
// seeds and 7.4-9.6 s on one in five.
std::unique_ptr<BenchWorkload> MakeWorkload(const RunOptions& options) {
  const bool smoke = options.smoke;
  if (options.workload == "imdb_serial") {
    // Two threads, not one: single-threaded runs of this workload swung by
    // up to 45% with the host's load, two-threaded ones by a few percent.
    // Root-parallel MCTS with two workers plans imdb-q25 differently, and
    // that plan needs more than the default 2.5M work budget.
    return std::make_unique<BenchWorkload>(
        options, /*threads=*/2, /*shards=*/1, /*iterations=*/300,
        /*work_budget=*/50'000'000, [smoke]() -> StatusOr<monsoon::Workload> {
          monsoon::ImdbOptions imdb;
          imdb.scale = smoke ? 0.05 : 0.25;
          MONSOON_ASSIGN_OR_RETURN(monsoon::Workload workload,
                                   monsoon::MakeImdbWorkload(imdb));
          // q26 (8 relations) alone takes half a pass; without it a run
          // pools 100 samples in the time the benchmark has.
          std::erase_if(workload.queries, [](const monsoon::BenchQuery& query) {
            return query.name == "imdb-q26";
          });
          return workload;
        });
  }
  if (options.workload == "tpch_sharded") {
    return std::make_unique<BenchWorkload>(
        options, /*threads=*/2, /*shards=*/4, /*iterations=*/300,
        /*work_budget=*/50'000'000, [smoke] {
          monsoon::TpchOptions tpch;
          tpch.scale = smoke ? 0.2 : 4.0;
          return monsoon::MakeTpchWorkload(tpch);
        });
  }
  return nullptr;
}

}  // namespace perfbench
