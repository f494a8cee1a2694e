#include "baselines/baselines.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <set>

#include "cost/cardinality.h"
#include "exec/batch.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/materialized_store.h"
#include "expr/udf.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "sketch/distinct_estimator.h"
#include "sketch/hyperloglog.h"
#include "sketch/sampling.h"

namespace monsoon {

namespace {

// Seeds the store with base relation sizes (always known, Sec. 4.1).
Status InitBaseCounts(const Catalog& catalog, const QuerySpec& query,
                      StatsStore* stats) {
  for (int i = 0; i < query.num_relations(); ++i) {
    MONSOON_ASSIGN_OR_RETURN(uint64_t rows,
                             catalog.RowCount(query.relation(i).table_name));
    stats->SetCount(ExprSig::Of(RelSet::Single(i), 0), static_cast<double>(rows));
  }
  return Status::OK();
}

// UDF terms grouped by the single relation they reference; multi-relation
// terms are returned separately. Deduplicated by term id.
struct TermGroups {
  std::map<int, std::vector<const UdfTerm*>> single;  // rel index -> terms
  std::vector<const UdfTerm*> multi;
};

TermGroups GroupTerms(const QuerySpec& query) {
  TermGroups groups;
  std::set<int> seen;
  for (const UdfTerm* term : query.AllTerms()) {
    if (!seen.insert(term->term_id).second) continue;
    if (term->rels.count() == 1) {
      groups.single[term->rels.Indices()[0]].push_back(term);
    } else {
      groups.multi.push_back(term);
    }
  }
  return groups;
}

// Contains exceptions (kThrow fault injections, rethrown task-group
// failures) so a faulty UDF can never unwind past the harness.
template <typename Fn>
Status RunGuarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("uncaught exception: ") + e.what());
  }
}

// Σ passes the executor skipped on transient faults degrade the run
// instead of failing it (the planner falls back to priors for those terms).
void PropagateDegraded(ExecResult* exec, RunResult* result) {
  if (exec->degraded.empty()) return;
  static obs::Counter* const degraded_metric =
      obs::Registry::Global().GetCounter("faults.degraded_runs");
  if (!result->degraded) degraded_metric->Add(1);
  result->degraded = true;
  for (std::string& reason : exec->degraded) {
    result->degraded_reasons.push_back(std::move(reason));
  }
}

// Executes `plan` and fills the run accounting. Partial accounting is kept
// on failure (timeouts).
Status ExecutePlanTracked(const Catalog& catalog, const QuerySpec& query,
                          const PlanNode::Ptr& plan, ExecContext* ctx,
                          RunResult* result) {
  MONSOON_ASSIGN_OR_RETURN(MaterializedStore store,
                           MaterializedStore::ForQuery(catalog, query));
  Executor executor(query, &UdfRegistry::Global());
  WallTimer timer;
  StatusOr<ExecResult> exec_or = executor.Execute(plan, &store, ctx);
  result->exec_seconds += timer.Seconds();
  CaptureAccounting(*ctx, result);
  result->execute_rounds += 1;
  if (!exec_or.ok()) return std::move(exec_or).status();
  ExecResult exec = std::move(exec_or).value();
  PropagateDegraded(&exec, result);
  result->result_rows = exec.output.table->num_rows();
  result->result_table = exec.output.table;
  return Status::OK();
}

// Plan-then-execute skeleton: an optional statistics phase, a single
// optimization call, one execution.
class PlanExecStrategy : public Strategy {
 public:
  RunResult Run(const Catalog& catalog, const QuerySpec& query,
                uint64_t work_budget) const final {
    RunResult result;
    WallTimer total;
    result.status = RunGuarded(
        [&] { return RunImpl(catalog, query, work_budget, &result); });
    result.total_seconds = total.Seconds();
    return result;
  }

 protected:
  /// Statistics phase. Charged work goes through `ctx`.
  virtual Status CollectStatistics(const Catalog& catalog, const QuerySpec& query,
                                   StatsStore* stats, ExecContext* ctx,
                                   RunResult* result) const {
    (void)catalog;
    (void)query;
    (void)stats;
    (void)ctx;
    (void)result;
    return Status::OK();
  }

  virtual StatusOr<PlanNode::Ptr> Plan(const QuerySpec& query,
                                       StatsStore* stats) const = 0;

 private:
  Status RunImpl(const Catalog& catalog, const QuerySpec& query,
                 uint64_t work_budget, RunResult* result) const {
    MONSOON_RETURN_IF_ERROR(catalog.ValidateQuery(query));
    StatsStore stats;
    MONSOON_RETURN_IF_ERROR(InitBaseCounts(catalog, query, &stats));
    ExecContext ctx(work_budget);

    {
      WallTimer stats_timer;
      Status st = CollectStatistics(catalog, query, &stats, &ctx, result);
      result->stats_seconds += stats_timer.Seconds();
      if (!st.ok()) {
        // Stats-phase failure: only the paper counters are meaningful here
        // (the UDF cache fields keep their zero defaults, as before).
        result->objects_processed = ctx.objects_processed();
        result->work_units = ctx.work_units();
        return st;
      }
    }

    WallTimer plan_timer;
    StatusOr<PlanNode::Ptr> plan_or = Plan(query, &stats);
    result->plan_seconds += plan_timer.Seconds();
    if (!plan_or.ok()) return plan_or.status();

    return ExecutePlanTracked(catalog, query, *plan_or, &ctx, result);
  }
};

// --- "Postgres" / FullStats -------------------------------------------------

class FullStatsStrategy : public PlanExecStrategy {
 public:
  std::string name() const override { return "Postgres"; }

 protected:
  Status CollectStatistics(const Catalog& catalog, const QuerySpec& query,
                           StatsStore* stats, ExecContext* ctx,
                           RunResult* result) const override {
    (void)ctx;  // offline: statistics collection is NOT charged
    TermGroups groups = GroupTerms(query);
    if (!groups.multi.empty()) {
      return Status::Unimplemented(
          "full offline statistics are unrealistic for multi-table UDFs");
    }
    FlatColumn scratch;
    for (const auto& [rel, terms] : groups.single) {
      MONSOON_ASSIGN_OR_RETURN(TablePtr table,
                               catalog.GetTable(query.relation(rel).table_name));
      Schema schema = table->schema().Qualify(query.relation(rel).alias);
      for (const UdfTerm* term : terms) {
        MONSOON_ASSIGN_OR_RETURN(BoundTerm bound,
                                 BoundTerm::Bind(*term, schema, UdfRegistry::Global()));
        ExactDistinctCounter counter;
        ForEachTermHash(bound, *table, UdfRows::Range(0, table->num_rows()),
                        &scratch, [&](uint64_t h) { counter.AddHash(h); });
        stats->SetDistinctObserved(term->term_id,
                                   ExprSig::Of(RelSet::Single(rel), 0),
                                   static_cast<double>(counter.Count()));
        ++result->stats_collections;
      }
    }
    return Status::OK();
  }

  StatusOr<PlanNode::Ptr> Plan(const QuerySpec& query,
                               StatsStore* stats) const override {
    CardinalityModel::Options options;
    options.missing_policy = MissingStatPolicy::kDefaultFraction;
    CardinalityModel model(query, stats, options);
    return DpOptimizer().Optimize(query, &model);
  }
};

// --- Defaults ----------------------------------------------------------------

class DefaultsStrategy : public PlanExecStrategy {
 public:
  std::string name() const override { return "Defaults"; }

 protected:
  StatusOr<PlanNode::Ptr> Plan(const QuerySpec& query,
                               StatsStore* stats) const override {
    CardinalityModel::Options options;
    options.missing_policy = MissingStatPolicy::kDefaultFraction;
    options.default_fraction = 0.1;  // the classical magic constant
    CardinalityModel model(query, stats, options);
    return DpOptimizer().Optimize(query, &model);
  }
};

// --- Greedy ------------------------------------------------------------------

class GreedyStrategy : public PlanExecStrategy {
 public:
  std::string name() const override { return "Greedy"; }

 protected:
  StatusOr<PlanNode::Ptr> Plan(const QuerySpec& query,
                               StatsStore* stats) const override {
    return GreedyOptimizer().Optimize(query, *stats);
  }
};

// --- On Demand ---------------------------------------------------------------

class OnDemandStrategy : public PlanExecStrategy {
 public:
  std::string name() const override { return "On Demand"; }

 protected:
  Status CollectStatistics(const Catalog& catalog, const QuerySpec& query,
                           StatsStore* stats, ExecContext* ctx,
                           RunResult* result) const override {
    TermGroups groups = GroupTerms(query);
    // One charged pass per referenced relation, sketching every
    // single-relation term with HLL (Heule et al. [22]).
    for (const auto& [rel, terms] : groups.single) {
      MONSOON_ASSIGN_OR_RETURN(TablePtr table,
                               catalog.GetTable(query.relation(rel).table_name));
      Schema schema = table->schema().Qualify(query.relation(rel).alias);
      std::vector<BoundTerm> bound;
      for (const UdfTerm* term : terms) {
        MONSOON_ASSIGN_OR_RETURN(BoundTerm b,
                                 BoundTerm::Bind(*term, schema, UdfRegistry::Global()));
        bound.push_back(std::move(b));
      }
      std::vector<HyperLogLog> sketches(bound.size(), HyperLogLog(14));
      FlatColumn scratch;
      for (size_t t = 0; t < bound.size(); ++t) {
        ForEachTermHash(bound[t], *table, UdfRows::Range(0, table->num_rows()),
                        &scratch, [&](uint64_t h) { sketches[t].AddHash(h); });
      }
      MONSOON_RETURN_IF_ERROR(ctx->Charge(table->num_rows()));
      for (size_t t = 0; t < bound.size(); ++t) {
        stats->SetDistinctObserved(terms[t]->term_id,
                                   ExprSig::Of(RelSet::Single(rel), 0),
                                   std::round(sketches[t].Estimate()));
        ++result->stats_collections;
      }
    }
    // Multi-relation terms are left to the default fraction — the paper
    // drops On-Demand on benchmarks where they dominate.
    return Status::OK();
  }

  StatusOr<PlanNode::Ptr> Plan(const QuerySpec& query,
                               StatsStore* stats) const override {
    CardinalityModel::Options options;
    options.missing_policy = MissingStatPolicy::kDefaultFraction;
    CardinalityModel model(query, stats, options);
    return DpOptimizer().Optimize(query, &model);
  }
};

// --- Sampling ----------------------------------------------------------------

class SamplingStrategy : public PlanExecStrategy {
 public:
  explicit SamplingStrategy(SamplingOptions options) : options_(options) {}

  std::string name() const override { return "Sampling"; }

 protected:
  Status CollectStatistics(const Catalog& catalog, const QuerySpec& query,
                           StatsStore* stats, ExecContext* ctx,
                           RunResult* result) const override {
    Pcg32 rng(options_.seed);
    TermGroups groups = GroupTerms(query);

    // Block-sample every relation referenced by any UDF term.
    std::map<int, std::vector<uint64_t>> samples;  // rel -> row indices
    auto ensure_sample = [&](int rel) -> Status {
      if (samples.count(rel)) return Status::OK();
      MONSOON_ASSIGN_OR_RETURN(TablePtr table,
                               catalog.GetTable(query.relation(rel).table_name));
      samples[rel] = BlockSample(table->num_rows(), options_.fraction,
                                 options_.max_rows, options_.block_size, rng);
      return ctx->Charge(samples[rel].size());
    };

    // Single-relation terms: GEE over the per-relation sample.
    FlatColumn scratch;
    for (const auto& [rel, terms] : groups.single) {
      MONSOON_RETURN_IF_ERROR(ensure_sample(rel));
      MONSOON_ASSIGN_OR_RETURN(TablePtr table,
                               catalog.GetTable(query.relation(rel).table_name));
      Schema schema = table->schema().Qualify(query.relation(rel).alias);
      const std::vector<uint32_t> sample_rows(samples[rel].begin(),
                                              samples[rel].end());
      for (const UdfTerm* term : terms) {
        MONSOON_ASSIGN_OR_RETURN(BoundTerm bound,
                                 BoundTerm::Bind(*term, schema, UdfRegistry::Global()));
        std::vector<uint64_t> hashes;
        hashes.reserve(sample_rows.size());
        ForEachTermHash(bound, *table,
                        UdfRows::Ids(sample_rows.data(), sample_rows.size()),
                        &scratch, [&](uint64_t h) { hashes.push_back(h); });
        SampleProfile profile = SampleProfile::FromHashes(hashes);
        double estimate = EstimateDistinctGee(profile, table->num_rows());
        stats->SetDistinctObserved(term->term_id, ExprSig::Of(RelSet::Single(rel), 0),
                                   std::round(estimate));
        ++result->stats_collections;
      }
    }

    // Multi-relation (two-relation) terms: materialize up to product_cap
    // tuples from the product of the subsamples and estimate from those.
    for (const UdfTerm* term : groups.multi) {
      auto rels = term->rels.Indices();
      if (rels.size() != 2) continue;  // degenerate; leave to defaults
      MONSOON_RETURN_IF_ERROR(ensure_sample(rels[0]));
      MONSOON_RETURN_IF_ERROR(ensure_sample(rels[1]));
      MONSOON_ASSIGN_OR_RETURN(TablePtr ta,
                               catalog.GetTable(query.relation(rels[0]).table_name));
      MONSOON_ASSIGN_OR_RETURN(TablePtr tb,
                               catalog.GetTable(query.relation(rels[1]).table_name));
      Schema qa = ta->schema().Qualify(query.relation(rels[0]).alias);
      Schema qb = tb->schema().Qualify(query.relation(rels[1]).alias);
      Schema concat = Schema::Concat(qa, qb);
      MONSOON_ASSIGN_OR_RETURN(BoundTerm bound,
                               BoundTerm::Bind(*term, concat, UdfRegistry::Global()));

      Table pairs(concat);
      const auto& sa = samples[rels[0]];
      const auto& sb = samples[rels[1]];
      uint64_t limit = options_.product_cap;
      for (size_t i = 0; i < sa.size() && pairs.num_rows() < limit; ++i) {
        for (size_t j = 0; j < sb.size() && pairs.num_rows() < limit; ++j) {
          pairs.AppendConcatRow(*ta, sa[i], *tb, sb[j]);
        }
      }
      MONSOON_RETURN_IF_ERROR(ctx->Charge(pairs.num_rows()));
      std::vector<uint64_t> hashes;
      hashes.reserve(pairs.num_rows());
      ForEachTermHash(bound, pairs, UdfRows::Range(0, pairs.num_rows()),
                      &scratch, [&](uint64_t h) { hashes.push_back(h); });
      SampleProfile profile = SampleProfile::FromHashes(hashes);
      double population = static_cast<double>(ta->num_rows()) *
                          static_cast<double>(tb->num_rows());
      double estimate = EstimateDistinctGee(
          profile, static_cast<uint64_t>(std::min(population, 1e18)));
      stats->SetDistinctObserved(term->term_id, ExprSig::Of(term->rels, 0),
                                 std::round(estimate));
      ++result->stats_collections;
    }
    return Status::OK();
  }

  StatusOr<PlanNode::Ptr> Plan(const QuerySpec& query,
                               StatsStore* stats) const override {
    CardinalityModel::Options options;
    options.missing_policy = MissingStatPolicy::kDefaultFraction;
    CardinalityModel model(query, stats, options);
    return DpOptimizer().Optimize(query, &model);
  }

 private:
  SamplingOptions options_;
};

// --- SkinnerDB (Skinner-G proxy) ----------------------------------------------

class SkinnerStrategy : public Strategy {
 public:
  explicit SkinnerStrategy(SkinnerOptions options) : options_(options) {}

  std::string name() const override { return "SkinnerDB"; }

  RunResult Run(const Catalog& catalog, const QuerySpec& query,
                uint64_t work_budget) const override {
    RunResult result;
    WallTimer total;
    result.status = RunGuarded(
        [&] { return RunImpl(catalog, query, work_budget, &result); });
    result.total_seconds = total.Seconds();
    return result;
  }

 private:
  // UCT node over left-deep order prefixes.
  struct OrderNode {
    int visits = 0;
    double total_reward = 0;
    std::map<int, std::unique_ptr<OrderNode>> children;  // next relation
  };

  Status RunImpl(const Catalog& catalog, const QuerySpec& query,
                 uint64_t work_budget, RunResult* result) const {
    MONSOON_RETURN_IF_ERROR(catalog.ValidateQuery(query));
    int n = query.num_relations();
    Pcg32 rng(options_.seed);
    OrderNode root;
    uint64_t total_work = 0;
    uint64_t total_objects = 0;
    uint64_t slice = options_.initial_slice;
    int episode = 0;

    Executor executor(query, &UdfRegistry::Global());

    for (;; ++episode) {
      if (episode > 0 && episode % options_.episodes_per_level == 0) slice *= 2;

      // Select a full left-deep order by UCT descent.
      std::vector<int> order;
      OrderNode* node = &root;
      std::vector<OrderNode*> path = {node};
      RelSet chosen;
      while (static_cast<int>(order.size()) < n) {
        int next = SelectNext(query, chosen, node, rng);
        order.push_back(next);
        chosen.Add(next);
        auto [it, inserted] = node->children.emplace(next, nullptr);
        if (inserted || it->second == nullptr) {
          it->second = std::make_unique<OrderNode>();
        }
        node = it->second.get();
        path.push_back(node);
      }

      // Execute the order within this episode's slice. Skinner-G cannot
      // reuse partial batch results, so failed episodes discard all work.
      PlanNode::Ptr plan = LeftDeepPlan(query, order);
      MONSOON_ASSIGN_OR_RETURN(MaterializedStore store,
                               MaterializedStore::ForQuery(catalog, query));
      ExecContext episode_ctx(slice);
      WallTimer timer;
      StatusOr<ExecResult> exec_or = executor.Execute(plan, &store, &episode_ctx);
      result->exec_seconds += timer.Seconds();
      total_work += episode_ctx.work_units();
      total_objects += episode_ctx.objects_processed();
      result->execute_rounds += 1;
      result->objects_processed = total_objects;
      result->work_units = total_work;

      if (exec_or.ok()) {
        ExecResult exec = std::move(exec_or).value();
        PropagateDegraded(&exec, result);
        result->result_rows = exec.output.table->num_rows();
        result->result_table = exec.output.table;
        return Status::OK();
      }
      if (exec_or.status().code() != StatusCode::kResourceExhausted) {
        return std::move(exec_or).status();
      }
      // Episode timed out inside its slice: reward shrinks with the
      // blow-up the order exhibited before hitting the slice.
      double reward =
          1.0 - std::min<double>(1.0, static_cast<double>(
                                          episode_ctx.objects_processed()) /
                                          static_cast<double>(slice));
      for (OrderNode* p : path) {
        p->visits += 1;
        p->total_reward += reward;
      }
      if (work_budget != 0 && total_work > work_budget) {
        return Status::ResourceExhausted("SkinnerDB exceeded the query budget");
      }
    }
  }

  int SelectNext(const QuerySpec& query, RelSet chosen, OrderNode* node,
                 Pcg32& rng) const {
    // Candidates: connected relations first (no cross product), as in
    // Skinner's join-order space.
    std::vector<int> candidates;
    for (int i = 0; i < query.num_relations(); ++i) {
      if (chosen.Contains(i)) continue;
      if (chosen.empty() ||
          AreConnected(query, ExprSig::Of(chosen, 0), ExprSig::Of(RelSet::Single(i), 0))) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) {
      for (int i = 0; i < query.num_relations(); ++i) {
        if (!chosen.Contains(i)) candidates.push_back(i);
      }
    }
    // UCT over the children; unvisited candidates first (random order).
    std::vector<int> unvisited;
    for (int c : candidates) {
      auto it = node->children.find(c);
      if (it == node->children.end() || it->second == nullptr ||
          it->second->visits == 0) {
        unvisited.push_back(c);
      }
    }
    if (!unvisited.empty()) {
      return unvisited[rng.NextBounded(static_cast<uint32_t>(unvisited.size()))];
    }
    double best_score = -1;
    int best = candidates[0];
    for (int c : candidates) {
      const OrderNode& child = *node->children.at(c);
      double mean = child.total_reward / child.visits;
      double explore = options_.uct_weight *
                       std::sqrt(std::log(std::max(1, node->visits + 1)) /
                                 child.visits);
      if (mean + explore > best_score) {
        best_score = mean + explore;
        best = c;
      }
    }
    return best;
  }

  static PlanNode::Ptr LeftDeepPlan(const QuerySpec& query,
                                    const std::vector<int>& order) {
    PlanNode::Ptr plan = MakeLeaf(query, order[0]);
    for (size_t i = 1; i < order.size(); ++i) {
      PlanNode::Ptr leaf = MakeLeaf(query, order[i]);
      std::vector<int> preds =
          ApplicableJoinPreds(query, plan->output_sig(), leaf->output_sig());
      plan = PlanNode::Join(plan, leaf, std::move(preds));
    }
    return plan;
  }

  SkinnerOptions options_;
};

// --- Least expected cost --------------------------------------------------------

class LecStrategy : public PlanExecStrategy {
 public:
  explicit LecStrategy(LecOptions options)
      : options_(options), prior_(MakePrior(options.prior)) {}

  std::string name() const override { return "LEC"; }

 protected:
  StatusOr<PlanNode::Ptr> Plan(const QuerySpec& query,
                               StatsStore* stats) const override {
    LecOptimizer::Options options;
    options.scenarios = options_.scenarios;
    options.seed = options_.seed;
    return LecOptimizer(prior_.get(), options).Optimize(query, *stats);
  }

 private:
  LecOptions options_;
  std::unique_ptr<Prior> prior_;
};

// --- Hand-written plans --------------------------------------------------------

class HandPlanStrategy : public Strategy {
 public:
  HandPlanStrategy(std::string name,
                   std::function<StatusOr<PlanNode::Ptr>(const QuerySpec&)> provider)
      : name_(std::move(name)), provider_(std::move(provider)) {}

  std::string name() const override { return name_; }

  RunResult Run(const Catalog& catalog, const QuerySpec& query,
                uint64_t work_budget) const override {
    RunResult result;
    WallTimer total;
    result.status = RunGuarded([&]() -> Status {
      MONSOON_RETURN_IF_ERROR(catalog.ValidateQuery(query));
      MONSOON_ASSIGN_OR_RETURN(PlanNode::Ptr plan, provider_(query));
      ExecContext ctx(work_budget);
      return ExecutePlanTracked(catalog, query, plan, &ctx, &result);
    });
    result.total_seconds = total.Seconds();
    return result;
  }

 private:
  std::string name_;
  std::function<StatusOr<PlanNode::Ptr>(const QuerySpec&)> provider_;
};

}  // namespace

std::unique_ptr<Strategy> MakeFullStatsStrategy() {
  return std::make_unique<FullStatsStrategy>();
}
std::unique_ptr<Strategy> MakeDefaultsStrategy() {
  return std::make_unique<DefaultsStrategy>();
}
std::unique_ptr<Strategy> MakeGreedyStrategy() {
  return std::make_unique<GreedyStrategy>();
}
std::unique_ptr<Strategy> MakeOnDemandStrategy() {
  return std::make_unique<OnDemandStrategy>();
}
std::unique_ptr<Strategy> MakeSamplingStrategy(SamplingOptions options) {
  return std::make_unique<SamplingStrategy>(options);
}
std::unique_ptr<Strategy> MakeSkinnerStrategy(SkinnerOptions options) {
  return std::make_unique<SkinnerStrategy>(options);
}
std::unique_ptr<Strategy> MakeHandPlanStrategy(
    std::string name,
    std::function<StatusOr<PlanNode::Ptr>(const QuerySpec&)> provider) {
  return std::make_unique<HandPlanStrategy>(std::move(name), std::move(provider));
}
std::unique_ptr<Strategy> MakeLecStrategy(LecOptions options) {
  return std::make_unique<LecStrategy>(options);
}

}  // namespace monsoon
