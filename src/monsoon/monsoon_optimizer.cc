#include "monsoon/monsoon_optimizer.h"

#include <exception>
#include <map>
#include <memory>

#include "common/env.h"
#include "fault/cancellation.h"
#include "mcts/root_parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/runtime.h"

namespace monsoon {

namespace {

/// Safety cap on real-world decisions.
constexpr int kMaxDecisions = 128;

}  // namespace

MonsoonOptimizer::MonsoonOptimizer(const Catalog* catalog, Options options)
    : catalog_(catalog), options_(options) {
  if (options_.deadline_ms == 0) {
    // Read once per process, so a bad value is reported once.
    static const uint64_t env_deadline_ms =
        EnvNumber("MONSOON_DEADLINE_MS", 0, kWideRange);
    options_.deadline_ms = env_deadline_ms;
  }
}

RunResult MonsoonOptimizer::Run(const QuerySpec& query) const {
  RunResult result;
  WallTimer total;
  // Fault-point retries are invisible to ExecContext (the injector retries
  // inside FirePoint), so the run's share is a registry-counter delta.
  // Concurrent sessions can attribute each other's retries here; that only
  // over-reports "this query recovered from faults", which is the
  // conservative direction for the slow log's `retried` reason.
  obs::Counter* const retries_metric =
      obs::Registry::Global().GetCounter("faults.retries");
  const uint64_t retries_before = retries_metric->Value();
  // Exceptions (kThrow fault injections, rethrown task-group failures)
  // are contained here so a faulty UDF can never unwind past the harness.
  try {
    result.status = RunImpl(query, &result);
  } catch (const std::exception& e) {
    result.status =
        Status::Internal(std::string("uncaught exception: ") + e.what());
  }
  result.fault_retries = retries_metric->Value() - retries_before;
  result.total_seconds = total.Seconds();
  return result;
}

Status MonsoonOptimizer::RunImpl(const QuerySpec& query, RunResult* result) const {
  MONSOON_RETURN_IF_ERROR(catalog_->ValidateQuery(query));
  MONSOON_ASSIGN_OR_RETURN(MaterializedStore store,
                           MaterializedStore::ForQuery(*catalog_, query));
  store.SetUdfCache(options_.udf_cache);

  std::unique_ptr<Prior> prior = MakePrior(options_.prior);
  QueryMdp mdp(query, prior.get(), options_.mdp);

  // Base relation sizes are always known (Sec. 4.1).
  std::map<ExprSig, double> base_counts;
  for (int i = 0; i < query.num_relations(); ++i) {
    MONSOON_ASSIGN_OR_RETURN(uint64_t rows,
                             catalog_->RowCount(query.relation(i).table_name));
    base_counts[ExprSig::Of(RelSet::Single(i), 0)] = static_cast<double>(rows);
  }
  MdpState state = mdp.InitialState(
      options_.warm_stats != nullptr ? *options_.warm_stats : StatsStore(),
      base_counts);

  Executor executor(query, &UdfRegistry::Global());
  ExecContext ctx(options_.work_budget);
  fault::CancellationToken local_token;
  fault::CancellationToken* cancel_token =
      options_.cancel_token != nullptr ? options_.cancel_token : &local_token;
  if (options_.deadline_ms > 0) {
    cancel_token->SetDeadlineMs(options_.deadline_ms);
  }
  ctx.SetCancelToken(cancel_token);

  auto run_execute = [&](const std::vector<PlanNode::Ptr>& planned) -> Status {
    static obs::Counter* const executes_metric =
        obs::Registry::Global().GetCounter("mdp.executes");
    executes_metric->Add(1);
    obs::TraceSpan span("mdp", "execute");
    span.Arg("trees", static_cast<uint64_t>(planned.size()));
    uint64_t objects_before = ctx.objects_processed();
    WallTimer exec_timer;
    double stats_before = ctx.stats_collect_seconds();
    // The observed R_e and S form the next epoch, with its facts derived
    // the way a simulated EXECUTE's are.
    auto next = std::make_shared<MdpEpoch>(*state.epoch);
    StatsStore& stats = next->mutable_stats();
    ExecutedSet& executed = next->mutable_executed();
    for (const PlanNode::Ptr& tree : planned) {
      StatusOr<ExecResult> exec_or = executor.Execute(tree, &store, &ctx);
      if (!exec_or.ok()) {
        // Keep the accounting that accumulated up to the failure
        // (timeouts report partial work).
        CaptureAccounting(ctx, result);
        result->exec_seconds += exec_timer.Seconds();
        return exec_or.status();
      }
      ExecResult exec = std::move(exec_or).value();
      // Σ passes skipped on transient faults degrade the run instead of
      // failing it: the MDP keeps planning those terms from the prior.
      if (!exec.degraded.empty()) {
        static obs::Counter* const degraded_metric =
            obs::Registry::Global().GetCounter("faults.degraded_runs");
        if (!result->degraded) degraded_metric->Add(1);
        result->degraded = true;
        for (std::string& reason : exec.degraded) {
          result->action_log.push_back("DEGRADED: " + reason);
          result->degraded_reasons.push_back(std::move(reason));
        }
      }
      // Harden observed statistics into S, mirroring the simulated
      // transition: every node cardinality, plus Σ distinct counts as
      // partner-independent observations.
      for (const auto& [sig, rows] : exec.observed_counts) {
        stats.SetCount(sig, static_cast<double>(rows));
      }
      for (const DistinctObservation& obs : exec.observed_distincts) {
        stats.SetDistinctObserved(obs.term_id, obs.expr, obs.distinct_count);
        ++result->stats_collections;
      }
      ExprSig sig = tree->output_sig();
      executed[sig] = static_cast<double>(exec.output.table->num_rows());
      stats.SetCount(sig, static_cast<double>(exec.output.table->num_rows()));
    }
    double elapsed = exec_timer.Seconds();
    mdp.DeriveFacts(next.get());
    state.epoch = std::move(next);
    double stats_delta = ctx.stats_collect_seconds() - stats_before;
    result->stats_seconds += stats_delta;
    result->exec_seconds += elapsed - stats_delta;
    ++result->execute_rounds;
    uint64_t objects_delta = ctx.objects_processed() - objects_before;
    // Realized reward of the EXECUTE, in the MDP's sign convention
    // (negated object cost, Sec. 4.4).
    span.Arg("objects", objects_delta)
        .Arg("realized_return", -static_cast<double>(objects_delta));
    return Status::OK();
  };

  static obs::Counter* const decisions_metric =
      obs::Registry::Global().GetCounter("mdp.decisions");

  int decision = 0;
  while (!mdp.IsTerminal(state)) {
    MONSOON_RETURN_IF_ERROR(cancel_token->Check());
    if (decision++ >= kMaxDecisions) {
      return Status::Internal("exceeded the decision cap without finishing");
    }
    decisions_metric->Add(1);
    obs::TraceSpan step_span("mdp", "step");
    step_span.Arg("decision", decision)
        .Arg("planned", static_cast<uint64_t>(state.planned.size()));
    std::vector<MdpAction> legal = mdp.LegalActions(state);
    step_span.Arg("legal", static_cast<uint64_t>(legal.size()));
    if (legal.empty()) {
      // Degenerate query (e.g. single relation with only selections):
      // execute the goal expression directly.
      std::vector<PlanNode::Ptr> direct;
      if (query.num_relations() == 1) {
        direct.push_back(mdp.LeafFor(ExprSig::Of(RelSet::Single(0), 0)));
        step_span.Arg("action", "EXECUTE(direct)");
        step_span.End();
        MONSOON_RETURN_IF_ERROR(run_execute(direct));
        continue;
      }
      return Status::Internal("no legal action from a non-terminal state");
    }

    MdpAction action;
    if (legal.size() == 1) {
      action = legal[0];
    } else {
      WallTimer mcts_timer;
      MctsSearch::Options mcts_options = options_.mcts;
      mcts_options.seed = options_.seed + 0x9e37 * static_cast<uint64_t>(decision);
      mcts_options.cancel_token = cancel_token;
      RootParallelMcts::Options rp_options;
      rp_options.search = mcts_options;
      rp_options.workers = options_.mcts_workers > 0
                               ? options_.mcts_workers
                               : parallel::EffectiveMctsWorkers();
      RootParallelMcts search(&mdp, rp_options, parallel::SharedPool());
      obs::TraceSpan search_span("mcts", "search");
      MONSOON_ASSIGN_OR_RETURN(action, search.SearchBestAction(state));
      if (search_span.enabled()) {
        const MctsSearch::SearchInfo& info = search.last_info();
        search_span.Arg("workers", rp_options.workers)
            .Arg("iterations", info.iterations_run)
            .Arg("tree_nodes", static_cast<uint64_t>(info.tree_nodes))
            .Arg("best_visits", info.best_visits)
            .Arg("predicted_return", info.best_mean_return);
        // The merged root's mean return is the search's prediction for the
        // committed action; mdp/execute spans carry the realized return.
        step_span.Arg("predicted_return", info.best_mean_return);
      }
      search_span.End();
      result->plan_seconds += mcts_timer.Seconds();
    }
    result->action_log.push_back(action.ToString(query));
    if (step_span.enabled()) {
      step_span.Arg("action", action.ToString(query));
    }
    step_span.End();

    if (action.IsExecute()) {
      // R_p is flat inside the MDP; only the trees this EXECUTE runs are
      // turned into PlanNode trees for the executor.
      std::vector<PlanNode::Ptr> trees;
      for (size_t i = 0; i < state.planned.size(); ++i) trees.push_back(state.planned[i]);
      MONSOON_RETURN_IF_ERROR(run_execute(trees));
      state.planned.clear();
    } else {
      MONSOON_ASSIGN_OR_RETURN(state, mdp.ApplyPlanAction(state, action));
    }
  }

  MONSOON_ASSIGN_OR_RETURN(const MaterializedExpr* final_expr,
                           store.Lookup(mdp.GoalSig()));
  result->result_rows = final_expr->table->num_rows();
  result->result_table = final_expr->table;
  CaptureAccounting(ctx, result);
  if (options_.learned_stats_out != nullptr) {
    *options_.learned_stats_out = state.epoch->stats();
  }
  return Status::OK();
}

}  // namespace monsoon
