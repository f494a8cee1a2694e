#ifndef MONSOON_TOOLS_LINT_LOCK_RANKS_H_
#define MONSOON_TOOLS_LINT_LOCK_RANKS_H_

#include <map>
#include <string>

namespace monsoon::lint {

/// Lock-rank table for the monsoon-analyze-lock-scope pass (tools/analyze;
/// this header stays with the lint lexer so both tools build from one
/// static-analysis base). Locks must be acquired
/// in strictly DESCENDING rank order, and no blocking call (a condition
/// wait, ThreadPool::Submit, or ThreadPool::TryRunOne, which may execute
/// an arbitrary queued task) may run while any lock is held.
///
/// Keys are the literal guard-argument spelling at the acquisition site
/// (`MutexLock lock(queue_mu_)` -> "queue_mu_"), which is what a syntactic
/// checker can see. Same-named members in different classes therefore share
/// a rank.
///
///   rank 48  conns_mu_      QueryServer connection registry (outermost:
///                           held only in accept/reap/shutdown paths)
///   rank 46  sessions_mu_   QueryServer active-session token map
///   rank 44  admission_mu_  AdmissionController slot accounting
///   rank 40  rt.mu          parallel::Runtime config/pool registry
///   rank 35  memo_mu_       SharedServerState stats memo (leaf on the
///                           server side; never held across pool work)
///   rank 30  mu_            UdfColumnCache tables
///   rank 20  queue_mu_      ThreadPool task queue and shutdown flag
///                           (innermost)
inline const std::map<std::string, int>& LockRankTable() {
  static const std::map<std::string, int> table = {
      {"conns_mu_", 48}, {"sessions_mu_", 46}, {"admission_mu_", 44},
      {"rt.mu", 40},     {"memo_mu_", 35},     {"mu_", 30},
      {"queue_mu_", 20},
  };
  return table;
}

}  // namespace monsoon::lint

#endif  // MONSOON_TOOLS_LINT_LOCK_RANKS_H_
