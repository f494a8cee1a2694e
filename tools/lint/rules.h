#ifndef MONSOON_TOOLS_LINT_RULES_H_
#define MONSOON_TOOLS_LINT_RULES_H_

#include <string>
#include <vector>

#include "lexer.h"

namespace monsoon::lint {

/// One finding. Rendered as "path:line: [rule] message".
struct Diagnostic {
  std::string path;
  int line = 0;
  std::string rule;     // e.g. "monsoon-rng"
  std::string message;
};

/// A file handed to the linter: `path` is repo-relative with '/' separators
/// (rule scoping keys on it), `text` is the raw source.
struct SourceFile {
  std::string path;
  std::string text;
};

/// Names of every implemented rule, in diagnostic-emission order.
std::vector<std::string> RuleNames();

/// Runs every rule over `files` and returns findings sorted by
/// (path, line, rule). NOLINT suppressions are already applied.
///
/// Rules (scope in parentheses):
///   monsoon-rng         (src/, tools/)  no std::rand / random_device /
///                       mt19937 etc.; randomness must come from Pcg32
///                       seeded with seed + worker_id (common/random.h).
///   monsoon-accounting  (everywhere)    the MONSOON cost-model counters
///                       (objects_processed_, work_units_) may only be
///                       touched inside src/exec/exec_context.h.
///   monsoon-obs         (src/ minus src/obs/)  no hand-rolled telemetry
///                       counters (plain arithmetic members named *_hits_,
///                       *_units_, *_seconds_, ...); use the obs:: metrics
///                       types so they land in snapshots and run reports.
///   monsoon-thread      (src/ minus src/parallel/, src/server/)  no
///                       std::thread / std::async / std::jthread;
///                       parallelism goes through parallel::ThreadPool
///                       (the server's accept / per-connection threads
///                       block on sockets, which pool tasks must not).
///   monsoon-raw-new     (src/)          no raw new / delete expressions;
///                       use make_unique / make_shared (deliberately leaked
///                       singletons carry a NOLINT).
///   monsoon-status      (src/exec/, src/parallel/, src/monsoon/)  no
///                       'throw': the execution stack propagates errors as
///                       Status so cancellation / retries / degradation see
///                       them (src/fault/ may throw — the kThrow injection
///                       kind exercises exception containment); and in
///                       src/common/status.h, Status / StatusOr must be
///                       declared [[nodiscard]].
///   monsoon-pinned-get  (src/exec/)     no .get() on cache-pinned column
///                       shared_ptrs — a raw pointer escapes the pin and
///                       dangles after eviction.
///   monsoon-batch       (src/exec/)     no per-row Value boxing inside
///                       the body of a batch function (name containing
///                       "Batch": ScanBatch, ProbeBatch, ...);
///                       batches carry typed columns — use FlatColumn /
///                       FlatView from exec/batch.h.
///   monsoon-include     (src/, tools/)  headers carry MONSOON_<PATH>_H_
///                       guards, a .cc includes its own header first, and
///                       quoted includes must be acyclic.
///
/// Lock-scope invariants (descending lock_ranks.h acquisition order, no
/// blocking call or socket I/O under a held guard) used to live here as
/// the token-level monsoon-lock-rank / monsoon-server rules; they are now
/// the flow-sensitive monsoon-analyze-lock-scope pass in tools/analyze.
std::vector<Diagnostic> LintFiles(const std::vector<SourceFile>& files);

}  // namespace monsoon::lint

#endif  // MONSOON_TOOLS_LINT_RULES_H_
