#ifndef MONSOON_TOOLS_ANALYZE_ANALYSIS_H_
#define MONSOON_TOOLS_ANALYZE_ANALYSIS_H_

#include <string>
#include <vector>

#include "rules.h"

namespace monsoon::analyze {

/// Names of the dataflow passes, in diagnostic-emission order.
///
/// Passes (scope in parentheses):
///   monsoon-analyze-must-poll   (src/exec/, src/parallel/)  every loop that
///                    iterates rows/morsels must reach a cancellation poll
///                    (CheckCancelled / CancellationToken::Check / a call
///                    that polls internally: ParallelFor, ForEachBatch) on
///                    every path through its body that runs another
///                    iteration. Loops nested inside another row loop are
///                    exempt (the outer iteration is the poll boundary), as
///                    are *Batch functions (ForEachBatch polls per batch).
///   monsoon-analyze-lock-scope  (src/, tools/)  tracks live RAII guard
///                    scopes (MutexLock / MutexLockRanked / lock_guard /
///                    unique_lock / scoped_lock) through the statement tree
///                    and flags (a) blocking calls — socket I/O, pool
///                    waits/submission, UDF evaluation — while any lock is
///                    live (CondVar waits are exempt: they release the
///                    mutex), and (b) acquisitions that violate the
///                    descending lock_ranks.h order on nested scopes.
///                    Supersedes the token-level monsoon-lock-rank and
///                    monsoon-server rules.
///   monsoon-analyze-status-flow (src/exec|parallel|monsoon|server|fault/)
///                    a local Status/StatusOr initialized or assigned from
///                    a real call must be consumed on every path: returned,
///                    tested (.ok()/IsTransient), passed to a call/macro,
///                    or explicitly discarded. Catches the alias gaps
///                    [[nodiscard]] misses (value parked in a local, then
///                    dropped on one branch or overwritten).
///   monsoon-analyze-accounting  (src/exec/)  a function that takes an
///                    ExecContext and appends output rows must charge the
///                    cost-model counters (Charge / ChargeWork / a morsel
///                    tally) on every entry->exit path that appends.
///
/// Diagnostics use the shared lint::Diagnostic shape and are suppressible
/// with NOLINT(monsoon-analyze-<pass>) on the reported line.
std::vector<std::string> PassNames();

/// Runs every pass over `files` and returns findings sorted by
/// (path, line, rule). NOLINT suppressions are already applied.
std::vector<lint::Diagnostic> AnalyzeFiles(
    const std::vector<lint::SourceFile>& files);

}  // namespace monsoon::analyze

#endif  // MONSOON_TOOLS_ANALYZE_ANALYSIS_H_
