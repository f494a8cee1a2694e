#ifndef MONSOON_EXEC_RUN_RESULT_H_
#define MONSOON_EXEC_RUN_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "storage/table.h"

namespace monsoon {

/// Everything a strategy run reports; shared by Monsoon and the baselines
/// so the harness can tabulate them uniformly. The reported figures live
/// in obs::RunFigures, which QueryReport shares.
struct RunResult : obs::RunFigures {
  Status status;          // OK, or ResourceExhausted on timeout
  TablePtr result_table;  // the joined result (null on failure)
  std::vector<std::string> action_log;

  bool ok() const { return status.ok(); }
  bool timed_out() const {
    return status.code() == StatusCode::kResourceExhausted ||
           status.code() == StatusCode::kDeadlineExceeded;
  }
};

/// The run-status spelling every surface uses (run report, harness CSV,
/// slow log, server reply): "ok", "timeout" or "error".
const char* RunStatusLabel(const RunResult& result);

/// Flattens a finished run into the one record the run report, the slow
/// log, the tail sampler and the server reply all read. `query` and
/// `strategy` name the run (see obs::QueryReport); `metrics` is the
/// registry delta attributed to it, when the caller measured one.
obs::QueryReport MakeQueryReport(const RunResult& result, std::string query,
                                 std::string strategy,
                                 obs::MetricsSnapshot metrics = {});

}  // namespace monsoon

#endif  // MONSOON_EXEC_RUN_RESULT_H_
