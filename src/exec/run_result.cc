#include "exec/run_result.h"

#include <utility>

namespace monsoon {

const char* RunStatusLabel(const RunResult& result) {
  if (result.ok()) return "ok";
  return result.timed_out() ? "timeout" : "error";
}

obs::QueryReport MakeQueryReport(const RunResult& result, std::string query,
                                 std::string strategy,
                                 obs::MetricsSnapshot metrics) {
  obs::QueryReport report;
  static_cast<obs::RunFigures&>(report) = result;
  report.query = std::move(query);
  report.strategy = std::move(strategy);
  report.status = RunStatusLabel(result);
  report.code = result.status.code();
  if (!result.ok()) report.error = result.status.message();
  report.metrics = std::move(metrics);
  return report;
}

}  // namespace monsoon
