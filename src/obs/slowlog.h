#ifndef MONSOON_OBS_SLOWLOG_H_
#define MONSOON_OBS_SLOWLOG_H_

#include <cstdint>
#include <fstream>
#include <string>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "obs/report.h"

namespace monsoon::obs {

/// Structured slow-query log: one JSON object per line (JSONL), appended
/// as queries finish. Shared by the server (--slow-log=) and the harness
/// (MONSOON_SLOW_LOG) through FinishQuery. A query is logged when
/// ClassifyQuery against the log's threshold is not kClean — the same
/// classification the tail trace sampler uses, so a logged query's
/// `trace` field (when tail sampling is on) points at its kept trace file.
class SlowQueryLog {
 public:
  /// `slow_us` = 0 logs only retried / degraded / cancelled / failed
  /// queries; any other value additionally logs clean queries at or over
  /// the threshold.
  SlowQueryLog(std::string path, uint64_t slow_us);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Opens the file for append. Not re-entrant with Log.
  Status Open();

  bool open() const { return opened_; }
  uint64_t slow_us() const { return slow_us_; }
  const std::string& path() const { return path_; }

  /// Appends one JSONL line for `report` and flushes; `status` is
  /// "cancelled" for a cancelled query, else the report's. Thread-safe;
  /// drops silently when the log is not open (the open failure was already
  /// reported).
  void Log(const QueryReport& report, uint64_t elapsed_us, QueryReason reason,
           const std::string& trace_path);

  uint64_t entries_written() const;

 private:
  const std::string path_;
  const uint64_t slow_us_;
  bool opened_ = false;

  mutable Mutex log_mu_;
  std::ofstream out_ GUARDED_BY(log_mu_);
  uint64_t entries_ GUARDED_BY(log_mu_) = 0;
};

/// The one query-end routine of the harness and the server. Ends the
/// tail-trace scope `tail_serial` (0 = tail sampling off) with the query's
/// classification at the sampler's threshold, then logs it to `slow_log`
/// (may be null) when its classification at the log's threshold keeps it.
/// Returns the kept trace path, "" when there is none.
std::string FinishQuery(uint64_t tail_serial, const QueryReport& report,
                        uint64_t elapsed_us, SlowQueryLog* slow_log);

}  // namespace monsoon::obs

#endif  // MONSOON_OBS_SLOWLOG_H_
