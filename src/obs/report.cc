#include "obs/report.h"

#include "obs/json.h"

namespace monsoon::obs {

namespace {

void WriteHistogram(JsonWriter& writer, const HistogramSnapshot& snap) {
  writer.BeginObject();
  writer.KV("count", snap.count);
  writer.KV("sum", snap.sum);
  writer.Key("buckets");
  writer.BeginArray();
  for (size_t i = 0; i < snap.buckets.size(); ++i) {
    if (snap.buckets[i] == 0) continue;
    writer.BeginArray();
    writer.Uint(Histogram::BucketLowerBound(i));
    writer.Uint(snap.buckets[i]);
    writer.EndArray();
  }
  writer.EndArray();
  writer.EndObject();
}

}  // namespace

QueryReason ClassifyQuery(const QueryReport& report, uint64_t elapsed_us,
                          uint64_t slow_us) {
  if (report.code == StatusCode::kCancelled) return QueryReason::kCancelled;
  if (report.code != StatusCode::kOk) return QueryReason::kError;
  if (report.degraded) return QueryReason::kDegraded;
  if (report.fault_retries > 0 || report.shard_retries > 0) {
    return QueryReason::kRetried;
  }
  if (slow_us > 0 && elapsed_us >= slow_us) return QueryReason::kSlow;
  return QueryReason::kClean;
}

const char* QueryReasonName(QueryReason reason) {
  static constexpr const char* kNames[] = {"clean",    "slow",  "retried",
                                           "degraded", "error", "cancelled"};
  return kNames[static_cast<int>(reason)];
}

void WriteMetricsJson(JsonWriter& writer, const MetricsSnapshot& snap) {
  writer.BeginObject();
  writer.Key("counters");
  writer.BeginObject();
  for (const auto& [name, value] : snap.counters) {
    writer.KV(name, value);
  }
  writer.EndObject();
  writer.Key("gauges");
  writer.BeginObject();
  for (const auto& [name, value] : snap.gauges) {
    writer.KV(name, value);
  }
  writer.EndObject();
  writer.Key("histograms");
  writer.BeginObject();
  for (const auto& [name, histogram] : snap.histograms) {
    writer.Key(name);
    WriteHistogram(writer, histogram);
  }
  writer.EndObject();
  writer.EndObject();
}

void WriteRunReport(std::ostream& out, const std::vector<QueryReport>& queries,
                    const MetricsSnapshot& registry) {
  JsonWriter writer(out);
  writer.BeginObject();
  writer.KV("monsoon_run_report", static_cast<int64_t>(1));
  writer.Key("queries");
  writer.BeginArray();
  for (const QueryReport& q : queries) {
    writer.BeginObject();
    writer.KV("query", q.query);
    writer.KV("strategy", q.strategy);
    writer.KV("status", q.status);
    writer.KV("result_rows", q.result_rows);
    writer.KV("objects_processed", q.objects_processed);
    writer.KV("work_units", q.work_units);
    writer.Key("seconds");
    writer.BeginObject();
    writer.KV("total", q.total_seconds);
    writer.KV("plan", q.plan_seconds);
    writer.KV("stats", q.stats_seconds);
    writer.KV("exec", q.exec_seconds);
    double other =
        q.total_seconds - q.plan_seconds - q.stats_seconds - q.exec_seconds;
    writer.KV("other", other > 0 ? other : 0.0);
    writer.EndObject();
    writer.KV("degraded", q.degraded);
    if (q.degraded) {
      writer.Key("degraded_reasons");
      writer.BeginArray();
      for (const std::string& reason : q.degraded_reasons) writer.String(reason);
      writer.EndArray();
    }
    writer.KV("execute_rounds", q.execute_rounds);
    writer.KV("stats_collections", q.stats_collections);
    writer.Key("udf_cache");
    writer.BeginObject();
    writer.KV("hits", q.udf_cache_hits);
    writer.KV("misses", q.udf_cache_misses);
    writer.KV("bytes", q.udf_cache_bytes);
    uint64_t lookups = q.udf_cache_hits + q.udf_cache_misses;
    writer.KV("hit_rate",
              lookups == 0
                  ? 0.0
                  : static_cast<double>(q.udf_cache_hits) /
                        static_cast<double>(lookups));
    writer.EndObject();
    writer.Key("recovery");
    writer.BeginObject();
    writer.KV("fault_retries", q.fault_retries);
    writer.KV("shard_retries", q.shard_retries);
    writer.KV("shard_failures", q.shard_failures);
    writer.KV("shard_recoveries", q.shard_recoveries);
    writer.EndObject();
    writer.Key("metrics");
    WriteMetricsJson(writer, q.metrics);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("registry");
  WriteMetricsJson(writer, registry);
  writer.EndObject();
  out << "\n";
}

}  // namespace monsoon::obs
