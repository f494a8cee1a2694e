#ifndef MONSOON_EXEC_MATERIALIZED_STORE_H_
#define MONSOON_EXEC_MATERIALIZED_STORE_H_

#include <map>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "exec/udf_cache.h"
#include "plan/plan_node.h"
#include "query/query_spec.h"
#include "storage/table.h"

namespace monsoon {

/// A materialized RA expression: data plus the alias-qualified schema used
/// to resolve UDF arguments against it. The table's own schema carries the
/// same column order; only the names differ (qualified per query alias).
/// A sharded pass splits `table` as stored into even contiguous ranges
/// (DESIGN.md §15).
struct MaterializedExpr {
  ExprSig sig;
  TablePtr table;
  Schema schema;
};

/// The R_e of the MDP state, with actual data attached: every expression
/// that has been executed and materialized so far, keyed by signature.
/// Initialized with the query's base relations.
class MaterializedStore {
 public:
  MaterializedStore()
      : udf_cache_(std::make_shared<UdfColumnCache>(DefaultUdfCacheBytes())) {}

  /// Loads each relation referenced by `query` from the catalog, as stored,
  /// at every shard count. The same base table may back several aliases;
  /// data is shared, schemas are qualified per alias.
  static StatusOr<MaterializedStore> ForQuery(const Catalog& catalog,
                                              const QuerySpec& query);

  StatusOr<const MaterializedExpr*> Lookup(const ExprSig& sig) const;
  bool Contains(const ExprSig& sig) const { return exprs_.count(sig) > 0; }

  void Put(MaterializedExpr expr);

  /// All signatures currently materialized, in deterministic order.
  std::vector<ExprSig> Signatures() const;

  size_t size() const { return exprs_.size(); }

  /// Evaluate-once UDF column cache scoped to this store's expressions;
  /// persists across EXECUTE rounds so re-planned passes over the same
  /// materialized expressions hit instead of re-evaluating UDFs. Budget is
  /// snapshotted from DefaultUdfCacheBytes() at construction.
  UdfColumnCache* udf_cache() const { return udf_cache_.get(); }

  /// Replaces the per-store cache with a shared one (the server installs a
  /// cross-session cache here). Safe across queries: entries are keyed by
  /// exact Table identity, so a colliding signature from another query is
  /// detected as stale and rebuilt rather than served.
  void SetUdfCache(std::shared_ptr<UdfColumnCache> cache) {
    if (cache != nullptr) udf_cache_ = std::move(cache);
  }

 private:
  std::map<ExprSig, MaterializedExpr> exprs_;
  std::shared_ptr<UdfColumnCache> udf_cache_;
};

}  // namespace monsoon

#endif  // MONSOON_EXEC_MATERIALIZED_STORE_H_
