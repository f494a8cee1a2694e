#include "exec/materialized_store.h"

#include "common/check.h"

namespace monsoon {

StatusOr<MaterializedStore> MaterializedStore::ForQuery(const Catalog& catalog,
                                                        const QuerySpec& query) {
  MaterializedStore store;
  for (int i = 0; i < query.num_relations(); ++i) {
    const RelationRef& rel = query.relation(i);
    MONSOON_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(rel.table_name));
    MaterializedExpr expr;
    expr.sig = ExprSig::Of(RelSet::Single(i), 0);
    expr.schema = table->schema().Qualify(rel.alias);
    expr.table = std::move(table);
    store.Put(std::move(expr));
  }
  return store;
}

StatusOr<const MaterializedExpr*> MaterializedStore::Lookup(const ExprSig& sig) const {
  auto it = exprs_.find(sig);
  if (it == exprs_.end()) {
    return Status::NotFound("expression not materialized: " + sig.ToString());
  }
  return &it->second;
}

void MaterializedStore::Put(MaterializedExpr expr) {
  // A store entry is the anchor for positional UDF cache columns — a null
  // table here would fault on the next GetOrBuild over this signature.
  MONSOON_DCHECK(expr.table != nullptr)
      << "materialized " << expr.sig.ToString() << " without a table";
  exprs_[expr.sig] = std::move(expr);
}

std::vector<ExprSig> MaterializedStore::Signatures() const {
  std::vector<ExprSig> sigs;
  sigs.reserve(exprs_.size());
  for (const auto& [sig, expr] : exprs_) sigs.push_back(sig);
  return sigs;
}

}  // namespace monsoon
