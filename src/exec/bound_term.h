#ifndef MONSOON_EXEC_BOUND_TERM_H_
#define MONSOON_EXEC_BOUND_TERM_H_

#include <vector>

#include "common/status.h"
#include "expr/udf.h"
#include "query/query_spec.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace monsoon {

/// A UDF term resolved against a concrete schema: function pointer plus
/// argument column indices. Binding happens once per operator, evaluation
/// once per row (or once per expression when the UDF column cache holds
/// the term's materialized output; see exec/udf_cache.h).
class BoundTerm {
 public:
  static StatusOr<BoundTerm> Bind(const UdfTerm& term, const Schema& schema,
                                  const UdfRegistry& registry);

  Value Eval(const Table& table, size_t row) const {
    return fn_->fn(RowRef(&table, row), arg_cols_);
  }

  ValueType result_type() const { return fn_->result_type; }

  /// The term's identity for caching: the UDF plus its argument columns.
  const UdfFunction* function() const { return fn_; }
  const std::vector<size_t>& arg_cols() const { return arg_cols_; }

 private:
  const UdfFunction* fn_ = nullptr;
  std::vector<size_t> arg_cols_;
};

}  // namespace monsoon

#endif  // MONSOON_EXEC_BOUND_TERM_H_
