#ifndef MONSOON_EXEC_BATCH_H_
#define MONSOON_EXEC_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/bound_term.h"
#include "exec/flat_compare.h"
#include "storage/table.h"
#include "storage/value.h"

namespace monsoon {

/// A typed flat column of UDF results: int64/double stored flat, strings
/// alongside a precomputed Value::Hash()-identical hash column. The one
/// column type of the executor: the evaluate-once cache (exec/udf_cache.h)
/// publishes whole-expression FlatColumns, and operators own batch-local
/// or whole-side ones for uncached terms (hash-join build and probe keys),
/// so term results are unboxed once per fill instead of boxing a Value
/// per row per use.
class FlatColumn {
 public:
  /// Resets to `n` uninitialized slots of `type`. Slots are written by
  /// Fill; strings are default-constructed so partial fills stay safe.
  void Resize(ValueType type, size_t n);

  /// Evaluates `bound` over rows [row_begin, row_end) of `table`, writing
  /// results to slots [out_begin, out_begin + (row_end - row_begin)).
  /// Disjoint ranges may be filled from different morsels concurrently.
  /// Errors if a produced value disagrees with the column's type (a UDF
  /// that violates its declared result type is a hard error on every
  /// vectorized path).
  Status Fill(const BoundTerm& bound, const Table& table, size_t row_begin,
              size_t row_end, size_t out_begin);

  ValueType type() const { return type_; }
  size_t size() const { return size_; }

  /// Approximate heap footprint: the object, one element per slot, and
  /// the strings' capacities. The cache's byte budget counts this.
  size_t ApproxBytes() const;

  int64_t Int64At(size_t i) const { return int64s_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  const std::string& StringAt(size_t i) const { return strings_[i]; }

  const int64_t* Int64Data() const { return int64s_.data(); }
  const double* DoubleData() const { return doubles_.data(); }
  const std::string* StringData() const { return strings_.data(); }
  const uint64_t* HashData() const { return hashes_.data(); }

 private:
  ValueType type_ = ValueType::kInt64;
  size_t size_ = 0;
  std::vector<int64_t> int64s_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint64_t> hashes_;  // string columns only
};

// The read-only view the hot loops use (FlatView: hash / equality with
// Value-identical semantics) lives in exec/flat_compare.h; its Of() is
// defined in batch.cc.

}  // namespace monsoon

#endif  // MONSOON_EXEC_BATCH_H_
