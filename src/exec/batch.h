#ifndef MONSOON_EXEC_BATCH_H_
#define MONSOON_EXEC_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/bound_term.h"
#include "exec/flat_compare.h"
#include "exec/udf_cache.h"
#include "storage/table.h"
#include "storage/value.h"

namespace monsoon {

/// A typed flat column of UDF results, batch-local or whole-side: the same
/// representation as the evaluate-once CachedUdfColumn (int64/double flat,
/// strings alongside a precomputed Value::Hash()-identical hash column),
/// but owned by one operator instead of the cache. The batch executor uses
/// it to unbox uncached term results once per fill instead of boxing a
/// Value per row per use (hash-join build and probe keys).
class FlatColumn {
 public:
  /// Resets to `n` uninitialized slots of `type`. Slots are written by
  /// Fill; strings are default-constructed so partial fills stay safe.
  void Resize(ValueType type, size_t n);

  /// Evaluates `bound` over rows [row_begin, row_end) of `table`, writing
  /// results to slots [out_begin, out_begin + (row_end - row_begin)).
  /// Disjoint ranges may be filled from different morsels concurrently.
  /// Errors if a produced value disagrees with the column's type — the
  /// same contract as the UDF cache fill (a UDF that violates its declared
  /// result type is a hard error on every vectorized path).
  Status Fill(const BoundTerm& bound, const Table& table, size_t row_begin,
              size_t row_end, size_t out_begin);

  ValueType type() const { return type_; }
  size_t size() const { return size_; }

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

// The uniform read-only view over either flat representation (FlatView:
// hash / equality / three-way compare with Value-identical semantics)
// lives in exec/flat_compare.h, shared with the UDF cache; its Of()
// constructors are defined in batch.cc.

}  // namespace monsoon

#endif  // MONSOON_EXEC_BATCH_H_
