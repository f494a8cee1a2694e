#ifndef MONSOON_EXEC_BATCH_H_
#define MONSOON_EXEC_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/bound_term.h"
#include "exec/exec_context.h"
#include "exec/flat_compare.h"
#include "storage/table.h"
#include "storage/value.h"

namespace monsoon {

/// A typed flat column of UDF results: int64/double stored flat, strings
/// alongside a precomputed Value::Hash()-identical hash column. The one
/// column type of the executor: the evaluate-once cache (exec/udf_cache.h)
/// publishes whole-expression FlatColumns, and operators own batch-local
/// or whole-side ones for uncached terms (hash-join build and probe keys),
/// so the UDF's kernel writes typed results straight into them and no
/// Value is boxed per row.
class FlatColumn {
 public:
  /// Resets to `n` uninitialized slots of `type`. Slots are written by
  /// Fill; a string slot always holds a valid string, so partial fills stay
  /// safe, and a batch-local column resized to its own type keeps its
  /// strings' buffers for the next fill to reuse.
  void Resize(ValueType type, size_t n);

  /// Evaluates `bound` over `rows` of `table` in one kernel call, writing
  /// the i-th row's result to slot out_begin + i. The column's type must
  /// be the term's result type. Disjoint slot ranges may be filled from
  /// different morsels concurrently. Every UDF evaluation in the engine
  /// goes through here.
  void Fill(const BoundTerm& bound, const Table& table, UdfRows rows,
            size_t out_begin);

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

/// Evaluates `bound` over `rows` of `table` into the batch-local `col`,
/// slot i for the i-th row, in one kernel call.
inline FlatView FillBatchColumn(const BoundTerm& bound, const Table& table,
                                UdfRows rows, FlatColumn* col) {
  col->Resize(bound.result_type(), rows.n);
  col->Fill(bound, table, rows, 0);
  return FlatView::Of(*col);
}

/// Calls fn(h) with h = Value::Hash() of `bound` at each of `rows` of
/// `table`, in order, filling `scratch` one kBatchRows chunk per kernel
/// call (Σ passes and statistics collection consume each value once).
template <typename Fn>
void ForEachTermHash(const BoundTerm& bound, const Table& table, UdfRows rows,
                     FlatColumn* scratch, Fn&& fn) {
  for (size_t done = 0; done < rows.n; done += kBatchRows) {
    const size_t n = std::min(kBatchRows, rows.n - done);
    const FlatView view = FillBatchColumn(
        bound, table,
        rows.ids != nullptr
            ? UdfRows::Ids(rows.ids + done, n)
            : UdfRows::Range(rows.begin + done, rows.begin + done + n),
        scratch);
    for (size_t i = 0; i < n; ++i) fn(view.HashAt(i));
  }
}

}  // namespace monsoon

#endif  // MONSOON_EXEC_BATCH_H_
