#ifndef MONSOON_EXEC_FLAT_COMPARE_H_
#define MONSOON_EXEC_FLAT_COMPARE_H_

#include <cstdint>
#include <string>

#include "storage/value.h"

namespace monsoon {

class FlatColumn;  // exec/batch.h

/// Read-only view over a typed FlatColumn (cache-pinned or operator-owned),
/// so the per-type hash / equality switches are written exactly once. The
/// column stores int64/double flat and strings alongside a precomputed
/// Value::Hash()-identical hash column, and every helper here must keep
/// bit-identical Value semantics: the cache-on / cache-off and serial /
/// vectorized invariants compare row sequences produced through these
/// switches against rows produced by boxed Values.
///
/// Plain pointers: the viewed column must outlive the view (the executor
/// pins cached columns for the operator's duration and owns its
/// FlatColumns directly).
struct FlatView {
  ValueType type = ValueType::kInt64;
  const int64_t* i64 = nullptr;
  const double* dbl = nullptr;
  const std::string* str = nullptr;
  const uint64_t* str_hash = nullptr;  // precomputed string hashes

  static FlatView Of(const FlatColumn& col);  // exec/batch.cc

  /// Value::Hash() of entry i without boxing. Strings read the precomputed
  /// hash column; numerics mix inline.
  uint64_t HashAt(size_t i) const {
    switch (type) {
      case ValueType::kInt64:
        return HashInt64Value(i64[i]);
      case ValueType::kDouble:
        return HashDoubleValue(dbl[i]);
      case ValueType::kString:
        return str_hash[i];
    }
    return 0;
  }

  /// Boxes entry i (tests and diagnostics — hot loops stay on the typed
  /// arrays).
  Value ValueAt(size_t i) const {
    switch (type) {
      case ValueType::kInt64:
        return Value(i64[i]);
      case ValueType::kDouble:
        return Value(dbl[i]);
      case ValueType::kString:
        return Value(str[i]);
    }
    return Value();
  }

  /// entry(i) == v, matching Value::operator== (false across types).
  bool EqualsValue(size_t i, const Value& v) const {
    switch (type) {
      case ValueType::kInt64:
        return v.is_int64() && i64[i] == v.AsInt64();
      case ValueType::kDouble:
        return v.is_double() && dbl[i] == v.AsDouble();
      case ValueType::kString:
        return v.is_string() && str[i] == v.AsString();
    }
    return false;
  }

  /// a(ai) == b(bi), matching Value::operator== (false across types;
  /// string compares check the hash columns first so mismatches never
  /// touch character data).
  static bool Equal(const FlatView& a, size_t ai, const FlatView& b, size_t bi) {
    if (a.type != b.type) return false;
    switch (a.type) {
      case ValueType::kInt64:
        return a.i64[ai] == b.i64[bi];
      case ValueType::kDouble:
        return a.dbl[ai] == b.dbl[bi];
      case ValueType::kString:
        return a.str_hash[ai] == b.str_hash[bi] && a.str[ai] == b.str[bi];
    }
    return false;
  }
};

}  // namespace monsoon

#endif  // MONSOON_EXEC_FLAT_COMPARE_H_
