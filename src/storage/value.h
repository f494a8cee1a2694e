#ifndef MONSOON_STORAGE_VALUE_H_
#define MONSOON_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/hash.h"

namespace monsoon {

/// Column / value types supported by the mini engine. Only the types
/// required by the paper's benchmarks: integers (keys), doubles
/// (measures), and strings (UDF inputs such as document text or IPs).
enum class ValueType {
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeToString(ValueType type);

/// Per-type hash mixers shared by Value::Hash() and the UDF column cache
/// (exec/udf_cache.h), so precomputed hash columns are bit-identical to
/// per-row Value hashing.
inline uint64_t HashInt64Value(int64_t v) {
  return Mix64(static_cast<uint64_t>(v));
}

inline uint64_t HashDoubleValue(double d) {
  // -0.0 == 0.0 under operator==, so both must land in the same hash
  // bucket (hash joins and HLL distincts would otherwise split them).
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits ^ 0x9e3779b97f4a7c15ULL);
}

/// A dynamically-typed scalar: table cells on the way in and out, and
/// selection constants. UDFs write typed columns, never Values.
/// Small by design (variant of int64/double/string); strings own storage.
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(const char* v) : v_(std::string(v)) {}

  ValueType type() const {
    switch (v_.index()) {
      case 0:
        return ValueType::kInt64;
      case 1:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_int64() const { return v_.index() == 0; }
  bool is_double() const { return v_.index() == 1; }
  bool is_string() const { return v_.index() == 2; }

  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Hash consistent with operator== (used for hash joins and HLL).
  uint64_t Hash() const {
    switch (v_.index()) {
      case 0:
        return HashInt64Value(std::get<int64_t>(v_));
      case 1:
        return HashDoubleValue(std::get<double>(v_));
      default:
        return HashString(std::get<std::string>(v_));
    }
  }

  bool operator==(const Value& other) const { return v_ == other.v_; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return v_ < other.v_; }

  /// Debug / display rendering.
  std::string ToString() const;

 private:
  std::variant<int64_t, double, std::string> v_;
};

}  // namespace monsoon

#endif  // MONSOON_STORAGE_VALUE_H_
