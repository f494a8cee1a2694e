#ifndef MONSOON_EXPR_UDF_H_
#define MONSOON_EXPR_UDF_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "storage/table.h"
#include "storage/value.h"

namespace monsoon {

/// The rows a UDF kernel evaluates, in order: rows [begin, begin + n) of
/// its input, or, when `ids` is set, rows ids[0], ..., ids[n - 1].
struct UdfRows {
  size_t begin = 0;
  size_t n = 0;
  const uint32_t* ids = nullptr;

  static UdfRows Range(size_t begin, size_t end) { return {begin, end - begin, nullptr}; }
  static UdfRows Ids(const uint32_t* ids, size_t n) { return {0, n, ids}; }
};

/// Where a kernel writes its results: result i goes to slot i of the array
/// of the UDF's result type; a string result also writes its HashString
/// hash (Value::Hash()-identical) to str_hash[i]. The other arrays are null.
struct UdfSlots {
  int64_t* i64 = nullptr;
  double* dbl = nullptr;
  std::string* str = nullptr;
  uint64_t* str_hash = nullptr;
};

/// A UDF body: evaluates the function over `rows` of `in`, reading its
/// arguments from the columns `arg_cols`, and writes one result per row.
using UdfKernel =
    std::function<void(const Table& in, const std::vector<size_t>& arg_cols,
                       UdfRows rows, const UdfSlots& out)>;

/// A registered scalar UDF implementation. The engine treats the body as a
/// black box — exactly the "partially obscured" setting of the paper: the
/// optimizer sees only the function name and the attributes it consumes,
/// never statistics about its output.
///
/// `arg_cols` are column indices resolved against the input table's schema
/// at bind time, so evaluation does no name lookups. The kernel runs once
/// per batch of rows, never once per row; build one with Int64Udf or
/// StringUdf, which also fix `result_type` to what the kernel writes.
struct UdfFunction {
  std::string name;
  /// Output type of the function (needed to type intermediate results).
  ValueType result_type = ValueType::kInt64;
  UdfKernel kernel;
};

namespace udf_internal {

template <typename T>
struct Arg;
template <>
struct Arg<int64_t> {
  static int64_t Get(const Table& t, size_t col, size_t row) { return t.Int64At(col, row); }
};
template <>
struct Arg<double> {
  static double Get(const Table& t, size_t col, size_t row) { return t.DoubleAt(col, row); }
};
template <>
struct Arg<std::string> {
  static const std::string& Get(const Table& t, size_t col, size_t row) {
    return t.StringAt(col, row);
  }
};

/// Calls a lambda with its typed arguments read from one input row.
template <typename F>
struct Call : Call<decltype(&F::operator())> {};
template <typename C, typename R, typename... A>
struct Call<R (C::*)(A...) const> {
  template <typename Fn>
  static decltype(auto) At(const Fn& fn, const Table& in,
                           const std::vector<size_t>& cols, size_t row) {
    return Apply(fn, in, cols, row, std::index_sequence_for<A...>{});
  }
  template <typename Fn, size_t... I>
  static decltype(auto) Apply(const Fn& fn, [[maybe_unused]] const Table& in,
                              [[maybe_unused]] const std::vector<size_t>& cols,
                              [[maybe_unused]] size_t row,
                              std::index_sequence<I...>) {
    return fn(Arg<std::decay_t<A>>::Get(in, cols[I], row)...);
  }
};

/// Calls put(i, row) for each of `rows`, the i-th being `row`.
template <typename Put>
void ForEachRow(UdfRows rows, Put&& put) {
  if (rows.ids == nullptr) {
    for (size_t i = 0; i < rows.n; ++i) put(i, rows.begin + i);
  } else {
    for (size_t i = 0; i < rows.n; ++i) put(i, size_t{rows.ids[i]});
  }
}

}  // namespace udf_internal

/// An int64-valued UDF from one lambda over typed arguments (int64_t,
/// double or const std::string&, one per argument column).
template <typename Fn>
UdfFunction Int64Udf(std::string name, Fn fn) {
  return {std::move(name), ValueType::kInt64,
          [fn = std::move(fn)](const Table& in, const std::vector<size_t>& cols,
                               UdfRows rows, const UdfSlots& out) {
            udf_internal::ForEachRow(rows, [&](size_t i, size_t row) {
              out.i64[i] = udf_internal::Call<Fn>::At(fn, in, cols, row);
            });
          }};
}

/// A string-valued UDF, as Int64Udf; each result's hash is written beside it.
template <typename Fn>
UdfFunction StringUdf(std::string name, Fn fn) {
  return {std::move(name), ValueType::kString,
          [fn = std::move(fn)](const Table& in, const std::vector<size_t>& cols,
                               UdfRows rows, const UdfSlots& out) {
            udf_internal::ForEachRow(rows, [&](size_t i, size_t row) {
              out.str[i] = udf_internal::Call<Fn>::At(fn, in, cols, row);
              out.str_hash[i] = HashString(out.str[i]);
            });
          }};
}

/// Process-wide registry of UDF implementations, keyed by name.
/// Workloads register their functions at setup; queries reference them by
/// name only.
class UdfRegistry {
 public:
  UdfRegistry() = default;

  /// The registry used by default across the code base. Built-ins
  /// (RegisterBuiltinUdfs) are installed on first access.
  static UdfRegistry& Global();

  Status Register(UdfFunction fn);

  /// Registers, replacing any existing function of the same name.
  void RegisterOrReplace(UdfFunction fn);

  StatusOr<const UdfFunction*> Lookup(const std::string& name) const;

  bool Contains(const std::string& name) const;

  std::vector<std::string> Names() const;

 private:
  std::map<std::string, UdfFunction> fns_;
};

/// Installs the standard library of UDFs used by the examples and the UDF
/// benchmark:
///   identity       — int passthrough (obscures a key column)
///   identity_str   — string passthrough
///   bucket<K>      — "bucket10", "bucket100", "bucket1000" and
///                    "bucket10000": hash an int into K buckets
///   extract_id     — substring between `id="` and the next `"` (doc
///                    parsing from the paper's introduction)
///   extract_author — the same for `author="`
///   extract_date   — leading YYYY-MM-DD of a timestamp string
///   city_from_ip   — deterministic city id from a dotted-quad IP string
///   canonical_set  — canonical form of a comma-separated item set (so
///                    Intersection(a,b) = Union(a,b) becomes equality of
///                    canonical forms)
///   pair_key       — combines two int attributes into one key (multi-table
///                    when the attributes come from different relations)
///   concat2        — string concatenation of two attributes
void RegisterBuiltinUdfs(UdfRegistry& registry);

}  // namespace monsoon

#endif  // MONSOON_EXPR_UDF_H_
