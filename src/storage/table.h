#ifndef MONSOON_STORAGE_TABLE_H_
#define MONSOON_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace monsoon {

class Table;

/// Lightweight reference to one row of a Table. UDFs consume RowRefs.
/// Valid only while the underlying Table is alive and unmodified.
class RowRef {
 public:
  RowRef(const Table* table, size_t row) : table_(table), row_(row) {}

  int64_t GetInt64(size_t col) const;
  double GetDouble(size_t col) const;
  const std::string& GetString(size_t col) const;
  Value GetValue(size_t col) const;

  size_t row_index() const { return row_; }
  const Table* table() const { return table_; }

 private:
  const Table* table_;
  size_t row_;
};

/// Columnar in-memory table. One typed vector per column; all columns have
/// equal length. This is the unit of materialization in the engine: base
/// relations, join intermediates, and final results are all Tables.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Appends one row. Values must match the schema's types and arity.
  Status AppendRow(const std::vector<Value>& values);

  /// Appends the concatenation of left[li] and right[ri]. The table's
  /// schema must be Schema::Concat(left.schema(), right.schema()).
  /// Hot path for join output; avoids Value boxing.
  void AppendConcatRow(const Table& left, size_t li, const Table& right, size_t ri);

  /// Appends a copy of src[row]. Schemas must match.
  void AppendRowFrom(const Table& src, size_t row);

  /// Appends src[rows[0]], ..., src[rows[n-1]] in order (column-wise
  /// gather; schemas must match). Selection-vector gather path: one type
  /// dispatch per column per batch instead of per cell per row. Columns
  /// grow geometrically, so many small appends cost what one large does.
  void AppendSelectedFrom(const Table& src, const uint32_t* rows, size_t n);

  /// Appends the concatenations left[lrows[i]] ⧺ right[rrows[i]] for
  /// i in [0, n), column-wise. The schema must be
  /// Schema::Concat(left.schema(), right.schema()). Residual staging.
  void AppendConcatSelected(const Table& left, const uint32_t* lrows,
                            const Table& right, const uint32_t* rrows,
                            size_t n);

  /// Sets the row count to `rows`: new rows hold zeros and empty strings
  /// until written, surplus rows are dropped. The executor sizes a pass's
  /// output once with this, then fills it through the window gathers.
  void ResizeRows(size_t rows);

  /// Window gather: row at + i becomes a copy of src[rows[i]] for i in
  /// [0, n), column-wise (schemas must match; at + n <= num_rows()).
  /// Writes only that window, so gathers into disjoint windows of one
  /// table may run concurrently.
  void GatherAt(size_t at, const Table& src, const uint32_t* rows, size_t n);

  /// Window gather of concatenations: row at + i becomes
  /// left[lrows[i]] ⧺ right[rrows[i]] for i in [0, n). The schema must be
  /// Schema::Concat(left.schema(), right.schema()); same window contract
  /// as GatherAt.
  void GatherConcatAt(size_t at, const Table& left, const uint32_t* lrows,
                      const Table& right, const uint32_t* rrows, size_t n);

  /// Drops every row but keeps the schema and column capacity — scratch
  /// tables (join candidate staging) reuse their allocations per batch.
  void ClearRows();

  /// Removes the last row. Used by the join executor to retract a
  /// candidate row that failed a residual filter. Requires num_rows() > 0.
  void PopRow();

  // Typed column access (hot paths). Callers must respect schema types.
  int64_t Int64At(size_t col, size_t row) const {
    return std::get<Int64Column>(columns_[col])[row];
  }
  double DoubleAt(size_t col, size_t row) const {
    return std::get<DoubleColumn>(columns_[col])[row];
  }
  const std::string& StringAt(size_t col, size_t row) const {
    return std::get<StringColumn>(columns_[col])[row];
  }
  Value ValueAt(size_t col, size_t row) const;

  RowRef row(size_t i) const { return RowRef(this, i); }

  /// Reserves capacity in every column.
  void Reserve(size_t rows);

  /// Approximate bytes held (for memory accounting in the executor).
  size_t ApproxBytes() const;

  /// Renders up to `limit` rows for debugging.
  std::string ToString(size_t limit = 10) const;

 private:
  using Int64Column = std::vector<int64_t>;
  using DoubleColumn = std::vector<double>;
  using StringColumn = std::vector<std::string>;
  using Column = std::variant<Int64Column, DoubleColumn, StringColumn>;

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

using TablePtr = std::shared_ptr<const Table>;

inline int64_t RowRef::GetInt64(size_t col) const { return table_->Int64At(col, row_); }
inline double RowRef::GetDouble(size_t col) const { return table_->DoubleAt(col, row_); }
inline const std::string& RowRef::GetString(size_t col) const {
  return table_->StringAt(col, row_);
}
inline Value RowRef::GetValue(size_t col) const { return table_->ValueAt(col, row_); }

}  // namespace monsoon

#endif  // MONSOON_STORAGE_TABLE_H_
