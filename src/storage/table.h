#ifndef MONSOON_STORAGE_TABLE_H_
#define MONSOON_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace monsoon {

/// Columnar in-memory table: base relations, join intermediates and final
/// results are all Tables. Cells live in *stores* — one typed vector per
/// column — held by shared_ptr, and a table reads them through *groups*:
/// a store plus a row-id vector, one group per source store.
///
///  * A table built with AppendRow is *dense*: one group over its own
///    store and no id vector, so row r is store row r.
///  * A table built by the gathers is *gathered*: each group's ids[r] is
///    the store row holding row r's cells of that group's columns. A join
///    output over k base relations costs 4 bytes per relation per row,
///    whatever its width. Gathers resolve their sources' ids as they
///    write, so ids never chain: they always index a store directly.
///
/// An empty table adopts its sources' layout on its first gather; an
/// append into a non-empty table from another layout fails a
/// MONSOON_CHECK. A store another table shares is never mutated (a dense
/// table copies its store before it writes), so a gathered table keeps
/// its sources' stores alive — it outlives their TablePtrs and catalog
/// replacement — and concurrent readers need no locks.
class Table {
 public:
  Table() : Table(Schema()) {}
  explicit Table(Schema schema);
  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&&) noexcept = default;
  Table& operator=(Table&&) noexcept = default;

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Appends one row to a dense table (an empty gathered table turns
  /// dense again). Values must match the schema's types and arity.
  Status AppendRow(const std::vector<Value>& values);

  /// Appends the concatenation of left[li] and right[ri]. The table's
  /// schema must be Schema::Concat(left.schema(), right.schema()).
  void AppendConcatRow(const Table& left, size_t li, const Table& right, size_t ri);

  /// Appends src[rows[0]], ..., src[rows[n-1]] in order (schemas must
  /// match). Writes one id per group per row; id vectors grow
  /// geometrically, so many small appends cost what one large does.
  void AppendSelectedFrom(const Table& src, const uint32_t* rows, size_t n);

  /// Appends the concatenations left[lrows[i]] ⧺ right[rrows[i]] for
  /// i in [0, n). The schema must be
  /// Schema::Concat(left.schema(), right.schema()). Residual staging.
  void AppendConcatSelected(const Table& left, const uint32_t* lrows,
                            const Table& right, const uint32_t* rrows,
                            size_t n);

  /// Pre-size step of the window gathers: binds the table to the layout of
  /// `left` (⧺ `right` when non-null) — adopting it when the table is
  /// empty — and sets the row count to `rows`; surplus rows are dropped.
  /// New rows are not initialized: each must be written by a window gather
  /// before it is read (DCHECK builds mark them, and a read of one fails).
  /// The executor sizes a pass's output once with this, then fills it
  /// through GatherAt / GatherConcatAt with the same sources.
  void PresizeGather(size_t rows, const Table& left, const Table* right = nullptr);

  /// Window gather: row at + i becomes src[rows[i]] for i in [0, n). The
  /// table must be pre-sized from `src` and at + n <= num_rows(). Writes
  /// only that window, so gathers into disjoint windows of one table may
  /// run concurrently.
  void GatherAt(size_t at, const Table& src, const uint32_t* rows, size_t n);

  /// Window gather of concatenations: row at + i becomes
  /// left[lrows[i]] ⧺ right[rrows[i]] for i in [0, n). The table must be
  /// pre-sized from (left, right); same window contract as GatherAt.
  void GatherConcatAt(size_t at, const Table& left, const uint32_t* lrows,
                      const Table& right, const uint32_t* rrows, size_t n);

  /// Drops every row but keeps the schema and the layout. A gathered table
  /// keeps its id buffers, so scratch tables (join candidate staging)
  /// reuse them per batch; a dense table starts a fresh store.
  void ClearRows();

  /// Removes the last row. Requires num_rows() > 0.
  void PopRow();

  // Typed cell access (hot paths): one id load on a gathered table, then
  // the store cell. Callers must respect schema types.
  int64_t Int64At(size_t col, size_t row) const { return Cell<int64_t>(col, row); }
  double DoubleAt(size_t col, size_t row) const { return Cell<double>(col, row); }
  const std::string& StringAt(size_t col, size_t row) const {
    return Cell<std::string>(col, row);
  }
  Value ValueAt(size_t col, size_t row) const;

  /// Reserves capacity for `rows` rows: the store's columns of a dense
  /// table, the id vectors of a gathered one.
  void Reserve(size_t rows);

  /// Approximate bytes held (for memory accounting in the executor): the
  /// cells of a dense table's store, or rows × groups × 4 id bytes for a
  /// gathered table, whose stores belong to its sources.
  size_t ApproxBytes() const;

  /// Renders up to `limit` rows for debugging.
  std::string ToString(size_t limit = 10) const;

 private:
  using Int64Column = std::vector<int64_t>;
  using DoubleColumn = std::vector<double>;
  using StringColumn = std::vector<std::string>;
  using Column = std::variant<Int64Column, DoubleColumn, StringColumn>;

  /// The typed column vectors cells live in. Immutable once shared.
  struct Store {
    std::vector<Column> columns;
  };

  /// std::allocator, but growing a vector with resize() leaves the new
  /// elements default-initialized (for ids: unwritten) instead of zeroed.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
    template <typename U>
    void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
      std::uninitialized_default_construct_n(p, 1);
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      std::construct_at(p, std::forward<Args>(args)...);
    }
  };
  using IdVector = std::vector<uint32_t, DefaultInitAllocator<uint32_t>>;
  /// What DCHECK builds write into ids PresizeGather adds; no store has
  /// this many rows.
  static constexpr uint32_t kUnwrittenId = ~uint32_t{0};

  /// A store and, in a gathered table, the store row of each table row.
  struct Group {
    std::shared_ptr<Store> store;
    IdVector ids;
  };

  /// Where a table column's cells are: its group and store column, plus
  /// the cached cell and id pointers reads go through (`ids` is null in a
  /// dense table). Rebind() refreshes the pointers after any change that
  /// may move the buffers.
  struct ColumnRef {
    uint32_t group = 0;
    uint32_t store_col = 0;
    const void* cells = nullptr;
    const uint32_t* ids = nullptr;
  };

  template <typename T>
  const T& Cell(size_t col, size_t row) const {
    const ColumnRef& ref = cols_[col];
    MONSOON_DCHECK(ref.ids == nullptr || ref.ids[row] != kUnwrittenId)
        << "row " << row << " was pre-sized but never gathered";
    return static_cast<const T*>(ref.cells)[ref.ids != nullptr ? ref.ids[row] : row];
  }

  /// True when the table's groups and columns are exactly those of
  /// `left` ⧺ `right` (right may be null).
  bool HasLayoutOf(const Table& left, const Table* right) const;
  /// Makes the layout that of `left` ⧺ `right` unless it already is;
  /// checks the table is empty when it is not.
  void BindLayout(const Table& left, const Table* right);
  /// ids[at + i] of the groups from `first_group` on = the store rows of
  /// src[rows[i]]: src's own ids resolved, or rows[i] when src is dense.
  void WriteIds(size_t first_group, size_t at, const Table& src,
                const uint32_t* rows, size_t n);
  /// The dense table's store, copied first when another table shares it.
  Store& MutableStore();
  void Rebind();

  Schema schema_;
  std::vector<Group> groups_;
  std::vector<ColumnRef> cols_;
  bool gathered_ = false;
  size_t num_rows_ = 0;
};

using TablePtr = std::shared_ptr<const Table>;

}  // namespace monsoon

#endif  // MONSOON_STORAGE_TABLE_H_
