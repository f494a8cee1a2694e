#include "storage/table.h"

#include <algorithm>
#include <sstream>
#include <type_traits>

#include "common/check.h"

namespace monsoon {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  auto store = std::make_shared<Store>();
  store->columns.reserve(schema_.num_columns());
  cols_.reserve(schema_.num_columns());
  for (const auto& col : schema_.columns()) {
    switch (col.type) {
      case ValueType::kInt64:
        store->columns.emplace_back(Int64Column{});
        break;
      case ValueType::kDouble:
        store->columns.emplace_back(DoubleColumn{});
        break;
      case ValueType::kString:
        store->columns.emplace_back(StringColumn{});
        break;
    }
    cols_.push_back(ColumnRef{0, static_cast<uint32_t>(cols_.size())});
  }
  groups_.push_back(Group{std::move(store), {}});
  Rebind();
}

Table::Table(const Table& other)
    : schema_(other.schema_),
      groups_(other.groups_),
      cols_(other.cols_),
      gathered_(other.gathered_),
      num_rows_(other.num_rows_) {
  Rebind();
}

Table& Table::operator=(const Table& other) {
  if (this != &other) {
    schema_ = other.schema_;
    groups_ = other.groups_;
    cols_ = other.cols_;
    gathered_ = other.gathered_;
    num_rows_ = other.num_rows_;
    Rebind();
  }
  return *this;
}

void Table::Rebind() {
  for (ColumnRef& ref : cols_) {
    const Group& group = groups_[ref.group];
    ref.cells = std::visit([](const auto& vec) -> const void* { return vec.data(); },
                           group.store->columns[ref.store_col]);
    ref.ids = gathered_ ? group.ids.data() : nullptr;
  }
}

Table::Store& Table::MutableStore() {
  MONSOON_DCHECK(!gathered_ && groups_.size() == 1);
  std::shared_ptr<Store>& store = groups_[0].store;
  if (store.use_count() != 1) store = std::make_shared<Store>(*store);
  return *store;
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument("type mismatch in column '" +
                                     schema_.column(i).name + "'");
    }
  }
  if (gathered_) {
    MONSOON_CHECK(num_rows_ == 0) << "AppendRow into a non-empty gathered table";
    *this = Table(schema_);
  }
  Store& store = MutableStore();
  for (size_t i = 0; i < values.size(); ++i) {
    // A dense table's column i is store column i; the push may move it.
    cols_[i].cells = std::visit(
        [&](auto& vec) -> const void* {
          using T = typename std::remove_reference_t<decltype(vec)>::value_type;
          if constexpr (std::is_same_v<T, int64_t>) {
            vec.push_back(values[i].AsInt64());
          } else if constexpr (std::is_same_v<T, double>) {
            vec.push_back(values[i].AsDouble());
          } else {
            vec.push_back(values[i].AsString());
          }
          return vec.data();
        },
        store.columns[i]);
  }
  ++num_rows_;
  return Status::OK();
}

bool Table::HasLayoutOf(const Table& left, const Table* right) const {
  if (!gathered_) return false;
  size_t g = 0;
  size_t c = 0;
  auto matches = [&](const Table& src) {
    const size_t base = g;
    for (const Group& group : src.groups_) {
      if (g == groups_.size() || groups_[g++].store != group.store) return false;
    }
    for (const ColumnRef& ref : src.cols_) {
      if (c == cols_.size() || cols_[c].group != base + ref.group ||
          cols_[c].store_col != ref.store_col) {
        return false;
      }
      ++c;
    }
    return true;
  };
  return matches(left) && (right == nullptr || matches(*right)) &&
         g == groups_.size() && c == cols_.size();
}

void Table::BindLayout(const Table& left, const Table* right) {
  if (HasLayoutOf(left, right)) return;
  MONSOON_CHECK(num_rows_ == 0) << "append from another layout into a table of "
                                << num_rows_ << " rows";
  groups_.clear();
  cols_.clear();
  auto add_source = [this](const Table& src) {
    const auto base = static_cast<uint32_t>(groups_.size());
    for (const Group& group : src.groups_) groups_.push_back(Group{group.store, {}});
    for (const ColumnRef& ref : src.cols_) {
      cols_.push_back(ColumnRef{base + ref.group, ref.store_col});
    }
  };
  add_source(left);
  if (right != nullptr) add_source(*right);
  MONSOON_CHECK(cols_.size() == schema_.num_columns())
      << "sources have " << cols_.size() << " columns, the table "
      << schema_.num_columns();
  gathered_ = true;
  Rebind();
}

void Table::PresizeGather(size_t rows, const Table& left, const Table* right) {
  BindLayout(left, right);
  for (Group& group : groups_) {
    group.ids.resize(rows);
    if (MONSOON_DCHECKS_ENABLED && rows > num_rows_) {
      std::fill(group.ids.begin() + static_cast<ptrdiff_t>(num_rows_), group.ids.end(),
                kUnwrittenId);
    }
  }
  num_rows_ = rows;
  Rebind();
}

void Table::WriteIds(size_t first_group, size_t at, const Table& src,
                     const uint32_t* rows, size_t n) {
  for (size_t g = 0; g < src.groups_.size(); ++g) {
    uint32_t* out = groups_[first_group + g].ids.data() + at;
    if (!src.gathered_) {
      std::copy(rows, rows + n, out);
      continue;
    }
    const uint32_t* src_ids = src.groups_[g].ids.data();
    for (size_t i = 0; i < n; ++i) out[i] = src_ids[rows[i]];
  }
}

void Table::GatherAt(size_t at, const Table& src, const uint32_t* rows,
                     size_t n) {
  MONSOON_DCHECK(at + n <= num_rows_ && HasLayoutOf(src, nullptr));
  WriteIds(0, at, src, rows, n);
}

void Table::GatherConcatAt(size_t at, const Table& left, const uint32_t* lrows,
                           const Table& right, const uint32_t* rrows,
                           size_t n) {
  MONSOON_DCHECK(at + n <= num_rows_ && HasLayoutOf(left, &right));
  WriteIds(0, at, left, lrows, n);
  WriteIds(left.groups_.size(), at, right, rrows, n);
}

void Table::AppendConcatRow(const Table& left, size_t li, const Table& right,
                            size_t ri) {
  const auto l = static_cast<uint32_t>(li);
  const auto r = static_cast<uint32_t>(ri);
  AppendConcatSelected(left, &l, right, &r, 1);
}

void Table::AppendSelectedFrom(const Table& src, const uint32_t* rows,
                               size_t n) {
  const size_t at = num_rows_;
  PresizeGather(at + n, src);
  GatherAt(at, src, rows, n);
}

void Table::AppendConcatSelected(const Table& left, const uint32_t* lrows,
                                 const Table& right, const uint32_t* rrows,
                                 size_t n) {
  const size_t at = num_rows_;
  PresizeGather(at + n, left, &right);
  GatherConcatAt(at, left, lrows, right, rrows, n);
}

void Table::ClearRows() {
  if (!gathered_) {
    *this = Table(schema_);  // a fresh store: the old one may be shared
    return;
  }
  for (Group& group : groups_) group.ids.clear();
  num_rows_ = 0;
}

void Table::PopRow() {
  if (gathered_) {
    for (Group& group : groups_) group.ids.pop_back();
  } else {
    for (auto& col : MutableStore().columns) {
      std::visit([](auto& vec) { vec.pop_back(); }, col);
    }
    Rebind();
  }
  --num_rows_;
}

Value Table::ValueAt(size_t col, size_t row) const {
  switch (schema_.column(col).type) {
    case ValueType::kInt64:
      return Value(Int64At(col, row));
    case ValueType::kDouble:
      return Value(DoubleAt(col, row));
    case ValueType::kString:
      return Value(StringAt(col, row));
  }
  return Value();
}

void Table::Reserve(size_t rows) {
  if (gathered_) {
    for (Group& group : groups_) group.ids.reserve(rows);
  } else {
    for (auto& col : MutableStore().columns) {
      std::visit([rows](auto& vec) { vec.reserve(rows); }, col);
    }
  }
  Rebind();
}

size_t Table::ApproxBytes() const {
  if (gathered_) return num_rows_ * groups_.size() * sizeof(uint32_t);
  size_t bytes = 0;
  for (const auto& col : groups_[0].store->columns) {
    std::visit(
        [&bytes](const auto& vec) {
          using T = typename std::remove_reference_t<decltype(vec)>::value_type;
          if constexpr (std::is_same_v<T, std::string>) {
            for (const auto& s : vec) bytes += sizeof(std::string) + s.capacity();
          } else {
            bytes += vec.size() * sizeof(T);
          }
        },
        col);
  }
  return bytes;
}

std::string Table::ToString(size_t limit) const {
  std::ostringstream out;
  out << schema_.ToString() << " rows=" << num_rows_ << "\n";
  size_t n = std::min(limit, num_rows_);
  for (size_t r = 0; r < n; ++r) {
    out << "  [";
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) out << ", ";
      out << ValueAt(c, r).ToString();
    }
    out << "]\n";
  }
  if (n < num_rows_) out << "  ... (" << (num_rows_ - n) << " more)\n";
  return out.str();
}

}  // namespace monsoon
