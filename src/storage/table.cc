#include "storage/table.h"

#include <sstream>

namespace monsoon {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (const auto& col : schema_.columns()) {
    switch (col.type) {
      case ValueType::kInt64:
        columns_.emplace_back(Int64Column{});
        break;
      case ValueType::kDouble:
        columns_.emplace_back(DoubleColumn{});
        break;
      case ValueType::kString:
        columns_.emplace_back(StringColumn{});
        break;
    }
  }
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
  for (size_t i = 0; i < values.size(); ++i) {
    switch (values[i].type()) {
      case ValueType::kInt64:
        std::get<Int64Column>(columns_[i]).push_back(values[i].AsInt64());
        break;
      case ValueType::kDouble:
        std::get<DoubleColumn>(columns_[i]).push_back(values[i].AsDouble());
        break;
      case ValueType::kString:
        std::get<StringColumn>(columns_[i]).push_back(values[i].AsString());
        break;
    }
  }
  ++num_rows_;
  return Status::OK();
}

namespace {

// Copies src_col[row] onto the end of dst_col (same alternative held).
void AppendCell(std::variant<std::vector<int64_t>, std::vector<double>,
                             std::vector<std::string>>& dst_col,
                const std::variant<std::vector<int64_t>, std::vector<double>,
                                   std::vector<std::string>>& src_col,
                size_t row) {
  std::visit(
      [&](auto& dst) {
        using VecT = std::remove_reference_t<decltype(dst)>;
        dst.push_back(std::get<VecT>(src_col)[row]);
      },
      dst_col);
}

// dst[at + i] = src[rows[i]] for i in [0, n), both columns holding the
// same alternative.
void GatherColumn(std::variant<std::vector<int64_t>, std::vector<double>,
                               std::vector<std::string>>& dst_col,
                  const std::variant<std::vector<int64_t>, std::vector<double>,
                                     std::vector<std::string>>& src_col,
                  size_t at, const uint32_t* rows, size_t n) {
  std::visit(
      [&](auto& dst) {
        using VecT = std::remove_reference_t<decltype(dst)>;
        const VecT& from = std::get<VecT>(src_col);
        auto* out = dst.data() + at;
        for (size_t i = 0; i < n; ++i) out[i] = from[rows[i]];
      },
      dst_col);
}

}  // namespace

void Table::AppendConcatRow(const Table& left, size_t li, const Table& right,
                            size_t ri) {
  size_t nl = left.num_columns();
  for (size_t c = 0; c < nl; ++c) AppendCell(columns_[c], left.columns_[c], li);
  size_t nr = right.num_columns();
  for (size_t c = 0; c < nr; ++c) AppendCell(columns_[nl + c], right.columns_[c], ri);
  ++num_rows_;
}

void Table::AppendRowFrom(const Table& src, size_t row) {
  for (size_t c = 0; c < columns_.size(); ++c) AppendCell(columns_[c], src.columns_[c], row);
  ++num_rows_;
}

void Table::AppendSelectedFrom(const Table& src, const uint32_t* rows,
                               size_t n) {
  const size_t at = num_rows_;
  ResizeRows(at + n);
  GatherAt(at, src, rows, n);
}

void Table::AppendConcatSelected(const Table& left, const uint32_t* lrows,
                                 const Table& right, const uint32_t* rrows,
                                 size_t n) {
  const size_t at = num_rows_;
  ResizeRows(at + n);
  GatherConcatAt(at, left, lrows, right, rrows, n);
}

void Table::ResizeRows(size_t rows) {
  for (auto& col : columns_) {
    std::visit([rows](auto& vec) { vec.resize(rows); }, col);
  }
  num_rows_ = rows;
}

void Table::GatherAt(size_t at, const Table& src, const uint32_t* rows,
                     size_t n) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    GatherColumn(columns_[c], src.columns_[c], at, rows, n);
  }
}

void Table::GatherConcatAt(size_t at, const Table& left, const uint32_t* lrows,
                           const Table& right, const uint32_t* rrows,
                           size_t n) {
  const size_t nl = left.num_columns();
  for (size_t c = 0; c < nl; ++c) {
    GatherColumn(columns_[c], left.columns_[c], at, lrows, n);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    GatherColumn(columns_[nl + c], right.columns_[c], at, rrows, n);
  }
}

void Table::ClearRows() {
  for (auto& col : columns_) {
    std::visit([](auto& vec) { vec.clear(); }, col);
  }
  num_rows_ = 0;
}

void Table::PopRow() {
  for (auto& col : columns_) {
    std::visit([](auto& vec) { vec.pop_back(); }, col);
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
  for (auto& col : columns_) {
    std::visit([rows](auto& vec) { vec.reserve(rows); }, col);
  }
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) {
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
