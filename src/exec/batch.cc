#include "exec/batch.h"

#include "common/check.h"

namespace monsoon {

void FlatColumn::Resize(ValueType type, size_t n) {
  type_ = type;
  size_ = n;
  int64s_.clear();
  doubles_.clear();
  strings_.clear();
  hashes_.clear();
  switch (type) {
    case ValueType::kInt64:
      int64s_.resize(n);
      break;
    case ValueType::kDouble:
      doubles_.resize(n);
      break;
    case ValueType::kString:
      strings_.resize(n);
      hashes_.resize(n);
      break;
  }
}

Status FlatColumn::Fill(const BoundTerm& bound, const Table& table,
                        size_t row_begin, size_t row_end, size_t out_begin) {
  MONSOON_DCHECK(out_begin + (row_end - row_begin) <= size_)
      << "flat column fill range out of bounds";
  for (size_t row = row_begin; row < row_end; ++row) {
    size_t i = out_begin + (row - row_begin);
    Value v = bound.Eval(table, row);
    if (v.type() != type_) {
      return Status::Internal("UDF produced a " +
                              std::string(ValueTypeToString(v.type())) +
                              " where its declared result type is " +
                              ValueTypeToString(type_));
    }
    switch (type_) {
      case ValueType::kInt64:
        int64s_[i] = v.AsInt64();
        break;
      case ValueType::kDouble:
        doubles_[i] = v.AsDouble();
        break;
      case ValueType::kString:
        hashes_[i] = HashString(v.AsString());
        strings_[i] = v.AsString();
        break;
    }
  }
  return Status::OK();
}

size_t FlatColumn::ApproxBytes() const {
  size_t bytes = sizeof(FlatColumn);
  switch (type_) {
    case ValueType::kInt64:
      return bytes + size_ * sizeof(int64_t);
    case ValueType::kDouble:
      return bytes + size_ * sizeof(double);
    case ValueType::kString:
      bytes += size_ * (sizeof(std::string) + sizeof(uint64_t));
      for (const std::string& s : strings_) bytes += s.capacity();
      return bytes;
  }
  return bytes;
}

FlatView FlatView::Of(const FlatColumn& col) {
  FlatView view;
  view.type = col.type();
  view.i64 = col.Int64Data();
  view.dbl = col.DoubleData();
  view.str = col.StringData();
  view.str_hash = col.HashData();
  return view;
}

}  // namespace monsoon
