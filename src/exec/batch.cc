#include "exec/batch.h"

#include "common/check.h"

namespace monsoon {

void FlatColumn::Resize(ValueType type, size_t n) {
  if (type != type_) {
    int64s_.clear();
    doubles_.clear();
    strings_.clear();
    hashes_.clear();
  }
  type_ = type;
  size_ = n;
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

void FlatColumn::Fill(const BoundTerm& bound, const Table& table, UdfRows rows,
                      size_t out_begin) {
  MONSOON_CHECK(bound.result_type() == type_)
      << "a " << ValueTypeToString(bound.result_type()) << " UDF filling a "
      << ValueTypeToString(type_) << " column";
  MONSOON_DCHECK(out_begin + rows.n <= size_) << "flat column fill range out of bounds";
  UdfSlots out;
  switch (type_) {
    case ValueType::kInt64:
      out.i64 = int64s_.data() + out_begin;
      break;
    case ValueType::kDouble:
      out.dbl = doubles_.data() + out_begin;
      break;
    case ValueType::kString:
      out.str = strings_.data() + out_begin;
      out.str_hash = hashes_.data() + out_begin;
      break;
  }
  bound.function()->kernel(table, bound.arg_cols(), rows, out);
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
