#ifndef MONSOON_TESTS_ROW_FINGERPRINTS_H_
#define MONSOON_TESTS_ROW_FINGERPRINTS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "storage/table.h"

namespace monsoon {

/// One fingerprint per row of `table` (its cells' ToString(),
/// unit-separated), in the table's row order.
inline std::vector<std::string> OrderedRowFingerprints(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    std::string fp;
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      fp += table.ValueAt(c, i).ToString();
      fp += '\x1f';
    }
    rows.push_back(std::move(fp));
  }
  return rows;
}

/// The same fingerprints, sorted: equal vectors mean equal row multisets.
inline std::vector<std::string> RowFingerprints(const Table& table) {
  std::vector<std::string> rows = OrderedRowFingerprints(table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace monsoon

#endif  // MONSOON_TESTS_ROW_FINGERPRINTS_H_
