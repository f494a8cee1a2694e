#ifndef MONSOON_TESTS_TERM_EVAL_H_
#define MONSOON_TESTS_TERM_EVAL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/batch.h"
#include "exec/udf_cache.h"

namespace monsoon {

/// `bound` at one row of `table`, boxed: one kernel call over that row
/// alone. Tests use it as the row-at-a-time reference for what the batch
/// paths write.
inline Value EvalTermAt(const BoundTerm& bound, const Table& table, size_t row) {
  FlatColumn col;
  col.Resize(bound.result_type(), 1);
  col.Fill(bound, table, UdfRows::Range(row, row + 1), 0);
  return FlatView::Of(col).ValueAt(0);
}

/// Checks that every batch path writes, for each row, the value a
/// one-row evaluation gives, with a Value::Hash()-identical hash: a whole
/// dense table written at an offset (out_begin != row_begin), a run across
/// the kBatchRows boundary, a gathered (row-id) copy in reverse order, a
/// row-id selection, and the cache fill (several batches per morsel).
/// `dense` must have more than kBatchRows + 8 rows.
inline void ExpectKernelParity(const BoundTerm& bound, const TablePtr& dense) {
  const size_t n = dense->num_rows();
  ASSERT_GT(n, kBatchRows + 8);
  std::vector<Value> ref(n);
  for (size_t r = 0; r < n; ++r) ref[r] = EvalTermAt(bound, *dense, r);

  // Slot out_begin + i must hold ref[rows[i]].
  auto expect_slots = [&](const char* what, const FlatColumn& col,
                          size_t out_begin, const std::vector<uint32_t>& rows) {
    const FlatView view = FlatView::Of(col);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Value& want = ref[rows[i]];
      ASSERT_EQ(view.ValueAt(out_begin + i), want) << what << ", slot " << i;
      ASSERT_EQ(view.HashAt(out_begin + i), want.Hash()) << what << ", slot " << i;
    }
  };
  auto run = [](size_t begin, size_t end) {
    std::vector<uint32_t> rows;
    for (size_t r = begin; r < end; ++r) rows.push_back(static_cast<uint32_t>(r));
    return rows;
  };

  FlatColumn col;
  col.Resize(bound.result_type(), n + 3);
  col.Fill(bound, *dense, UdfRows::Range(0, n), 3);
  expect_slots("dense, out_begin 3", col, 3, run(0, n));

  const size_t b = kBatchRows - 4;
  col.Resize(bound.result_type(), 9);
  col.Fill(bound, *dense, UdfRows::Range(b, b + 8), 1);
  expect_slots("across the batch boundary", col, 1, run(b, b + 8));

  std::vector<uint32_t> reversed = run(0, n);
  std::reverse(reversed.begin(), reversed.end());
  Table gathered(dense->schema());
  gathered.AppendSelectedFrom(*dense, reversed.data(), reversed.size());
  col.Resize(bound.result_type(), n);
  col.Fill(bound, gathered, UdfRows::Range(0, n), 0);
  expect_slots("gathered", col, 0, reversed);

  std::vector<uint32_t> every_third;
  for (uint32_t r = 2; r < n; r += 3) every_third.push_back(r);
  col.Resize(bound.result_type(), every_third.size() + 2);
  col.Fill(bound, *dense, UdfRows::Ids(every_third.data(), every_third.size()), 2);
  expect_slots("row-id selection", col, 2, every_third);

  UdfColumnCache cache(size_t{64} << 20);
  auto cached = cache.GetOrBuild(ExprSig::Of(RelSet::Single(0), 0), bound, dense,
                                 /*pool=*/nullptr, /*morsel_size=*/n);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  expect_slots("cache fill", **cached, 0, run(0, n));
}

}  // namespace monsoon

#endif  // MONSOON_TESTS_TERM_EVAL_H_
