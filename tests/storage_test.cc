#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace monsoon {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  Value i(int64_t{7});
  Value d(1.5);
  Value s(std::string("hi"));
  EXPECT_TRUE(i.is_int64());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt64(), 7);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 1.5);
  EXPECT_EQ(s.AsString(), "hi");
}

TEST(ValueTest, EqualityIsTypeAware) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // int64 vs double
  EXPECT_NE(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value("a"), Value(std::string("a")));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_EQ(Value("xyz").Hash(), Value("xyz").Hash());
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(int64_t{6}).Hash());
  // Int and double of the same numeric value hash differently (they also
  // compare unequal).
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(5.0).Hash());
}

TEST(ValueTest, NegativeZeroHashesLikePositiveZero) {
  // -0.0 == 0.0 under operator==, so hash-partitioned joins must put both
  // in the same bucket; the raw bit patterns differ by the sign bit.
  EXPECT_EQ(Value(-0.0), Value(0.0));
  EXPECT_EQ(Value(-0.0).Hash(), Value(0.0).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{3}).ToString(), "3");
  EXPECT_EQ(Value("x").ToString(), "'x'");
}

TEST(SchemaTest, ColumnLookup) {
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(schema.num_columns(), 2u);
  EXPECT_EQ(schema.ColumnIndex("b").value(), 1u);
  EXPECT_FALSE(schema.ColumnIndex("c").ok());
  EXPECT_TRUE(schema.HasColumn("a"));
  EXPECT_FALSE(schema.HasColumn("z"));
}

TEST(SchemaTest, QualifyPrefixesBareNames) {
  Schema schema({{"a", ValueType::kInt64}, {"x.b", ValueType::kString}});
  Schema qualified = schema.Qualify("t");
  EXPECT_EQ(qualified.column(0).name, "t.a");
  EXPECT_EQ(qualified.column(1).name, "x.b");  // already qualified
}

TEST(SchemaTest, Concat) {
  Schema left({{"a", ValueType::kInt64}});
  Schema right({{"b", ValueType::kDouble}, {"c", ValueType::kString}});
  Schema both = Schema::Concat(left, right);
  ASSERT_EQ(both.num_columns(), 3u);
  EXPECT_EQ(both.column(2).name, "c");
}

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : table_(Schema({{"id", ValueType::kInt64},
                       {"score", ValueType::kDouble},
                       {"name", ValueType::kString}})) {}

  Table table_;
};

TEST_F(TableTest, AppendAndRead) {
  ASSERT_TRUE(table_.AppendRow({Value(int64_t{1}), Value(0.5), Value("one")}).ok());
  ASSERT_TRUE(table_.AppendRow({Value(int64_t{2}), Value(1.5), Value("two")}).ok());
  EXPECT_EQ(table_.num_rows(), 2u);
  EXPECT_EQ(table_.Int64At(0, 0), 1);
  EXPECT_DOUBLE_EQ(table_.DoubleAt(1, 1), 1.5);
  EXPECT_EQ(table_.StringAt(2, 0), "one");
  EXPECT_EQ(table_.ValueAt(2, 1), Value("two"));
}

TEST_F(TableTest, AppendRowRejectsArityMismatch) {
  EXPECT_EQ(table_.AppendRow({Value(int64_t{1})}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TableTest, AppendRowRejectsTypeMismatch) {
  EXPECT_EQ(
      table_.AppendRow({Value("wrong"), Value(0.5), Value("x")}).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(table_.num_rows(), 0u) << "failed append must not change the table";
}

TEST_F(TableTest, PopRowRemovesLast) {
  ASSERT_TRUE(table_.AppendRow({Value(int64_t{1}), Value(0.5), Value("a")}).ok());
  ASSERT_TRUE(table_.AppendRow({Value(int64_t{2}), Value(0.6), Value("b")}).ok());
  table_.PopRow();
  EXPECT_EQ(table_.num_rows(), 1u);
  EXPECT_EQ(table_.Int64At(0, 0), 1);
}

TEST(TableConcatTest, AppendConcatRow) {
  Table left(Schema({{"a", ValueType::kInt64}}));
  Table right(Schema({{"b", ValueType::kString}}));
  ASSERT_TRUE(left.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(left.AppendRow({Value(int64_t{2})}).ok());
  ASSERT_TRUE(right.AppendRow({Value("x")}).ok());

  Table out(Schema::Concat(left.schema(), right.schema()));
  out.AppendConcatRow(left, 1, right, 0);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Int64At(0, 0), 2);
  EXPECT_EQ(out.StringAt(1, 0), "x");
}

// An (int64, double, string) table whose strings outgrow the small-string
// buffer, so every copied cell allocates.
Table GatherSource(size_t rows) {
  Table t(Schema({{"i", ValueType::kInt64},
                  {"d", ValueType::kDouble},
                  {"s", ValueType::kString}}));
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(r) * 3),
                             Value(static_cast<double>(r) / 4),
                             Value("row-" + std::to_string(r) + "-long-enough-to-allocate")})
                    .ok());
  }
  return t;
}

void ExpectSameRows(const Table& actual, const Table& expected) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows());
  ASSERT_EQ(actual.num_columns(), expected.num_columns());
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    for (size_t c = 0; c < expected.num_columns(); ++c) {
      EXPECT_EQ(actual.ValueAt(c, r), expected.ValueAt(c, r))
          << "row " << r << " column " << c;
    }
  }
}

// Row ids with repeats and no order, as join output produces them.
std::vector<uint32_t> ScatteredRows(size_t n, size_t src_rows) {
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < n; ++i) rows.push_back(static_cast<uint32_t>((i * 7) % src_rows));
  return rows;
}

TEST(TableGatherTest, ManySmallAppendsEqualOneBulkAppend) {
  const Table src = GatherSource(97);
  const std::vector<uint32_t> rows = ScatteredRows(500, src.num_rows());
  Table bulk(src.schema());
  bulk.AppendSelectedFrom(src, rows.data(), rows.size());
  Table pieces(src.schema());
  for (size_t i = 0; i < rows.size(); i += 3) {
    pieces.AppendSelectedFrom(src, rows.data() + i, std::min<size_t>(3, rows.size() - i));
  }
  ExpectSameRows(pieces, bulk);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(bulk.Int64At(0, i), src.Int64At(0, rows[i]));
  }

  const Table right = GatherSource(11);
  const std::vector<uint32_t> rrows = ScatteredRows(rows.size(), right.num_rows());
  const Schema concat = Schema::Concat(src.schema(), right.schema());
  Table concat_bulk(concat);
  concat_bulk.AppendConcatSelected(src, rows.data(), right, rrows.data(), rows.size());
  Table concat_pieces(concat);
  for (size_t i = 0; i < rows.size(); i += 2) {
    concat_pieces.AppendConcatSelected(src, rows.data() + i, right, rrows.data() + i,
                                       std::min<size_t>(2, rows.size() - i));
  }
  ExpectSameRows(concat_pieces, concat_bulk);
  EXPECT_EQ(concat_bulk.StringAt(5, 4), right.StringAt(2, rrows[4]));
}

TEST(TableGatherTest, PresizeGatherAdoptsLayoutAndDrops) {
  const Table src = GatherSource(6);
  const std::vector<uint32_t> rows = {4, 1, 5};
  Table t(src.schema());
  t.PresizeGather(5, src);
  ASSERT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.ApproxBytes(), 5 * sizeof(uint32_t)) << "one id vector, no cells";
  t.GatherAt(1, src, rows.data(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(t.Int64At(0, 1 + i), src.Int64At(0, rows[i]));
    EXPECT_EQ(t.DoubleAt(1, 1 + i), src.DoubleAt(1, rows[i]));
    EXPECT_EQ(t.StringAt(2, 1 + i), src.StringAt(2, rows[i]));
  }
#if MONSOON_DCHECKS_ENABLED
  // Rows no window wrote hold no row id yet: reading one fails.
  EXPECT_DEATH((void)t.Int64At(0, 0), "never gathered");
  EXPECT_DEATH((void)t.StringAt(2, 4), "never gathered");
#endif
  t.PresizeGather(2, src);
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.DoubleAt(1, 1), src.DoubleAt(1, 4));
  EXPECT_EQ(t.StringAt(2, 1), src.StringAt(2, 4));
}

TEST(TableGatherTest, WindowGatherFillsOnlyItsWindow) {
  const Table src = GatherSource(40);
  const std::vector<uint32_t> rows = ScatteredRows(25, src.num_rows());
  const std::vector<uint32_t> head = {7, 0, 39, 3, 12};
  const std::vector<uint32_t> tail = {1, 38, 2, 9};
  Table out(src.schema());
  out.PresizeGather(head.size() + rows.size() + tail.size(), src);
  out.GatherAt(0, src, head.data(), head.size());
  out.GatherAt(head.size() + rows.size(), src, tail.data(), tail.size());
#if MONSOON_DCHECKS_ENABLED
  EXPECT_DEATH((void)out.StringAt(2, 5), "never gathered");
  EXPECT_DEATH((void)out.Int64At(0, 29), "never gathered");
#endif
  // The window between them, gathered last, leaves theirs as they were.
  out.GatherAt(head.size(), src, rows.data(), rows.size());
  std::vector<uint32_t> all = head;
  all.insert(all.end(), rows.begin(), rows.end());
  all.insert(all.end(), tail.begin(), tail.end());
  Table expected(src.schema());
  expected.AppendSelectedFrom(src, all.data(), all.size());
  ExpectSameRows(out, expected);
  EXPECT_EQ(out.Int64At(0, 6), src.Int64At(0, rows[1]));
  EXPECT_EQ(out.StringAt(2, 5), src.StringAt(2, rows[0]));
  EXPECT_EQ(out.DoubleAt(1, 29), src.DoubleAt(1, rows[24]));
}

TEST(TableGatherTest, ConcatWindowsTileLikeAppends) {
  // Two ranges' pair lists gathered into adjacent windows of one pre-sized
  // output equal the lists appended in order.
  const Table left = GatherSource(30);
  const Table right = GatherSource(9);
  const std::vector<uint32_t> l0 = ScatteredRows(12, left.num_rows());
  const std::vector<uint32_t> r0 = ScatteredRows(12, right.num_rows());
  const std::vector<uint32_t> l1 = ScatteredRows(7, 5);
  const std::vector<uint32_t> r1 = ScatteredRows(7, 3);
  const Schema concat = Schema::Concat(left.schema(), right.schema());
  Table out(concat);
  out.PresizeGather(l0.size() + l1.size(), left, &right);
  out.GatherConcatAt(l0.size(), left, l1.data(), right, r1.data(), l1.size());
  out.GatherConcatAt(0, left, l0.data(), right, r0.data(), l0.size());
  Table expected(concat);
  expected.AppendConcatSelected(left, l0.data(), right, r0.data(), l0.size());
  expected.AppendConcatSelected(left, l1.data(), right, r1.data(), l1.size());
  ExpectSameRows(out, expected);
  EXPECT_EQ(out.Int64At(0, 12), left.Int64At(0, l1[0]));
  EXPECT_EQ(out.DoubleAt(4, 13), right.DoubleAt(1, r1[1]));
  EXPECT_EQ(out.StringAt(5, 18), right.StringAt(2, r1[6]));
}

// A dense table holding `t`'s cells, copied value by value.
Table DenseCopy(const Table& t) {
  Table dense(t.schema());
  std::vector<Value> row(t.num_columns());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) row[c] = t.ValueAt(c, r);
    EXPECT_TRUE(dense.AppendRow(row).ok());
  }
  return dense;
}

TEST(TableGatherTest, GatherOfGatherEqualsDenseCopy) {
  const Table left = GatherSource(23);
  const Table right = GatherSource(8);
  const std::vector<uint32_t> lrows = ScatteredRows(40, left.num_rows());
  const std::vector<uint32_t> rrows = ScatteredRows(40, right.num_rows());
  Table join(Schema::Concat(left.schema(), right.schema()));
  join.AppendConcatSelected(left, lrows.data(), right, rrows.data(), lrows.size());
  const Table dense_join = DenseCopy(join);

  // Re-gathering the gathered join and a dense copy of it must agree cell
  // by cell, alone and concatenated with a base table.
  const std::vector<uint32_t> rows = ScatteredRows(31, join.num_rows());
  Table again(join.schema());
  again.AppendSelectedFrom(join, rows.data(), rows.size());
  Table dense_again(join.schema());
  dense_again.AppendSelectedFrom(dense_join, rows.data(), rows.size());
  ExpectSameRows(again, dense_again);

  const std::vector<uint32_t> brows = ScatteredRows(rows.size(), right.num_rows());
  const Schema wide = Schema::Concat(join.schema(), right.schema());
  Table three(wide);
  three.AppendConcatSelected(join, rows.data(), right, brows.data(), rows.size());
  Table dense_three(wide);
  dense_three.AppendConcatSelected(dense_join, rows.data(), right, brows.data(),
                                   rows.size());
  ExpectSameRows(three, dense_three);
  EXPECT_EQ(three.StringAt(2, 3), left.StringAt(2, lrows[rows[3]]));
}

TEST(TableGatherTest, ApproxBytesOfGatheredTableIsFourBytesPerGroupRow) {
  // Ids never chain: a gather of a gather has one group per base store,
  // however many gathers deep, and costs rows x groups x 4 bytes.
  const Table left = GatherSource(23);
  const Table right = GatherSource(8);
  const std::vector<uint32_t> lrows = ScatteredRows(40, left.num_rows());
  const std::vector<uint32_t> rrows = ScatteredRows(40, right.num_rows());
  Table join(Schema::Concat(left.schema(), right.schema()));
  join.AppendConcatSelected(left, lrows.data(), right, rrows.data(), lrows.size());
  EXPECT_EQ(join.ApproxBytes(), 40u * 2 * sizeof(uint32_t));
  const std::vector<uint32_t> rows = ScatteredRows(17, join.num_rows());
  Table again(join.schema());
  again.AppendSelectedFrom(join, rows.data(), rows.size());
  EXPECT_EQ(again.ApproxBytes(), 17u * 2 * sizeof(uint32_t));
  const std::vector<uint32_t> rows3 = ScatteredRows(9, again.num_rows());
  Table third(again.schema());
  third.AppendSelectedFrom(again, rows3.data(), rows3.size());
  EXPECT_EQ(third.ApproxBytes(), 9u * 2 * sizeof(uint32_t));
  EXPECT_LT(third.ApproxBytes(), DenseCopy(third).ApproxBytes());
}

TEST(TableGatherTest, GatheredTableOutlivesItsSource) {
  auto src = std::make_shared<Table>(GatherSource(12));
  const std::vector<uint32_t> rows = ScatteredRows(9, src->num_rows());
  Table out(src->schema());
  out.AppendSelectedFrom(*src, rows.data(), rows.size());
  const Table expected = DenseCopy(out);
  TablePtr ptr = std::move(src);
  ptr.reset();  // the store lives on in `out`
  ExpectSameRows(out, expected);
  EXPECT_EQ(out.StringAt(2, 8), expected.StringAt(2, 8));
}

TEST(TableGatherTest, CopiesAreIndependent) {
  // AppendRow on a copy copies the shared store first.
  const Table original = GatherSource(3);
  Table copy = original;
  ASSERT_TRUE(copy.AppendRow({Value(int64_t{-1}), Value(-1.0), Value("new")}).ok());
  EXPECT_EQ(copy.num_rows(), 4u);
  EXPECT_EQ(copy.StringAt(2, 3), "new");
  ExpectSameRows(original, GatherSource(3));
  copy.PopRow();
  copy.PopRow();
  ExpectSameRows(original, GatherSource(3));

  // A copied gathered table reads through its own ids.
  const std::vector<uint32_t> rows = {2, 0, 1, 2};
  auto gathered = std::make_unique<Table>(original.schema());
  gathered->AppendSelectedFrom(original, rows.data(), rows.size());
  Table gathered_copy(*gathered);
  const Table expected = DenseCopy(*gathered);
  gathered.reset();
  ExpectSameRows(gathered_copy, expected);
  Table assigned;
  assigned = gathered_copy;
  gathered_copy.PopRow();
  ExpectSameRows(assigned, expected);
}

TEST(TableGatherTest, ClearRowsThenReappendFromTheSameSources) {
  const Table left = GatherSource(15);
  const Table right = GatherSource(6);
  const std::vector<uint32_t> l0 = ScatteredRows(10, left.num_rows());
  const std::vector<uint32_t> r0 = ScatteredRows(10, right.num_rows());
  const std::vector<uint32_t> l1 = {3, 14, 0};
  const std::vector<uint32_t> r1 = {5, 5, 1};
  const Schema concat = Schema::Concat(left.schema(), right.schema());
  Table staging(concat);
  staging.AppendConcatSelected(left, l0.data(), right, r0.data(), l0.size());
  staging.ClearRows();
  EXPECT_EQ(staging.num_rows(), 0u);
  staging.AppendConcatSelected(left, l1.data(), right, r1.data(), l1.size());
  Table fresh(concat);
  fresh.AppendConcatSelected(left, l1.data(), right, r1.data(), l1.size());
  ExpectSameRows(staging, fresh);
  // Emptied, the table adopts another layout.
  staging.ClearRows();
  staging.AppendConcatSelected(right, r1.data(), left, l1.data(), l1.size());
  EXPECT_EQ(staging.Int64At(0, 0), right.Int64At(0, r1[0]));
}

TEST(TableGatherDeathTest, AppendFromAnotherLayoutFails) {
  const Table src = GatherSource(5);
  const Table other = GatherSource(5);
  const std::vector<uint32_t> rows = {0, 1, 2};
  Table out(src.schema());
  out.AppendSelectedFrom(src, rows.data(), rows.size());
  EXPECT_DEATH(out.AppendSelectedFrom(other, rows.data(), 1), "another layout");
  Table dense = GatherSource(2);
  EXPECT_DEATH(dense.AppendSelectedFrom(src, rows.data(), 1), "another layout");
}

TEST(TableMiscTest, ApproxBytesGrowsWithData) {
  Table t(Schema({{"s", ValueType::kString}}));
  size_t empty = t.ApproxBytes();
  ASSERT_TRUE(t.AppendRow({Value(std::string(1000, 'x'))}).ok());
  EXPECT_GT(t.ApproxBytes(), empty + 500);
}

TEST(TableMiscTest, ToStringShowsRowsAndTruncates) {
  Table t(Schema({{"a", ValueType::kInt64}}));
  for (int64_t i = 0; i < 15; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i)}).ok());
  }
  std::string rendered = t.ToString(3);
  EXPECT_NE(rendered.find("rows=15"), std::string::npos);
  EXPECT_NE(rendered.find("more"), std::string::npos);
}

}  // namespace
}  // namespace monsoon
