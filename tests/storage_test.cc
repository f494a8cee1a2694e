#include <gtest/gtest.h>

#include <algorithm>
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

TEST_F(TableTest, RowRefAccess) {
  ASSERT_TRUE(table_.AppendRow({Value(int64_t{9}), Value(2.0), Value("r")}).ok());
  RowRef row = table_.row(0);
  EXPECT_EQ(row.GetInt64(0), 9);
  EXPECT_DOUBLE_EQ(row.GetDouble(1), 2.0);
  EXPECT_EQ(row.GetString(2), "r");
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

TEST(TableConcatTest, AppendRowFrom) {
  Table src(Schema({{"a", ValueType::kInt64}, {"s", ValueType::kString}}));
  ASSERT_TRUE(src.AppendRow({Value(int64_t{5}), Value("v")}).ok());
  Table dst(src.schema());
  dst.AppendRowFrom(src, 0);
  EXPECT_EQ(dst.num_rows(), 1u);
  EXPECT_EQ(dst.Int64At(0, 0), 5);
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

TEST(TableGatherTest, ResizeRowsAddsBlankRowsAndDrops) {
  Table t = GatherSource(3);
  t.ResizeRows(5);
  ASSERT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.Int64At(0, 2), 6);
  EXPECT_EQ(t.Int64At(0, 4), 0);
  EXPECT_EQ(t.DoubleAt(1, 3), 0.0);
  EXPECT_EQ(t.StringAt(2, 4), "");
  t.ResizeRows(1);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.StringAt(2, 0), GatherSource(1).StringAt(2, 0));
}

TEST(TableGatherTest, WindowGatherFillsOnlyItsWindow) {
  const Table src = GatherSource(40);
  const std::vector<uint32_t> rows = ScatteredRows(25, src.num_rows());
  Table out(src.schema());
  out.ResizeRows(5 + rows.size() + 4);
  out.GatherAt(5, src, rows.data(), rows.size());
  Table expected(src.schema());
  expected.ResizeRows(5);
  expected.AppendSelectedFrom(src, rows.data(), rows.size());
  expected.ResizeRows(5 + rows.size() + 4);
  ExpectSameRows(out, expected);
  EXPECT_EQ(out.StringAt(2, 5), src.StringAt(2, rows[0]));
  EXPECT_EQ(out.DoubleAt(1, 29), src.DoubleAt(1, rows[24]));
  EXPECT_EQ(out.StringAt(2, 4), "");
  EXPECT_EQ(out.StringAt(2, 30), "");
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
  out.ResizeRows(l0.size() + l1.size());
  out.GatherConcatAt(l0.size(), left, l1.data(), right, r1.data(), l1.size());
  out.GatherConcatAt(0, left, l0.data(), right, r0.data(), l0.size());
  Table expected(concat);
  expected.AppendConcatSelected(left, l0.data(), right, r0.data(), l0.size());
  expected.AppendConcatSelected(left, l1.data(), right, r1.data(), l1.size());
  ExpectSameRows(out, expected);
  EXPECT_EQ(out.Int64At(0, 12), left.Int64At(0, l1[0]));
  EXPECT_EQ(out.StringAt(5, 18), right.StringAt(2, r1[6]));
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
