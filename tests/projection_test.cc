#include <gtest/gtest.h>

#include "exec/projection.h"

namespace monsoon {
namespace {

class ProjectionTest : public ::testing::Test {
 protected:
  ProjectionTest()
      : table_(Schema({{"a.x", ValueType::kInt64},
                       {"a.y", ValueType::kDouble},
                       {"b.s", ValueType::kString}})) {
    for (int64_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(table_
                      .AppendRow({Value(i), Value(i * 0.5),
                                  Value("s" + std::to_string(9 - i))})
                      .ok());
    }
  }
  Table table_;
};

TEST_F(ProjectionTest, StarKeepsEverything) {
  auto out = ApplySelect(table_, {SelectItem::Star()});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 5u);
  EXPECT_EQ((*out)->num_columns(), 3u);
}

TEST_F(ProjectionTest, AttributeProjectionReordersColumns) {
  auto out = ApplySelect(
      table_, {SelectItem::Attribute("b.s"), SelectItem::Attribute("a.x")});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_columns(), 2u);
  EXPECT_EQ((*out)->schema().column(0).name, "b.s");
  EXPECT_EQ((*out)->StringAt(0, 0), "s9");
  EXPECT_EQ((*out)->Int64At(1, 4), 4);
}

TEST_F(ProjectionTest, UnknownAttributeFails) {
  EXPECT_FALSE(ApplySelect(table_, {SelectItem::Attribute("a.zz")}).ok());
  EXPECT_FALSE(ApplySelect(table_, {}).ok());
}

TEST_F(ProjectionTest, CountStar) {
  auto out = ApplySelect(
      table_, {SelectItem::Aggregate(SelectItem::Kind::kCount, "")});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 1u);
  EXPECT_EQ((*out)->Int64At(0, 0), 5);
}

TEST_F(ProjectionTest, SumMinMaxAvg) {
  auto out = ApplySelect(
      table_, {SelectItem::Aggregate(SelectItem::Kind::kSum, "a.x"),
               SelectItem::Aggregate(SelectItem::Kind::kMin, "a.y"),
               SelectItem::Aggregate(SelectItem::Kind::kMax, "b.s"),
               SelectItem::Aggregate(SelectItem::Kind::kAvg, "a.x")});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 1u);
  EXPECT_DOUBLE_EQ((*out)->DoubleAt(0, 0), 10.0);   // 0+1+2+3+4
  EXPECT_DOUBLE_EQ((*out)->DoubleAt(1, 0), 0.0);    // min y
  EXPECT_EQ((*out)->StringAt(2, 0), "s9");          // lexicographic max
  EXPECT_DOUBLE_EQ((*out)->DoubleAt(3, 0), 2.0);    // avg x
  EXPECT_EQ((*out)->schema().column(0).name, "SUM(a.x)");
}

TEST_F(ProjectionTest, SumOverStringsFails) {
  EXPECT_FALSE(
      ApplySelect(table_, {SelectItem::Aggregate(SelectItem::Kind::kSum, "b.s")})
          .ok());
}

TEST_F(ProjectionTest, MixedAggregateAndAttributeFails) {
  auto out = ApplySelect(
      table_, {SelectItem::Aggregate(SelectItem::Kind::kCount, ""),
               SelectItem::Attribute("a.x")});
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

TEST_F(ProjectionTest, AggregatesOverEmptyInput) {
  Table empty(table_.schema());
  auto count = ApplySelect(
      empty, {SelectItem::Aggregate(SelectItem::Kind::kCount, "")});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ((*count)->Int64At(0, 0), 0);
  EXPECT_FALSE(
      ApplySelect(empty, {SelectItem::Aggregate(SelectItem::Kind::kMin, "a.x")})
          .ok());
}

}  // namespace
}  // namespace monsoon
