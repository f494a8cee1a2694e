#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "expr/udf.h"
#include "query/query_spec.h"

namespace monsoon {
namespace {

TablePtr OneColumnTable(const char* column) {
  auto t = std::make_shared<Table>(
      Schema({{column, ValueType::kInt64}}));
  EXPECT_TRUE(t->AppendRow({Value(int64_t{1})}).ok());
  return t;
}

TEST(CatalogTest, AddAndGet) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", OneColumnTable("a")).ok());
  EXPECT_TRUE(catalog.HasTable("t"));
  EXPECT_FALSE(catalog.HasTable("u"));
  EXPECT_TRUE(catalog.GetTable("t").ok());
  EXPECT_EQ(catalog.GetTable("u").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*catalog.RowCount("t"), 1u);
}

TEST(CatalogTest, DuplicateRejectedButPutReplaces) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", OneColumnTable("a")).ok());
  EXPECT_EQ(catalog.AddTable("t", OneColumnTable("a")).code(),
            StatusCode::kAlreadyExists);
  auto bigger = std::make_shared<Table>(Schema({{"a", ValueType::kInt64}}));
  ASSERT_TRUE(bigger->AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(bigger->AppendRow({Value(int64_t{2})}).ok());
  catalog.PutTable("t", bigger);
  EXPECT_EQ(*catalog.RowCount("t"), 2u);
}

TEST(CatalogTest, NullTableRejected) {
  Catalog catalog;
  EXPECT_EQ(catalog.AddTable("t", nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("zeta", OneColumnTable("a")).ok());
  ASSERT_TRUE(catalog.AddTable("alpha", OneColumnTable("a")).ok());
  auto names = catalog.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
}

TEST(CatalogTest, ValidateQueryChecksTablesAndColumns) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", OneColumnTable("a")).ok());

  QuerySpec good;
  ASSERT_TRUE(good.AddRelation("x", "t").ok());
  auto term = good.MakeTerm("identity", {"x.a"});
  ASSERT_TRUE(good.AddSelectionPredicate(std::move(*term), Value(int64_t{1})).ok());
  EXPECT_TRUE(catalog.ValidateQuery(good).ok());

  QuerySpec bad_table;
  ASSERT_TRUE(bad_table.AddRelation("x", "missing").ok());
  EXPECT_EQ(catalog.ValidateQuery(bad_table).code(), StatusCode::kNotFound);

  QuerySpec bad_column;
  ASSERT_TRUE(bad_column.AddRelation("x", "t").ok());
  auto bad_term = bad_column.MakeTerm("identity", {"x.zz"});
  ASSERT_TRUE(
      bad_column.AddSelectionPredicate(std::move(*bad_term), Value(int64_t{1})).ok());
  EXPECT_EQ(catalog.ValidateQuery(bad_column).code(), StatusCode::kNotFound);
}

TEST(UdfRegistryTest, RegisterAndLookup) {
  UdfRegistry registry;
  UdfFunction fn = Int64Udf("f", [] { return int64_t{1}; });
  ASSERT_TRUE(registry.Register(fn).ok());
  EXPECT_EQ(registry.Register(fn).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(registry.Contains("f"));
  EXPECT_TRUE(registry.Lookup("f").ok());
  EXPECT_EQ(registry.Lookup("g").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Names().size(), 1u);
}

TEST(UdfRegistryTest, EmptyNameRejected) {
  UdfRegistry registry;
  UdfFunction fn;
  EXPECT_EQ(registry.Register(fn).code(), StatusCode::kInvalidArgument);
}

TEST(UdfRegistryTest, GlobalHasBuiltins) {
  // Exactly the list RegisterBuiltinUdfs documents (expr/udf.h), in
  // Names()' sorted order; this suite registers nothing globally.
  EXPECT_EQ(UdfRegistry::Global().Names(),
            (std::vector<std::string>{
                "bucket10", "bucket100", "bucket1000", "bucket10000",
                "canonical_set", "city_from_ip", "concat2", "extract_author",
                "extract_date", "extract_id", "identity", "identity_str",
                "pair_key"}));
}

class BuiltinUdfTest : public ::testing::Test {
 protected:
  Value Eval(const char* udf, std::vector<Value> args) {
    std::vector<ColumnDef> cols;
    std::vector<size_t> indices;
    for (size_t i = 0; i < args.size(); ++i) {
      cols.push_back({"c" + std::to_string(i), args[i].type()});
      indices.push_back(i);
    }
    Table table{Schema(cols)};
    EXPECT_TRUE(table.AppendRow(args).ok());
    auto fn = UdfRegistry::Global().Lookup(udf);
    EXPECT_TRUE(fn.ok());
    // One row through the kernel; only the result type's slot is written.
    int64_t i64 = 0;
    std::string str;
    uint64_t str_hash = 0;
    UdfSlots out;
    if ((*fn)->result_type == ValueType::kString) {
      out.str = &str;
      out.str_hash = &str_hash;
    } else {
      out.i64 = &i64;
    }
    (*fn)->kernel(table, indices, UdfRows::Range(0, 1), out);
    if ((*fn)->result_type != ValueType::kString) return Value(i64);
    EXPECT_EQ(str_hash, Value(str).Hash());
    return Value(str);
  }
};

TEST_F(BuiltinUdfTest, Identity) {
  EXPECT_EQ(Eval("identity", {Value(int64_t{42})}), Value(int64_t{42}));
  EXPECT_EQ(Eval("identity_str", {Value("x")}), Value("x"));
}

TEST_F(BuiltinUdfTest, BucketStaysInRange) {
  for (int64_t v : {0, 5, 123456, -77}) {
    Value b = Eval("bucket100", {Value(v)});
    ASSERT_TRUE(b.is_int64());
    EXPECT_GE(b.AsInt64(), 0);
    EXPECT_LT(b.AsInt64(), 100);
  }
}

TEST_F(BuiltinUdfTest, ExtractFields) {
  Value text(std::string("id=\"D17\" url=\"u\" author=\"A3\" body=\"x\""));
  EXPECT_EQ(Eval("extract_id", {text}), Value("D17"));
  EXPECT_EQ(Eval("extract_author", {text}), Value("A3"));
  EXPECT_EQ(Eval("extract_id", {Value("no markers")}), Value(""));
}

TEST_F(BuiltinUdfTest, ExtractDate) {
  EXPECT_EQ(Eval("extract_date", {Value("2019-01-11 23:59")}), Value("2019-01-11"));
  EXPECT_EQ(Eval("extract_date", {Value("short")}), Value("short"));
}

TEST_F(BuiltinUdfTest, CityFromIpGroupsBySixteen) {
  Value a = Eval("city_from_ip", {Value("10.1.2.3")});
  Value b = Eval("city_from_ip", {Value("10.1.99.200")});
  Value c = Eval("city_from_ip", {Value("10.2.2.3")});
  EXPECT_EQ(a, b) << "same /16 -> same city";
  EXPECT_NE(a, c);
}

TEST_F(BuiltinUdfTest, CanonicalSetSortsAndDedupes) {
  EXPECT_EQ(Eval("canonical_set", {Value("b, a, b,c")}), Value("a,b,c"));
  EXPECT_EQ(Eval("canonical_set", {Value("c,b,a")}),
            Eval("canonical_set", {Value("a , b , c")}));
}

TEST_F(BuiltinUdfTest, PairKeyDependsOnBothArgs) {
  Value ab = Eval("pair_key", {Value(int64_t{1}), Value(int64_t{2})});
  Value ba = Eval("pair_key", {Value(int64_t{2}), Value(int64_t{1})});
  Value ab2 = Eval("pair_key", {Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_EQ(ab, ab2);
  EXPECT_NE(ab, ba);
}

TEST_F(BuiltinUdfTest, Concat2) {
  EXPECT_EQ(Eval("concat2", {Value("a"), Value("b")}), Value("a|b"));
}

}  // namespace
}  // namespace monsoon
