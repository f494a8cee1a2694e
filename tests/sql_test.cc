#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sql/parser.h"

namespace monsoon {
namespace {

using sql_internal::Lex;
using sql_internal::TokenKind;

TEST(LexerTest, TokenKinds) {
  auto tokens = Lex("SELECT * FROM t WHERE f(a.b) = 'lit' AND x.y <> 3.5");
  ASSERT_TRUE(tokens.ok());
  // SELECT * FROM t WHERE f ( a . b ) = 'lit' AND x . y <> 3.5 END
  ASSERT_EQ(tokens->size(), 20u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[1].text, "*");
  EXPECT_EQ((*tokens)[11].text, "=");
  EXPECT_EQ((*tokens)[12].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[12].text, "lit");
  EXPECT_EQ((*tokens)[17].text, "<>");
  EXPECT_EQ((*tokens)[18].kind, TokenKind::kNumber);
  EXPECT_EQ((*tokens)[18].text, "3.5");
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, NegativeNumbers) {
  auto tokens = Lex("x = -42");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].text, "-42");
}

TEST(LexerTest, UnterminatedString) {
  EXPECT_EQ(Lex("WHERE a = 'oops").status().code(), StatusCode::kInvalidArgument);
}

TEST(LexerTest, StrayCharacter) {
  EXPECT_EQ(Lex("SELECT @").status().code(), StatusCode::kInvalidArgument);
}

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto orders = std::make_shared<Table>(Schema({{"okey", ValueType::kInt64},
                                                  {"cust", ValueType::kInt64},
                                                  {"date", ValueType::kString}}));
    ASSERT_TRUE(orders->AppendRow({Value(int64_t{1}), Value(int64_t{2}),
                                   Value("2020-01-01")})
                    .ok());
    ASSERT_TRUE(catalog_.AddTable("orders", orders).ok());
    auto cust = std::make_shared<Table>(
        Schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}}));
    ASSERT_TRUE(cust->AppendRow({Value(int64_t{2}), Value("alice")}).ok());
    ASSERT_TRUE(catalog_.AddTable("cust", cust).ok());
  }

  StatusOr<QuerySpec> Parse(const std::string& sql) {
    return SqlParser(&catalog_).Parse(sql);
  }

  Catalog catalog_;
};

TEST_F(ParserTest, BasicJoinQuery) {
  auto query = Parse("SELECT * FROM orders o, cust c WHERE o.cust = c.id");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->num_relations(), 2);
  EXPECT_EQ(query->relation(0).alias, "o");
  EXPECT_EQ(query->relation(0).table_name, "orders");
  ASSERT_EQ(query->num_predicates(), 1);
  const Predicate& pred = query->predicate(0);
  EXPECT_EQ(pred.kind, Predicate::Kind::kJoin);
  EXPECT_TRUE(pred.IsEquiJoin());
  // Bare int attributes are wrapped in identity.
  EXPECT_EQ(pred.left.function, "identity");
  EXPECT_EQ(pred.left.args[0], "o.cust");
}

TEST_F(ParserTest, BareStringAttributeUsesIdentityStr) {
  auto query = Parse("SELECT * FROM cust c WHERE c.name = 'alice'");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->predicate(0).left.function, "identity_str");
  EXPECT_EQ(query->predicate(0).kind, Predicate::Kind::kSelection);
  EXPECT_EQ(query->predicate(0).constant, Value("alice"));
}

TEST_F(ParserTest, UdfCallWithArgs) {
  auto query = Parse(
      "SELECT * FROM orders o WHERE extract_date(o.date) = '2020-01-01'");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->predicate(0).left.function, "extract_date");
}

TEST_F(ParserTest, MultiArgUdfSpansRelations) {
  auto query = Parse(
      "SELECT * FROM orders o, cust c "
      "WHERE pair_key(o.cust, c.id) = identity(o.okey)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->predicate(0).left.rels.count(), 2);
  EXPECT_FALSE(query->predicate(0).IsEquiJoin());  // sides overlap on o
}

TEST_F(ParserTest, ConstantOnLeftSide) {
  auto query = Parse("SELECT * FROM cust c WHERE 'alice' = c.name");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->predicate(0).kind, Predicate::Kind::kSelection);
}

TEST_F(ParserTest, IntAndDoubleLiterals) {
  auto q1 = Parse("SELECT * FROM orders o WHERE o.cust = 5");
  ASSERT_TRUE(q1.ok());
  EXPECT_TRUE(q1->predicate(0).constant.is_int64());
  auto q2 = Parse("SELECT * FROM orders o WHERE o.cust = 5.5");
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(q2->predicate(0).constant.is_double());
  for (const auto& [literal, expect] :
       std::vector<std::pair<std::string, Value>>{{"-5", Value(int64_t{-5})},
                                                  {"42", Value(int64_t{42})},
                                                  {"2.5", Value(2.5)}}) {
    SCOPED_TRACE(literal);
    auto query = Parse("SELECT * FROM orders o WHERE o.cust = " + literal);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    EXPECT_EQ(query->predicate(0).constant, expect);
    EXPECT_EQ(query->predicate(0).constant.type(), expect.type());
  }
}

TEST_F(ParserTest, OutOfRangeAndMalformedLiteralsFailTheParse) {
  for (const std::string literal :
       {"99999999999999999999", "-99999999999999999999", "1.2.3"}) {
    SCOPED_TRACE(literal);
    auto query = Parse("SELECT * FROM orders o WHERE o.cust = " + literal);
    ASSERT_FALSE(query.ok());
    EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(query.status().message().find("'" + literal + "'"),
              std::string::npos)
        << query.status().ToString();
  }
}

TEST_F(ParserTest, NotEqualJoin) {
  auto query = Parse("SELECT * FROM orders a, orders b WHERE a.okey <> b.okey");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(query->predicate(0).equality);
}

TEST_F(ParserTest, SelectListVariants) {
  auto attrs = Parse("SELECT o.okey, c.name FROM orders o, cust c "
                     "WHERE o.cust = c.id");
  ASSERT_TRUE(attrs.ok());
  ASSERT_EQ(attrs->select_items().size(), 2u);
  EXPECT_EQ(attrs->select_items()[0].kind, SelectItem::Kind::kAttribute);
  EXPECT_EQ(attrs->select_items()[0].attribute, "o.okey");

  auto agg = Parse("SELECT SUM(o.okey), COUNT(*) FROM orders o WHERE o.cust = 1");
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->select_items().size(), 2u);
  EXPECT_EQ(agg->select_items()[0].kind, SelectItem::Kind::kSum);
  EXPECT_EQ(agg->select_items()[1].kind, SelectItem::Kind::kCount);
  EXPECT_TRUE(agg->select_items()[1].attribute.empty());

  auto star = Parse("SELECT * FROM orders o WHERE o.cust = 1");
  ASSERT_TRUE(star.ok());
  ASSERT_EQ(star->select_items().size(), 1u);
  EXPECT_EQ(star->select_items()[0].kind, SelectItem::Kind::kStar);

  // Unknown select-list attributes are rejected.
  EXPECT_FALSE(Parse("SELECT o.nope FROM orders o WHERE o.cust = 1").ok());
  EXPECT_FALSE(Parse("SELECT SUM(*) FROM orders o WHERE o.cust = 1").ok());
}

TEST_F(ParserTest, DefaultAliasIsTableName) {
  auto query = Parse("SELECT * FROM orders WHERE orders.cust = 1");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->relation(0).alias, "orders");
}

TEST_F(ParserTest, Errors) {
  EXPECT_FALSE(Parse("FROM orders").ok());                      // missing SELECT
  EXPECT_FALSE(Parse("SELECT * FROM nope").ok());               // unknown table
  EXPECT_FALSE(Parse("SELECT * FROM orders o WHERE").ok());     // empty WHERE
  EXPECT_FALSE(Parse("SELECT * FROM orders o WHERE o.cust").ok());  // no operator
  EXPECT_FALSE(Parse("SELECT * FROM orders o WHERE 1 = 2").ok());   // no attr
  EXPECT_FALSE(
      Parse("SELECT * FROM orders o WHERE nosuch(o.cust) = 1").ok());  // bad UDF
  EXPECT_FALSE(
      Parse("SELECT * FROM orders o WHERE o.cust = 1 trailing").ok());
  EXPECT_FALSE(Parse("SELECT * FROM orders o WHERE o.cust <> 1").ok())
      << "'<>' against a constant is unsupported";
}

TEST_F(ParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(Parse("select * from orders o where o.cust = 1").ok());
}

}  // namespace
}  // namespace monsoon
