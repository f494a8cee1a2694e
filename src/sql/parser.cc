#include "sql/parser.h"

#include <cctype>
#include <optional>

#include "common/env.h"
#include "common/string_util.h"
#include "expr/udf.h"

namespace monsoon {

namespace sql_internal {

StatusOr<std::vector<Token>> Lex(std::string_view sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < sql.size()) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t begin = i;
      while (i < sql.size() && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                                sql[i] == '_')) {
        ++i;
      }
      tokens.push_back(Token{TokenKind::kIdent,
                             std::string(sql.substr(begin, i - begin)), begin});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < sql.size() &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t begin = i;
      ++i;
      while (i < sql.size() && (std::isdigit(static_cast<unsigned char>(sql[i])) ||
                                sql[i] == '.')) {
        ++i;
      }
      tokens.push_back(Token{TokenKind::kNumber,
                             std::string(sql.substr(begin, i - begin)), begin});
      continue;
    }
    if (c == '\'') {
      size_t begin = ++i;
      while (i < sql.size() && sql[i] != '\'') ++i;
      if (i >= sql.size()) {
        return Status::InvalidArgument("unterminated string literal at offset " +
                                       std::to_string(begin - 1));
      }
      tokens.push_back(Token{TokenKind::kString,
                             std::string(sql.substr(begin, i - begin)), begin - 1});
      ++i;
      continue;
    }
    if (c == '<' && i + 1 < sql.size() && sql[i + 1] == '>') {
      tokens.push_back(Token{TokenKind::kSymbol, "<>", i});
      i += 2;
      continue;
    }
    if (c == '(' || c == ')' || c == ',' || c == '.' || c == '*' || c == '=') {
      tokens.push_back(Token{TokenKind::kSymbol, std::string(1, c), i});
      ++i;
      continue;
    }
    return Status::InvalidArgument("unexpected character '" + std::string(1, c) +
                                   "' at offset " + std::to_string(i));
  }
  tokens.push_back(Token{TokenKind::kEnd, "", sql.size()});
  return tokens;
}

}  // namespace sql_internal

namespace {

using sql_internal::Lex;
using sql_internal::Token;
using sql_internal::TokenKind;

// Recursive-descent parser state.
class ParserImpl {
 public:
  ParserImpl(const Catalog* catalog, std::vector<Token> tokens)
      : catalog_(catalog), tokens_(std::move(tokens)) {}

  StatusOr<QuerySpec> Run() {
    MONSOON_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    MONSOON_RETURN_IF_ERROR(ParseSelectList());
    MONSOON_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    MONSOON_RETURN_IF_ERROR(ParseFromList());
    if (AtKeyword("WHERE")) {
      Advance();
      MONSOON_RETURN_IF_ERROR(ParsePredicates());
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after query");
    }
    // The FROM list is parsed after SELECT, so select-list attribute
    // references are validated here.
    for (const SelectItem& item : select_items_) {
      if (!item.attribute.empty()) {
        size_t dot = item.attribute.find('.');
        MONSOON_RETURN_IF_ERROR(
            AttrType(item.attribute.substr(0, dot), item.attribute.substr(dot + 1))
                .status());
      }
    }
    query_.set_select_items(std::move(select_items_));
    MONSOON_RETURN_IF_ERROR(query_.Validate());
    return std::move(query_);
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool AtKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kIdent && EqualsIgnoreCase(Peek().text, kw);
  }
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " (at offset " +
                                   std::to_string(Peek().position) + ")");
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AtKeyword(kw)) return Error("expected " + std::string(kw));
    Advance();
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view sym) {
    if (Peek().kind != TokenKind::kSymbol || Peek().text != sym) {
      return Error("expected '" + std::string(sym) + "'");
    }
    Advance();
    return Status::OK();
  }
  bool AtSymbol(std::string_view sym) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == sym;
  }

  // SELECT list: '*', qualified attributes, or aggregates
  // (COUNT(*|attr), SUM/MIN/MAX/AVG(attr)).
  Status ParseSelectList() {
    for (;;) {
      if (AtSymbol("*")) {
        Advance();
        select_items_.push_back(SelectItem::Star());
      } else {
        if (Peek().kind != TokenKind::kIdent) return Error("expected select item");
        std::string first = Peek().text;
        SelectItem::Kind agg = SelectItem::Kind::kAttribute;
        if (EqualsIgnoreCase(first, "COUNT")) agg = SelectItem::Kind::kCount;
        if (EqualsIgnoreCase(first, "SUM")) agg = SelectItem::Kind::kSum;
        if (EqualsIgnoreCase(first, "MIN")) agg = SelectItem::Kind::kMin;
        if (EqualsIgnoreCase(first, "MAX")) agg = SelectItem::Kind::kMax;
        if (EqualsIgnoreCase(first, "AVG")) agg = SelectItem::Kind::kAvg;
        if (agg != SelectItem::Kind::kAttribute && Peek(1).kind == TokenKind::kSymbol &&
            Peek(1).text == "(") {
          Advance();  // aggregate name
          Advance();  // '('
          std::string attr;
          if (AtSymbol("*")) {
            if (agg != SelectItem::Kind::kCount) {
              return Error("only COUNT accepts '*'");
            }
            Advance();
          } else {
            MONSOON_ASSIGN_OR_RETURN(attr, ParseQualifiedAttr());
          }
          MONSOON_RETURN_IF_ERROR(ExpectSymbol(")"));
          select_items_.push_back(SelectItem::Aggregate(agg, std::move(attr)));
        } else {
          MONSOON_ASSIGN_OR_RETURN(std::string attr, ParseQualifiedAttr());
          select_items_.push_back(SelectItem::Attribute(std::move(attr)));
        }
      }
      if (!AtSymbol(",")) break;
      Advance();
    }
    return Status::OK();
  }

  Status ParseFromList() {
    for (;;) {
      if (Peek().kind != TokenKind::kIdent) return Error("expected table name");
      std::string table = Peek().text;
      Advance();
      std::string alias = table;
      if (Peek().kind == TokenKind::kIdent && !AtKeyword("WHERE")) {
        alias = Peek().text;
        Advance();
      }
      if (!catalog_->HasTable(table)) {
        return Status::NotFound("unknown table '" + table + "'");
      }
      MONSOON_ASSIGN_OR_RETURN(int idx, query_.AddRelation(alias, table));
      (void)idx;
      if (!AtSymbol(",")) break;
      Advance();
    }
    return Status::OK();
  }

  Status ParsePredicates() {
    for (;;) {
      MONSOON_RETURN_IF_ERROR(ParsePredicate());
      if (!AtKeyword("AND")) break;
      Advance();
    }
    return Status::OK();
  }

  // A parsed comparison operand: a UDF term or a literal.
  struct Operand {
    std::optional<UdfTerm> term;
    std::optional<Value> literal;
  };

  Status ParsePredicate() {
    MONSOON_ASSIGN_OR_RETURN(Operand left, ParseOperand());
    bool equality;
    if (AtSymbol("=")) {
      equality = true;
    } else if (AtSymbol("<>")) {
      equality = false;
    } else {
      return Error("expected '=' or '<>'");
    }
    Advance();
    MONSOON_ASSIGN_OR_RETURN(Operand right, ParseOperand());

    if (left.term.has_value() && right.term.has_value()) {
      return query_.AddJoinPredicate(std::move(*left.term), std::move(*right.term),
                                     equality);
    }
    if (left.term.has_value() && right.literal.has_value()) {
      if (!equality) return Error("'<>' against a constant is not supported");
      return query_.AddSelectionPredicate(std::move(*left.term),
                                          std::move(*right.literal));
    }
    if (right.term.has_value() && left.literal.has_value()) {
      if (!equality) return Error("'<>' against a constant is not supported");
      return query_.AddSelectionPredicate(std::move(*right.term),
                                          std::move(*left.literal));
    }
    return Error("a predicate must reference at least one attribute");
  }

  StatusOr<Operand> ParseOperand() {
    Operand operand;
    if (Peek().kind == TokenKind::kNumber) {
      // The whole token, in range: "1.2.3" and literals past int64 or the
      // finite doubles fail the parse instead of reading a prefix or
      // throwing.
      const std::string& text = Peek().text;
      if (text.find('.') != std::string::npos) {
        std::optional<double> number = ParseNumber(text, kFiniteDoubleRange);
        if (!number.has_value()) return Error("invalid number '" + text + "'");
        operand.literal = Value(*number);
      } else {
        std::optional<int64_t> number = ParseNumber(text, kInt64Range);
        if (!number.has_value()) return Error("invalid number '" + text + "'");
        operand.literal = Value(*number);
      }
      Advance();
      return operand;
    }
    if (Peek().kind == TokenKind::kString) {
      operand.literal = Value(Peek().text);
      Advance();
      return operand;
    }
    if (Peek().kind != TokenKind::kIdent) return Error("expected term");

    std::string first = Peek().text;
    Advance();
    if (AtSymbol("(")) {
      // UDF application.
      Advance();
      std::vector<std::string> args;
      for (;;) {
        MONSOON_ASSIGN_OR_RETURN(std::string attr, ParseQualifiedAttr());
        args.push_back(std::move(attr));
        if (AtSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      MONSOON_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (!UdfRegistry::Global().Contains(first)) {
        return Status::NotFound("unknown UDF '" + first + "'");
      }
      MONSOON_ASSIGN_OR_RETURN(UdfTerm term,
                               query_.MakeTerm(std::move(first), std::move(args)));
      operand.term = std::move(term);
      return operand;
    }
    // Bare qualified attribute: alias.column, wrapped in identity.
    MONSOON_RETURN_IF_ERROR(ExpectSymbol("."));
    if (Peek().kind != TokenKind::kIdent) return Error("expected column name");
    std::string column = Peek().text;
    Advance();
    std::string attr = first + "." + column;
    MONSOON_ASSIGN_OR_RETURN(ValueType type, AttrType(first, column));
    std::string fn = (type == ValueType::kString) ? "identity_str" : "identity";
    MONSOON_ASSIGN_OR_RETURN(UdfTerm term, query_.MakeTerm(fn, {attr}));
    operand.term = std::move(term);
    return operand;
  }

  StatusOr<std::string> ParseQualifiedAttr() {
    if (Peek().kind != TokenKind::kIdent) return Error("expected alias.column");
    std::string alias = Peek().text;
    Advance();
    MONSOON_RETURN_IF_ERROR(ExpectSymbol("."));
    if (Peek().kind != TokenKind::kIdent) return Error("expected column name");
    std::string column = Peek().text;
    Advance();
    return alias + "." + column;
  }

  StatusOr<ValueType> AttrType(const std::string& alias, const std::string& column) {
    MONSOON_ASSIGN_OR_RETURN(int rel, query_.RelationIndex(alias));
    MONSOON_ASSIGN_OR_RETURN(TablePtr table,
                             catalog_->GetTable(query_.relation(rel).table_name));
    MONSOON_ASSIGN_OR_RETURN(size_t col, table->schema().ColumnIndex(column));
    return table->schema().column(col).type;
  }

  const Catalog* catalog_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  QuerySpec query_;
  std::vector<SelectItem> select_items_;
};

}  // namespace

StatusOr<QuerySpec> SqlParser::Parse(std::string_view sql) const {
  MONSOON_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  ParserImpl parser(catalog_, std::move(tokens));
  return parser.Run();
}

}  // namespace monsoon
