#include "ast.h"

#include <set>

namespace monsoon::analyze {

namespace {

using lint::Token;
using lint::TokenKind;

/// Keywords that can be followed by `(` without introducing a function.
const std::set<std::string>& NonFunctionKeywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",   "switch",   "catch",  "return",
      "sizeof", "new",    "delete",  "throw",    "case",   "do",
      "else",   "static_assert", "alignof", "decltype", "typeid",
  };
  return kw;
}

bool IsQualifierWord(const std::string& s) {
  return s == "const" || s == "noexcept" || s == "override" || s == "final" ||
         s == "mutable" || s == "constexpr" || s == "inline" || s == "try";
}

class Parser {
 public:
  Parser(const lint::ScannedFile& file, std::vector<FunctionUnit>* out)
      : file_(file), toks_(file.tokens), out_(out) {}

  void Run() {
    size_t i = 0;
    while (i < toks_.size()) {
      size_t body = 0;
      FunctionUnit fn;
      if (MatchFunctionHead(i, &body, &fn.name, &fn.params)) {
        fn.path = file_.path;
        fn.line = toks_[body].line;
        enclosing_ = fn.name;
        enclosing_params_ = fn.params;
        size_t end = body;
        fn.body = ParseBlock(&end);
        enclosing_.clear();
        enclosing_params_.clear();
        out_->push_back(std::move(fn));
        i = end;
      } else {
        ++i;
      }
    }
  }

 private:
  const Token& Tok(size_t i) const { return toks_[i]; }
  bool Have(size_t i) const { return i < toks_.size(); }
  bool IsText(size_t i, const char* s) const {
    return Have(i) && toks_[i].text == s;
  }
  bool IsIdent(size_t i) const {
    return Have(i) && toks_[i].kind == TokenKind::kIdentifier;
  }

  // Skips a balanced group starting at `i` (which must be an opener) and
  // returns the index just past the matching closer. Preprocessor tokens
  // are transparent. Returns toks_.size() on unbalanced input.
  size_t SkipBalanced(size_t i, char open, char close) const {
    int depth = 0;
    const std::string o(1, open), c(1, close);
    for (; Have(i); ++i) {
      if (toks_[i].kind == TokenKind::kPreprocessor) continue;
      if (toks_[i].text == o) ++depth;
      else if (toks_[i].text == c && --depth == 0) return i + 1;
    }
    return toks_.size();
  }

  // Matches `name ( params ) [quals / ctor-inits] {` at token `i`. On
  // success sets *body to the index of the `{`, fills the qualified name
  // (walking back over `A::B::`) and the parameter tokens.
  bool MatchFunctionHead(size_t i, size_t* body, std::string* name,
                         std::vector<Token>* params) const {
    if (!IsIdent(i) || !IsText(i + 1, "(")) return false;
    if (NonFunctionKeywords().count(toks_[i].text) != 0) return false;
    // A member access / arrow receiver means this is a call, not a head.
    if (i >= 1 && toks_[i - 1].text == ".") return false;
    if (i >= 2 && toks_[i - 1].text == ">" && toks_[i - 2].text == "-") return false;

    // Parameter list.
    size_t close = SkipBalanced(i + 1, '(', ')');
    if (close >= toks_.size()) return false;
    size_t j = close;  // first token after ')'

    // Trailing qualifiers: `const`, `noexcept(...)`, `override`, `-> T`,
    // attribute groups. Anything else (`;`, `=`, `,`, `)`) is a declaration
    // or an expression — reject.
    while (Have(j)) {
      const Token& t = toks_[j];
      if (t.kind == TokenKind::kPreprocessor) { ++j; continue; }
      if (t.text == "{") break;
      if (t.kind == TokenKind::kIdentifier) {
        if (IsQualifierWord(t.text)) {
          ++j;
          if (IsText(j, "(")) j = SkipBalanced(j, '(', ')');
          continue;
        }
        return false;  // `Foo f(x) bar` — not a definition
      }
      if (t.text == "-" && IsText(j + 1, ">")) {  // trailing return type
        j += 2;
        while (Have(j) && (IsIdent(j) || toks_[j].text == ":" ||
                           toks_[j].text == "<" || toks_[j].text == ">" ||
                           toks_[j].text == "*" || toks_[j].text == "&")) {
          ++j;
        }
        continue;
      }
      if (t.text == ":") {  // constructor initializer list
        ++j;
        while (Have(j)) {
          if (!IsIdent(j)) return false;
          ++j;
          while (IsText(j, ":") && IsText(j + 1, ":")) {  // qualified member
            j += 2;
            if (!IsIdent(j)) return false;
            ++j;
          }
          if (IsText(j, "<")) j = SkipBalanced(j, '<', '>');
          if (IsText(j, "(")) j = SkipBalanced(j, '(', ')');
          else if (IsText(j, "{")) j = SkipBalanced(j, '{', '}');
          else return false;
          if (IsText(j, ",")) { ++j; continue; }
          break;
        }
        continue;  // expect `{` next
      }
      return false;
    }
    if (!IsText(j, "{")) return false;

    // Reject control shapes the keyword filter can't see: the token before
    // the name being `)` means `catch (...) name(` style nonsense; being a
    // string means a literal-operator. Both never happen for real heads.
    *body = j;
    for (size_t k = i + 2; k < close - 1; ++k) params->push_back(toks_[k]);
    // Qualified name: walk back over `A::` pairs.
    size_t first = i;
    while (first >= 3 && toks_[first - 1].text == ":" &&
           toks_[first - 2].text == ":" &&
           toks_[first - 3].kind == TokenKind::kIdentifier) {
      first -= 3;
    }
    std::string n;
    for (size_t k = first; k <= i; ++k) n += toks_[k].text;
    *name = n;
    return true;
  }

  Stmt ParseBlock(size_t* pos) {
    Stmt s;
    s.kind = StmtKind::kBlock;
    s.line = Tok(*pos).line;
    ++*pos;  // consume '{'
    while (Have(*pos)) {
      if (Tok(*pos).kind == TokenKind::kPreprocessor) { ++*pos; continue; }
      if (IsText(*pos, "}")) { ++*pos; break; }
      s.children.push_back(ParseStmt(pos));
    }
    return s;
  }

  Stmt ParseStmt(size_t* pos) {
    while (Have(*pos) && Tok(*pos).kind == TokenKind::kPreprocessor) ++*pos;
    Stmt s;
    if (!Have(*pos)) return s;
    const Token& t = Tok(*pos);
    s.line = t.line;

    if (t.text == "{") return ParseBlock(pos);

    if (t.text == "if") {
      s.kind = StmtKind::kIf;
      ++*pos;
      if (IsText(*pos, "constexpr")) ++*pos;
      CollectParenGroup(pos, &s.tokens);
      s.children.push_back(ParseStmt(pos));
      if (IsText(*pos, "else")) {
        s.has_else = true;
        ++*pos;
        s.children.push_back(ParseStmt(pos));
      }
      return s;
    }

    if (t.text == "for" || t.text == "while") {
      s.kind = StmtKind::kLoop;
      ++*pos;
      CollectParenGroup(pos, &s.tokens);
      s.cond_always_true = HeaderAlwaysTrue(t.text, s.tokens);
      s.children.push_back(ParseStmt(pos));
      return s;
    }

    if (t.text == "do") {
      s.kind = StmtKind::kLoop;
      s.is_do_while = true;
      ++*pos;
      s.children.push_back(ParseStmt(pos));
      if (IsText(*pos, "while")) {
        ++*pos;
        CollectParenGroup(pos, &s.tokens);
      }
      if (IsText(*pos, ";")) ++*pos;
      s.cond_always_true = HeaderAlwaysTrue("while", s.tokens);
      return s;
    }

    if (t.text == "switch") {
      s.kind = StmtKind::kSwitch;
      ++*pos;
      CollectParenGroup(pos, &s.tokens);
      ParseSwitchBody(pos, &s);
      return s;
    }

    if (t.text == "break" || t.text == "continue") {
      s.kind = t.text == "break" ? StmtKind::kBreak : StmtKind::kContinue;
      ++*pos;
      if (IsText(*pos, ";")) ++*pos;
      return s;
    }

    if (t.text == "return") {
      s.kind = StmtKind::kReturn;
      ++*pos;
      CollectExpr(pos, &s.tokens);
      return s;
    }

    s.kind = StmtKind::kExpr;
    CollectExpr(pos, &s.tokens);
    return s;
  }

  // `switch (...) { case A: ... case B: ... default: ... }` — each arm
  // becomes one kBlock child holding the statements up to the next label.
  void ParseSwitchBody(size_t* pos, Stmt* sw) {
    if (!IsText(*pos, "{")) {  // unbraced switch body: treat as one arm
      Stmt arm;
      arm.kind = StmtKind::kBlock;
      arm.line = Have(*pos) ? Tok(*pos).line : sw->line;
      arm.children.push_back(ParseStmt(pos));
      sw->children.push_back(std::move(arm));
      return;
    }
    ++*pos;  // consume '{'
    Stmt* arm = nullptr;
    while (Have(*pos)) {
      if (Tok(*pos).kind == TokenKind::kPreprocessor) { ++*pos; continue; }
      if (IsText(*pos, "}")) { ++*pos; break; }
      if (IsText(*pos, "case") || IsText(*pos, "default")) {
        if (IsText(*pos, "default")) sw->has_default = true;
        Stmt fresh;
        fresh.kind = StmtKind::kBlock;
        fresh.line = Tok(*pos).line;
        sw->children.push_back(std::move(fresh));
        arm = &sw->children.back();
        // Consume the label up to (and including) its ':'. Case values can
        // be qualified (`StatusCode::kOk`), so skip `::` pairs.
        while (Have(*pos) && !IsText(*pos, ":")) ++*pos;
        while (IsText(*pos, ":") && IsText(*pos + 1, ":")) {
          *pos += 2;
          while (Have(*pos) && !IsText(*pos, ":")) ++*pos;
        }
        if (IsText(*pos, ":")) ++*pos;
        continue;
      }
      if (arm == nullptr) {  // statements before any label: synthesize an arm
        Stmt fresh;
        fresh.kind = StmtKind::kBlock;
        fresh.line = Tok(*pos).line;
        sw->children.push_back(std::move(fresh));
        arm = &sw->children.back();
      }
      arm->children.push_back(ParseStmt(pos));
    }
  }

  // Collects a parenthesized group's inner tokens: `( a b c )` -> "a b c".
  void CollectParenGroup(size_t* pos, std::vector<Token>* out) {
    if (!IsText(*pos, "(")) return;
    int depth = 0;
    for (; Have(*pos); ++*pos) {
      const Token& t = Tok(*pos);
      if (t.kind == TokenKind::kPreprocessor) continue;
      if (t.text == "(") {
        if (++depth == 1) continue;
      } else if (t.text == ")") {
        if (--depth == 0) { ++*pos; return; }
      }
      out->push_back(t);
    }
  }

  // `for(;;)` has an empty condition; `while(true)` / `while(1)` are the
  // spelled-out forms.
  static bool HeaderAlwaysTrue(const std::string& kw,
                               const std::vector<Token>& header) {
    if (kw == "while") {
      return header.size() == 1 &&
             (header[0].text == "true" || header[0].text == "1");
    }
    // for: condition is between the first and second top-level ';'.
    int semis = 0;
    bool cond_empty = true;
    int depth = 0;
    for (const Token& t : header) {
      if (t.text == "(") ++depth;
      else if (t.text == ")") --depth;
      else if (t.text == ";" && depth == 0) { ++semis; continue; }
      else if (semis == 1) cond_empty = false;
      if (t.text == ":" && depth == 0 && semis == 0) return false;  // range-for
    }
    return semis >= 2 && cond_empty;
  }

  // Collects an expression/declaration statement up to its terminating ';'
  // (at bracket depth 0). Balanced brace groups (init lists, local struct
  // bodies) are swallowed. Lambda bodies are NOT swallowed: they are parsed
  // recursively into their own FunctionUnit and their tokens are dropped
  // from the enclosing statement (the capture list is kept, so capturing a
  // variable still counts as a mention of it).
  void CollectExpr(size_t* pos, std::vector<Token>* out) {
    int depth = 0;
    while (Have(*pos)) {
      const Token& t = Tok(*pos);
      if (t.kind == TokenKind::kPreprocessor) { ++*pos; continue; }
      if (t.text == ";" && depth == 0) { ++*pos; return; }
      if (t.text == "}" && depth == 0) return;  // missing ';' safety net
      if (t.text == "[") {
        size_t after_capture = SkipBalanced(*pos, '[', ']');
        size_t lb = LambdaBodyAfter(after_capture);
        if (lb != 0) {
          // Keep the capture tokens, extract the body as its own unit.
          for (size_t k = *pos; k < after_capture; ++k) out->push_back(Tok(k));
          ExtractLambda(after_capture, lb, pos);
          continue;
        }
        out->push_back(t);
        ++*pos;
        continue;
      }
      if (t.text == "(" || t.text == "{") ++depth;
      if (t.text == ")" || t.text == "}") {
        if (depth == 0) return;  // unbalanced closer: end of statement region
        --depth;
      }
      out->push_back(t);
      ++*pos;
    }
  }

  // If the tokens at `i` (just past a `]`) look like the rest of a lambda
  // introducer — optional (params), optional mutable/noexcept/-> type — and
  // reach a `{`, returns the index of that `{`; otherwise 0.
  size_t LambdaBodyAfter(size_t i) const {
    if (IsText(i, "(")) i = SkipBalanced(i, '(', ')');
    while (Have(i)) {
      const Token& t = toks_[i];
      if (t.kind == TokenKind::kPreprocessor) { ++i; continue; }
      if (t.text == "{") return i;
      if (t.kind == TokenKind::kIdentifier &&
          (t.text == "mutable" || t.text == "noexcept" || t.text == "constexpr")) {
        ++i;
        if (IsText(i, "(")) i = SkipBalanced(i, '(', ')');
        continue;
      }
      if (t.text == "-" && IsText(i + 1, ">")) {  // trailing return type
        i += 2;
        while (Have(i) && (toks_[i].kind == TokenKind::kIdentifier ||
                           toks_[i].text == ":" || toks_[i].text == "<" ||
                           toks_[i].text == ">" || toks_[i].text == "*" ||
                           toks_[i].text == "&")) {
          ++i;
        }
        continue;
      }
      return 0;
    }
    return 0;
  }

  // Parses the lambda whose parameter list starts at `after_capture` and
  // whose body `{` is at `body`; advances *pos past the closing `}`.
  void ExtractLambda(size_t after_capture, size_t body, size_t* pos) {
    FunctionUnit fn;
    fn.path = file_.path;
    fn.is_lambda = true;
    fn.line = toks_[body].line;
    fn.name = enclosing_ + "@lambda:" + std::to_string(toks_[body].line);
    if (IsText(after_capture, "(")) {
      size_t close = SkipBalanced(after_capture, '(', ')');
      for (size_t k = after_capture + 1; k + 1 < close; ++k) {
        fn.params.push_back(toks_[k]);
      }
    }
    fn.outer_params = enclosing_params_;
    std::string saved = enclosing_;
    std::vector<Token> saved_params = enclosing_params_;
    enclosing_ = fn.name;
    enclosing_params_.insert(enclosing_params_.end(), fn.params.begin(),
                             fn.params.end());
    size_t end = body;
    fn.body = ParseBlock(&end);
    enclosing_ = saved;
    enclosing_params_ = std::move(saved_params);
    out_->push_back(std::move(fn));
    *pos = end;
  }

  const lint::ScannedFile& file_;
  const std::vector<Token>& toks_;
  std::vector<FunctionUnit>* out_;
  std::string enclosing_;
  std::vector<Token> enclosing_params_;  // enclosing units' parameters
};

}  // namespace

std::vector<FunctionUnit> ExtractFunctions(const lint::ScannedFile& file) {
  std::vector<FunctionUnit> out;
  Parser(file, &out).Run();
  return out;
}

}  // namespace monsoon::analyze
