#ifndef MONSOON_TOOLS_ANALYZE_AST_H_
#define MONSOON_TOOLS_ANALYZE_AST_H_

#include <string>
#include <vector>

#include "lexer.h"

namespace monsoon::analyze {

/// Statement kinds in the lightweight AST. This is not a full C++ grammar:
/// it is exactly the structure the dataflow passes need — control flow,
/// blocks, and flat token runs for everything expression-shaped.
enum class StmtKind {
  kExpr,     // expression or declaration statement; `tokens` is the run
  kBlock,    // { ... }; `children` are the contained statements
  kIf,       // `tokens` = condition; children = { then [, else] }
  kLoop,     // for / while / do / range-for; `tokens` = header; children = { body }
  kSwitch,   // `tokens` = condition; children = one block per case/default arm
  kBreak,
  kContinue,
  kReturn,   // `tokens` = return expression (empty for a bare `return;`)
};

struct Stmt {
  StmtKind kind = StmtKind::kExpr;
  int line = 0;
  std::vector<lint::Token> tokens;
  std::vector<Stmt> children;
  bool has_else = false;          // kIf
  bool is_do_while = false;       // kLoop: body runs before the condition
  bool cond_always_true = false;  // kLoop: for(;;) / while(true) / while(1)
  bool has_default = false;       // kSwitch
};

/// One parsed function body. Lambdas are extracted as separate units (named
/// "<enclosing>@lambda:<line>") so a `return` inside a lambda never leaks
/// into the enclosing function's control flow, and code inside a lambda is
/// analyzed in the context it actually runs in (later, elsewhere) rather
/// than the lexical scope it is written in.
struct FunctionUnit {
  std::string path;   // repo-relative path of the defining file
  std::string name;   // qualified spelling: "Executor::RunJoin", "f@lambda:42"
  int line = 0;       // line of the body's opening brace
  bool is_lambda = false;
  std::vector<lint::Token> params;  // tokens between the parameter parens
  // Lambdas only: the parameter tokens of every enclosing unit, outermost
  // first, so a pass can tell what context the lambda runs on behalf of.
  std::vector<lint::Token> outer_params;
  Stmt body;                        // kBlock
};

/// Extracts every function definition (including lambdas) from a scanned
/// file. The finder is heuristic — `name (params) [quals] {` at a
/// declaration position — which covers every definition shape this repo
/// uses; operator overloads without an identifier name are skipped.
std::vector<FunctionUnit> ExtractFunctions(const lint::ScannedFile& file);

}  // namespace monsoon::analyze

#endif  // MONSOON_TOOLS_ANALYZE_AST_H_
