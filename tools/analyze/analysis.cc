#include "analysis.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "cfg.h"
#include "lock_ranks.h"

namespace monsoon::analyze {

namespace {

using lint::ScannedFile;
using lint::Token;
using lint::TokenKind;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

/// Collects diagnostics and applies NOLINT suppression for one file.
class Reporter {
 public:
  Reporter(const ScannedFile& file, std::vector<lint::Diagnostic>& out)
      : file_(file), out_(out) {}

  void Report(const std::string& rule, int line, std::string message) {
    if (file_.IsSuppressed(rule, line)) return;
    out_.push_back({file_.path, line, rule, std::move(message)});
  }

 private:
  const ScannedFile& file_;
  std::vector<lint::Diagnostic>& out_;
};

bool TokensMention(const std::vector<Token>& toks, const std::string& id) {
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kIdentifier && t.text == id) return true;
  }
  return false;
}

/// True when `toks[i]` is an identifier immediately followed by '('.
bool IsCallAt(const std::vector<Token>& toks, size_t i) {
  return toks[i].kind == TokenKind::kIdentifier && i + 1 < toks.size() &&
         toks[i + 1].text == "(";
}

// ---------------------------------------------------------------------------
// monsoon-analyze-must-poll
// ---------------------------------------------------------------------------

/// Does this token run poll the cancellation token? Direct polls are
/// CheckCancelled() and <token>->Check(); calls that poll internally per
/// morsel/batch are ParallelFor(...) and the executor's ForEachBatch(...).
bool TokensPoll(const std::vector<Token>& toks) {
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsCallAt(toks, i)) continue;
    const std::string& t = toks[i].text;
    if (t == "CheckCancelled" || t == "ParallelFor" || t == "ForEachBatch") {
      return true;
    }
    if (t == "Check" && i >= 1 &&
        (toks[i - 1].text == "." ||
         (i >= 2 && toks[i - 1].text == ">" && toks[i - 2].text == "-"))) {
      return true;
    }
  }
  return false;
}

bool SubtreePolls(const Stmt& s) {
  if (TokensPoll(s.tokens)) return true;
  for (const Stmt& c : s.children) {
    if (SubtreePolls(c)) return true;
  }
  return false;
}

/// `if (token != nullptr) token->Check();` — the guarded poll idiom. A null
/// token means cancellation is unconfigured for this run, so the non-polling
/// branch is not a latency gap; treat the whole `if` as a poll.
bool IsNullGuardPoll(const Stmt& s) {
  if (s.kind != StmtKind::kIf) return false;
  if (!TokensMention(s.tokens, "nullptr")) return false;
  if (TokensPoll(s.tokens)) return true;  // poll inside the condition itself
  return !s.children.empty() && SubtreePolls(s.children[0]);
}

/// A node counts as a poll point for the per-iteration path search. Nested
/// loop headers whose subtree polls count too: every traversal of the inner
/// loop passes its header, and a zero-iteration inner loop means there were
/// no rows to stall on.
bool NodeIsPoll(const Cfg::Node& n) {
  if (n.stmt == nullptr) return false;
  const Stmt& s = *n.stmt;
  switch (s.kind) {
    case StmtKind::kIf:
      return IsNullGuardPoll(s) || TokensPoll(s.tokens);
    case StmtKind::kLoop:
      return SubtreePolls(s);
    default:
      return TokensPoll(s.tokens);
  }
}

/// Markers that identify a loop as iterating rows/morsels: either the
/// header ranges over a row count, or the body does per-row work (charges
/// the cost model or hits a fault point).
bool HeaderIsRowRange(const std::vector<Token>& header) {
  for (const Token& t : header) {
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "num_rows" || t.text == "num_morsels" ||
        t.text.find("morsel") != std::string::npos) {
      return true;
    }
  }
  return false;
}

bool TokensDoRowWork(const std::vector<Token>& toks) {
  for (const Token& t : toks) {
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "Charge" || t.text == "ChargeWork" ||
        t.text == "MONSOON_FAULT_POINT") {
      return true;
    }
  }
  return false;
}

bool SubtreeDoesRowWork(const Stmt& s) {
  if (TokensDoRowWork(s.tokens)) return true;
  for (const Stmt& c : s.children) {
    if (SubtreeDoesRowWork(c)) return true;
  }
  return false;
}

bool IsRowLoop(const Stmt& loop) {
  if (HeaderIsRowRange(loop.tokens)) return true;
  for (const Stmt& c : loop.children) {
    if (SubtreeDoesRowWork(c)) return true;
  }
  return false;
}

/// Checks one row loop: is there a path through the body that completes an
/// iteration (reaches the back edge) without polling?
void CheckLoopPolls(const Stmt& loop, Reporter& r) {
  LoopBodyCfg body = BuildLoopBodyCfg(loop);
  const Cfg& cfg = body.cfg;
  std::vector<bool> seen(cfg.nodes.size(), false);
  std::vector<int> stack = {cfg.entry};
  seen[cfg.entry] = true;
  while (!stack.empty()) {
    int n = stack.back();
    stack.pop_back();
    if (n == body.backedge) {
      r.Report("monsoon-analyze-must-poll", loop.line,
               "row-iterating loop can run another iteration without polling "
               "cancellation: add ctx->CheckCancelled() / token->Check() on "
               "every path through the body (deadlines and cancel requests "
               "stall here otherwise)");
      return;
    }
    if (n != cfg.entry && NodeIsPoll(cfg.nodes[n])) continue;
    for (int s : cfg.nodes[n].succ) {
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
}

void WalkRowLoops(const Stmt& s, bool under_row_loop, Reporter& r) {
  bool row = false;
  if (s.kind == StmtKind::kLoop) {
    row = IsRowLoop(s);
    if (row && !under_row_loop) CheckLoopPolls(s, r);
  }
  for (const Stmt& c : s.children) {
    WalkRowLoops(c, under_row_loop || row, r);
  }
}

void PassMustPoll(const std::vector<FunctionUnit>& fns, const ScannedFile& f,
                  Reporter& r) {
  if (!StartsWith(f.path, "src/exec/") && !StartsWith(f.path, "src/parallel/"))
    return;
  for (const FunctionUnit& fn : fns) {
    // *Batch functions run one batch per call; ForEachBatch polls at every
    // batch boundary, so their internal loops are already bounded.
    if (fn.name.find("Batch") != std::string::npos) continue;
    WalkRowLoops(fn.body, /*under_row_loop=*/false, r);
  }
}

// ---------------------------------------------------------------------------
// monsoon-analyze-lock-scope
// ---------------------------------------------------------------------------

struct HeldLock {
  std::string arg;  // literal spelling of the guarded mutex
  int rank;         // -1 when not in the rank table
  int line;
};

bool IsGuardKeyword(const std::string& text) {
  return text == "MutexLock" || text == "MutexLockRanked" ||
         text == "lock_guard" || text == "unique_lock" ||
         text == "scoped_lock";
}

/// Calls that can block for an unbounded time (or execute arbitrary stolen
/// work) and therefore must never run while a lock is live. Grouped for the
/// diagnostic message.
const char* BlockingKind(const std::string& name) {
  static const std::set<std::string> kSocket = {
      "accept",   "recv",    "recvfrom", "send",
      "sendto",   "connect", "AcceptConnection", "ConnectTo",
      "ReadLine", "WriteAll", "PeerClosed",
  };
  static const std::set<std::string> kPool = {
      "Wait", "WaitFor", "TryRunOne", "WaitIdle", "Submit", "SubmitTo",
  };
  // The ways into a UDF kernel: the kernel itself, FlatColumn::Fill and
  // the helpers built on it (exec/batch.h, the cache fill, the executor's
  // range read).
  static const std::set<std::string> kUdf = {
      "kernel",          "Fill",       "FillBatchColumn",
      "ForEachTermHash", "GetOrBuild", "ReadTermRange"};
  if (kSocket.count(name) != 0) return "blocking socket I/O";
  if (kPool.count(name) != 0) return "pool wait/submission";
  if (kUdf.count(name) != 0) return "UDF evaluation";
  return nullptr;
}

/// Scans one statement's tokens in order: guard constructions push a held
/// lock (checking rank order), blocking calls under any held lock report.
void ScanLockTokens(const std::vector<Token>& toks, std::vector<HeldLock>* held,
                    Reporter& r) {
  const auto& ranks = lint::LockRankTable();
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    if (IsGuardKeyword(t.text)) {
      // KEYWORD [<...>] [varname] ( first_arg ...
      size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") {
        int angle = 1;
        ++j;
        while (j < toks.size() && angle > 0) {
          if (toks[j].text == "<") ++angle;
          if (toks[j].text == ">") --angle;
          ++j;
        }
      }
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) ++j;
      if (j >= toks.size() || toks[j].text != "(") continue;
      std::string arg;
      int paren = 1;
      for (++j; j < toks.size() && paren > 0; ++j) {
        if (toks[j].text == "(") ++paren;
        if (toks[j].text == ")") --paren;
        if (paren == 0) break;
        if (toks[j].text == "," && paren == 1) break;
        arg += toks[j].text;
      }
      // Constructor declarations (`MutexLock(Mutex& mu)`) match the same
      // token shape; a real acquisition names a plain object.
      if (arg.empty() || arg.find('&') != std::string::npos ||
          arg.find("const") != std::string::npos) {
        i = j;
        continue;
      }
      auto rank_it = ranks.find(arg);
      int rank = rank_it == ranks.end() ? -1 : rank_it->second;
      if (rank >= 0) {
        for (const HeldLock& h : *held) {
          if (h.rank >= 0 && rank >= h.rank) {
            r.Report("monsoon-analyze-lock-scope", t.line,
                     "acquires '" + arg + "' (rank " + std::to_string(rank) +
                         ") while holding '" + h.arg + "' (rank " +
                         std::to_string(h.rank) +
                         "); locks must be taken in descending rank order");
          }
        }
      }
      held->push_back({arg, rank, t.line});
      i = j;
      continue;
    }

    const char* kind = BlockingKind(t.text);
    if (kind == nullptr || !IsCallAt(toks, i) || held->empty()) continue;
    // Qualified mentions (`TaskGroup::Wait`) are names, not calls — except
    // the server:: namespace qualifier on the net.h free functions.
    if (i >= 3 && toks[i - 1].text == ":" && toks[i - 2].text == ":" &&
        toks[i - 3].kind == TokenKind::kIdentifier &&
        toks[i - 3].text != "server" && toks[i - 3].text != "net") {
      continue;
    }
    // Condition-variable waits release the mutex while parked.
    size_t recv = std::string::npos;
    if (i >= 2 && toks[i - 1].text == ".") recv = i - 2;
    if (i >= 3 && toks[i - 1].text == ">" && toks[i - 2].text == "-") recv = i - 3;
    if (recv != std::string::npos &&
        toks[recv].kind == TokenKind::kIdentifier &&
        Lower(toks[recv].text).find("cv") != std::string::npos) {
      continue;
    }
    const HeldLock& h = held->back();
    r.Report("monsoon-analyze-lock-scope", t.line,
             std::string(kind) + " '" + t.text + "' while holding '" + h.arg +
                 "' (acquired line " + std::to_string(h.line) +
                 "): release the lock first — a stalled peer or stolen task "
                 "extends the critical section indefinitely");
  }
}

void WalkLockScopes(const Stmt& s, std::vector<HeldLock>* held, Reporter& r) {
  switch (s.kind) {
    case StmtKind::kBlock: {
      size_t mark = held->size();
      for (const Stmt& c : s.children) WalkLockScopes(c, held, r);
      held->resize(mark);
      return;
    }
    case StmtKind::kIf:
    case StmtKind::kLoop:
    case StmtKind::kSwitch: {
      ScanLockTokens(s.tokens, held, r);  // blocking calls in the header
      for (const Stmt& c : s.children) {
        size_t mark = held->size();
        WalkLockScopes(c, held, r);
        held->resize(mark);
      }
      return;
    }
    case StmtKind::kExpr:
    case StmtKind::kReturn:
      ScanLockTokens(s.tokens, held, r);
      return;
    case StmtKind::kBreak:
    case StmtKind::kContinue:
      return;
  }
}

void PassLockScope(const std::vector<FunctionUnit>& fns, const ScannedFile& f,
                   Reporter& r) {
  if (!StartsWith(f.path, "src/") && !StartsWith(f.path, "tools/")) return;
  for (const FunctionUnit& fn : fns) {
    // Lambdas run in the context of their caller (a pool lane, a later
    // scope), not the lexical scope they are written in: start empty.
    std::vector<HeldLock> held;
    WalkLockScopes(fn.body, &held, r);
  }
}

// ---------------------------------------------------------------------------
// monsoon-analyze-status-flow
// ---------------------------------------------------------------------------

/// One site where a Status/StatusOr local takes a value worth consuming.
struct PendingSite {
  std::string var;
  int node = 0;  // CFG node of the decl/assignment
  int line = 0;
};

/// RHS produces a value that must be consumed: a real call (not the OK()
/// constant, not a plain copy of another variable).
bool RhsIsRealCall(const std::vector<Token>& rhs) {
  bool has_call = false;
  for (size_t i = 0; i < rhs.size(); ++i) {
    if (rhs[i].text == "OK") return false;
    if (IsCallAt(rhs, i)) has_call = true;
  }
  return has_call;
}

/// Matches `Status v = ...` / `StatusOr<T> v = ...` / `const Status& v = ...`
/// at the start of an expression statement. Returns the declared name and
/// whether the initializer makes the value pending.
bool MatchStatusDecl(const std::vector<Token>& toks, std::string* var,
                     bool* pending) {
  size_t i = 0;
  if (i < toks.size() && toks[i].text == "const") ++i;
  if (i >= toks.size() || toks[i].kind != TokenKind::kIdentifier ||
      (toks[i].text != "Status" && toks[i].text != "StatusOr")) {
    return false;
  }
  ++i;
  if (i < toks.size() && toks[i].text == "<") {
    int angle = 1;
    ++i;
    while (i < toks.size() && angle > 0) {
      if (toks[i].text == "<") ++angle;
      if (toks[i].text == ">") --angle;
      ++i;
    }
  }
  while (i < toks.size() && (toks[i].text == "&" || toks[i].text == "*")) ++i;
  if (i >= toks.size() || toks[i].kind != TokenKind::kIdentifier) return false;
  *var = toks[i].text;
  ++i;
  if (i >= toks.size()) {  // `Status s;` — uninitialized, assignments pend
    *pending = false;
    return true;
  }
  if (toks[i].text != "=" && toks[i].text != "(" && toks[i].text != "{") {
    return false;  // `Status Foo::Bar` fragments etc.
  }
  std::vector<Token> rhs(toks.begin() + static_cast<long>(i) + 1, toks.end());
  *pending = RhsIsRealCall(rhs);
  return true;
}

/// `v = <expr not mentioning v>` — overwrites without consuming.
bool IsPlainReassign(const std::vector<Token>& toks, const std::string& var) {
  if (toks.size() < 2 || toks[0].text != var || toks[1].text != "=") return false;
  if (toks.size() >= 3 && toks[2].text == "=") return false;  // comparison
  for (size_t i = 2; i < toks.size(); ++i) {
    if (toks[i].kind == TokenKind::kIdentifier && toks[i].text == var) {
      return false;  // `s = Annotate(s)` consumes the old value
    }
  }
  return true;
}

void PassStatusFlow(const std::vector<FunctionUnit>& fns, const ScannedFile& f,
                    Reporter& r) {
  static const char* kScopes[] = {"src/exec/", "src/parallel/", "src/monsoon/",
                                  "src/server/", "src/fault/"};
  bool in_scope = false;
  for (const char* s : kScopes) in_scope = in_scope || StartsWith(f.path, s);
  if (!in_scope) return;

  for (const FunctionUnit& fn : fns) {
    Cfg cfg = BuildCfg(fn.body);
    // Collect declared Status locals and the sites where they take values.
    std::set<std::string> vars;
    std::vector<PendingSite> sites;
    for (size_t n = 0; n < cfg.nodes.size(); ++n) {
      const Stmt* st = cfg.nodes[n].stmt;
      if (st == nullptr || st->kind != StmtKind::kExpr) continue;
      std::string var;
      bool pending = false;
      if (MatchStatusDecl(st->tokens, &var, &pending)) {
        vars.insert(var);
        if (pending) sites.push_back({var, static_cast<int>(n), st->line});
      }
    }
    for (size_t n = 0; n < cfg.nodes.size(); ++n) {
      const Stmt* st = cfg.nodes[n].stmt;
      if (st == nullptr || st->kind != StmtKind::kExpr) continue;
      for (const std::string& var : vars) {
        if (IsPlainReassign(st->tokens, var) && RhsIsRealCall(st->tokens)) {
          bool already = false;
          for (const PendingSite& s : sites) {
            already = already || s.node == static_cast<int>(n);
          }
          if (!already) sites.push_back({var, static_cast<int>(n), st->line});
        }
      }
    }

    // For each pending site: is there a path to exit (or to a different
    // overwrite) that never consumes the value?
    for (const PendingSite& site : sites) {
      std::vector<bool> seen(cfg.nodes.size(), false);
      std::vector<int> stack;
      for (int s : cfg.nodes[static_cast<size_t>(site.node)].succ) {
        if (!seen[static_cast<size_t>(s)]) {
          seen[static_cast<size_t>(s)] = true;
          stack.push_back(s);
        }
      }
      bool reported = false;
      while (!stack.empty() && !reported) {
        int n = stack.back();
        stack.pop_back();
        if (n == site.node) continue;  // loop back to the same site: last
                                       // writer wins, not a lost value
        if (n == cfg.exit) {
          r.Report("monsoon-analyze-status-flow", site.line,
                   "Status value in '" + site.var +
                       "' is not consumed on every path: return it, test "
                       ".ok()/IsTransient(), pass it on, or discard it "
                       "explicitly with (void)");
          reported = true;
          break;
        }
        const Stmt* st = cfg.nodes[static_cast<size_t>(n)].stmt;
        if (st != nullptr && TokensMention(st->tokens, site.var)) {
          if (st->kind == StmtKind::kExpr &&
              IsPlainReassign(st->tokens, site.var)) {
            r.Report("monsoon-analyze-status-flow", cfg.nodes[n].line,
                     "'" + site.var +
                         "' is overwritten before the previous Status value "
                         "(line " + std::to_string(site.line) +
                         ") is consumed");
            reported = true;
          }
          continue;  // mention consumes; stop this path either way
        }
        for (int s : cfg.nodes[static_cast<size_t>(n)].succ) {
          if (!seen[static_cast<size_t>(s)]) {
            seen[static_cast<size_t>(s)] = true;
            stack.push_back(s);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// monsoon-analyze-accounting
// ---------------------------------------------------------------------------

bool StmtAppendsRows(const std::vector<Token>& toks) {
  static const std::set<std::string> kAppends = {
      "AppendRow",          "AppendConcatRow", "AppendSelectedFrom",
      "AppendConcatSelected", "GatherAt",      "GatherConcatAt",
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    if (IsCallAt(toks, i) && kAppends.count(toks[i].text) != 0) return true;
  }
  return false;
}

bool StmtCharges(const std::vector<Token>& toks) {
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text.find("work_tally") != std::string::npos ||
        t.text.find("shared_work") != std::string::npos) {
      return true;
    }
    if ((t.text == "Charge" || t.text == "ChargeWork") && IsCallAt(toks, i)) {
      return true;
    }
  }
  return false;
}

void PassAccounting(const std::vector<FunctionUnit>& fns, const ScannedFile& f,
                    Reporter& r) {
  if (!StartsWith(f.path, "src/exec/")) return;
  for (const FunctionUnit& fn : fns) {
    // A lambda inside a function that takes an ExecContext runs on that
    // function's behalf (a range body, a pool lane of one pass), so it is
    // in scope too.
    bool takes_ctx = false;
    for (const auto* params : {&fn.params, &fn.outer_params}) {
      for (const Token& t : *params) {
        takes_ctx = takes_ctx || t.text == "ExecContext";
      }
    }
    if (!takes_ctx) continue;

    Cfg cfg = BuildCfg(fn.body);
    auto is_charge = [&](int n) {
      const Stmt* st = cfg.nodes[static_cast<size_t>(n)].stmt;
      return st != nullptr && StmtCharges(st->tokens);
    };
    auto is_append = [&](int n) {
      const Stmt* st = cfg.nodes[static_cast<size_t>(n)].stmt;
      return st != nullptr && StmtAppendsRows(st->tokens);
    };

    // Forward: nodes reachable from entry without passing a charge.
    std::vector<bool> reach(cfg.nodes.size(), false);
    std::vector<int> stack = {cfg.entry};
    reach[static_cast<size_t>(cfg.entry)] = true;
    while (!stack.empty()) {
      int n = stack.back();
      stack.pop_back();
      if (n != cfg.entry && is_charge(n)) continue;  // path is now charged
      for (int s : cfg.nodes[static_cast<size_t>(n)].succ) {
        if (!reach[static_cast<size_t>(s)]) {
          reach[static_cast<size_t>(s)] = true;
          stack.push_back(s);
        }
      }
    }

    for (size_t a = 0; a < cfg.nodes.size(); ++a) {
      if (!reach[a] || !is_append(static_cast<int>(a)) ||
          is_charge(static_cast<int>(a))) {
        continue;
      }
      // Backward leg: can this append still reach exit charge-free?
      std::vector<bool> seen(cfg.nodes.size(), false);
      std::vector<int> st2;
      for (int s : cfg.nodes[a].succ) {
        if (!seen[static_cast<size_t>(s)]) {
          seen[static_cast<size_t>(s)] = true;
          st2.push_back(s);
        }
      }
      bool escapes = false;
      while (!st2.empty()) {
        int n = st2.back();
        st2.pop_back();
        if (n == cfg.exit) {
          escapes = true;
          break;
        }
        if (is_charge(n)) continue;
        for (int s : cfg.nodes[static_cast<size_t>(n)].succ) {
          if (!seen[static_cast<size_t>(s)]) {
            seen[static_cast<size_t>(s)] = true;
            st2.push_back(s);
          }
        }
      }
      if (escapes) {
        r.Report("monsoon-analyze-accounting", cfg.nodes[a].line,
                 "appends output rows on a path that never charges "
                 "ExecContext (Charge/ChargeWork or a morsel tally): "
                 "serial/parallel/batch accounting would diverge");
      }
    }
  }
}

}  // namespace

std::vector<std::string> PassNames() {
  return {"monsoon-analyze-must-poll", "monsoon-analyze-lock-scope",
          "monsoon-analyze-status-flow", "monsoon-analyze-accounting"};
}

std::vector<lint::Diagnostic> AnalyzeFiles(
    const std::vector<lint::SourceFile>& files) {
  std::vector<lint::Diagnostic> out;
  for (const lint::SourceFile& sf : files) {
    ScannedFile scanned = lint::ScanSource(sf.path, sf.text);
    std::vector<FunctionUnit> fns = ExtractFunctions(scanned);
    Reporter r(scanned, out);
    PassMustPoll(fns, scanned, r);
    PassLockScope(fns, scanned, r);
    PassStatusFlow(fns, scanned, r);
    PassAccounting(fns, scanned, r);
  }
  std::sort(out.begin(), out.end(),
            [](const lint::Diagnostic& a, const lint::Diagnostic& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

}  // namespace monsoon::analyze
