#include "rules.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>

namespace monsoon::lint {

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string DirName(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string Stem(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

bool IsHeader(const std::string& path) { return EndsWith(path, ".h"); }

/// Collects diagnostics and applies NOLINT suppression for one file.
class Reporter {
 public:
  Reporter(const ScannedFile& file, std::vector<Diagnostic>& out)
      : file_(file), out_(out) {}

  void Report(const std::string& rule, int line, std::string message) {
    if (file_.IsSuppressed(rule, line)) return;
    out_.push_back({file_.path, line, rule, std::move(message)});
  }

 private:
  const ScannedFile& file_;
  std::vector<Diagnostic>& out_;
};

// ---------------------------------------------------------------------------
// monsoon-rng
// ---------------------------------------------------------------------------

void CheckRng(const ScannedFile& f, Reporter& r) {
  if (!StartsWith(f.path, "src/") && !StartsWith(f.path, "tools/")) return;
  static const std::set<std::string> kBanned = {
      "rand",    "srand",      "rand_r",       "random_device",
      "mt19937", "mt19937_64", "minstd_rand",  "minstd_rand0",
      "ranlux24", "ranlux48",  "default_random_engine",
  };
  for (size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kIdentifier || kBanned.count(t.text) == 0) continue;
    r.Report("monsoon-rng", t.line,
             "'" + t.text +
                 "' is banned: draw randomness from Pcg32 seeded with "
                 "seed + worker_id (see common/random.h)");
  }
}

// ---------------------------------------------------------------------------
// monsoon-accounting
// ---------------------------------------------------------------------------

void CheckAccounting(const ScannedFile& f, Reporter& r) {
  if (EndsWith(f.path, "src/exec/exec_context.h")) return;
  static const std::set<std::string> kCounters = {"objects_processed_",
                                                  "work_units_"};
  for (const Token& t : f.tokens) {
    if (t.kind != TokenKind::kIdentifier || kCounters.count(t.text) == 0) continue;
    r.Report("monsoon-accounting", t.line,
             "cost-model counter '" + t.text +
                 "' may only be touched inside src/exec/exec_context.h; go "
                 "through ExecContext::Charge/ChargeWork");
  }
}

// ---------------------------------------------------------------------------
// monsoon-obs
// ---------------------------------------------------------------------------

/// Telemetry counters hand-rolled as plain arithmetic members drift: they
/// miss the registry snapshot / run report, and concurrent increments race.
/// Flags declarations like `uint64_t cache_hits_;` (or the atomic form,
/// whose preceding token is the closing '>') and points at the obs:: types.
void CheckObs(const ScannedFile& f, Reporter& r) {
  if (!StartsWith(f.path, "src/") || StartsWith(f.path, "src/obs/")) return;
  static const std::vector<std::string> kSuffixes = {
      "_hits_",  "_misses_", "_evictions_", "_processed_",
      "_units_", "_stolen_", "_submitted_", "_seconds_"};
  static const std::set<std::string> kArithmeticTypes = {
      "uint64_t", "int64_t", "uint32_t", "int32_t", "size_t",
      "int",      "long",    "unsigned", "double",  "float"};
  const auto& toks = f.tokens;
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    bool counterish = false;
    for (const std::string& suffix : kSuffixes) {
      if (EndsWith(t.text, suffix)) {
        counterish = true;
        break;
      }
    }
    if (!counterish) continue;
    // Declaration shape: TYPE name ( ; | = | { | GUARDED_BY ). Uses of the
    // member (name.Add(...), name.Value()) don't match.
    const std::string& prev = toks[i - 1].text;
    if (kArithmeticTypes.count(prev) == 0 && prev != ">") continue;
    const std::string& next = toks[i + 1].text;
    if (next != ";" && next != "=" && next != "{" && next != "GUARDED_BY") {
      continue;
    }
    r.Report("monsoon-obs", t.line,
             "telemetry counter '" + t.text +
                 "' is a plain arithmetic member; use obs::Counter / "
                 "obs::Gauge / obs::Histogram (registry metrics) or "
                 "obs::LocalCounter (single-owner accounting) so it shows "
                 "up in snapshots and run reports");
  }
}

// ---------------------------------------------------------------------------
// monsoon-thread
// ---------------------------------------------------------------------------

void CheckThread(const ScannedFile& f, Reporter& r) {
  // src/parallel/ owns the pool workers; src/server/ owns the accept and
  // per-connection threads, which spend their lives blocked on socket
  // I/O — exactly what a pool task must never do.
  if (!StartsWith(f.path, "src/") || StartsWith(f.path, "src/parallel/") ||
      StartsWith(f.path, "src/server/")) {
    return;
  }
  static const std::set<std::string> kBanned = {"thread", "jthread", "async"};
  const auto& toks = f.tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind == TokenKind::kIdentifier && toks[i].text == "std" &&
        toks[i + 1].text == ":" && toks[i + 2].text == ":" &&
        toks[i + 3].kind == TokenKind::kIdentifier &&
        kBanned.count(toks[i + 3].text) != 0) {
      r.Report("monsoon-thread", toks[i].line,
               "std::" + toks[i + 3].text +
                   " outside src/parallel/ and src/server/: route work "
                   "through parallel::ThreadPool / TaskGroup");
    }
  }
}

// ---------------------------------------------------------------------------
// monsoon-raw-new
// ---------------------------------------------------------------------------

void CheckRawNew(const ScannedFile& f, Reporter& r) {
  if (!StartsWith(f.path, "src/")) return;
  const auto& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) continue;
    if (toks[i].text == "new") {
      r.Report("monsoon-raw-new", toks[i].line,
               "raw 'new': use std::make_unique / std::make_shared (add a "
               "NOLINT for a deliberately leaked singleton)");
    } else if (toks[i].text == "delete") {
      // `= delete` (deleted member) and `= delete;` are not deallocations.
      if (i > 0 && toks[i - 1].text == "=") continue;
      r.Report("monsoon-raw-new", toks[i].line,
               "raw 'delete': ownership must live in a smart pointer");
    }
  }
}

// ---------------------------------------------------------------------------
// monsoon-status
// ---------------------------------------------------------------------------

/// The error spine is Status-based: the execution stack (src/exec/,
/// src/parallel/, src/monsoon/) must not throw — exceptions bypass the
/// cancellation token, the retry/backoff machinery and the degraded-run
/// accounting. Only src/fault/ may throw (the kThrow injection kind
/// exercises the harness' exception containment). Additionally, the
/// Status / StatusOr class definitions themselves must stay [[nodiscard]]
/// so dropped errors fail the -Werror build.
void CheckStatus(const ScannedFile& f, Reporter& r) {
  const bool no_throw_scope = StartsWith(f.path, "src/exec/") ||
                              StartsWith(f.path, "src/parallel/") ||
                              StartsWith(f.path, "src/monsoon/");
  const auto& toks = f.tokens;
  if (no_throw_scope) {
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier || toks[i].text != "throw") {
        continue;
      }
      // `throw()` exception specifications (legacy) would be fine, but the
      // codebase has none; flag every throw expression uniformly.
      r.Report("monsoon-status", toks[i].line,
               "'throw' in the Status-spine scope (src/exec/, src/parallel/, "
               "src/monsoon/): return a Status so cancellation, retries and "
               "degraded-run accounting see the failure (fault injection "
               "lives in src/fault/, which may throw)");
    }
  }
  if (EndsWith(f.path, "src/common/status.h")) {
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "class") continue;
      if (i > 0 && toks[i - 1].text == "enum") continue;  // enum class
      // Accept `class [[nodiscard]] Name`; flag `class Name` when Name is
      // Status or StatusOr.
      const Token& next = toks[i + 1];
      if (next.kind == TokenKind::kIdentifier &&
          (next.text == "Status" || next.text == "StatusOr")) {
        r.Report("monsoon-status", toks[i].line,
                 "class " + next.text +
                     " must be declared [[nodiscard]] so ignoring an error "
                     "Status fails the build");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// monsoon-pinned-get
// ---------------------------------------------------------------------------

/// Walks left from token index `i` over one balanced [...] subscript and
/// returns the index of the base identifier, or npos.
size_t ReceiverIndex(const std::vector<Token>& toks, size_t i) {
  if (i == 0) return std::string::npos;
  size_t k = i - 1;
  if (toks[k].text == "]") {
    int depth = 1;
    while (k > 0 && depth > 0) {
      --k;
      if (toks[k].text == "]") ++depth;
      if (toks[k].text == "[") --depth;
    }
    if (depth != 0 || k == 0) return std::string::npos;
    --k;
  }
  return toks[k].kind == TokenKind::kIdentifier ? k : std::string::npos;
}

void CheckPinnedGet(const ScannedFile& f, Reporter& r) {
  if (!StartsWith(f.path, "src/exec/")) return;
  const auto& toks = f.tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].text != "." || toks[i + 1].text != "get" ||
        toks[i + 2].text != "(" || toks[i + 3].text != ")") {
      continue;
    }
    size_t recv = ReceiverIndex(toks, i);
    if (recv == std::string::npos) continue;
    if (Lower(toks[recv].text).find("col") == std::string::npos) continue;
    r.Report("monsoon-pinned-get", toks[i].line,
             "'" + toks[recv].text +
                 ".get()' lets a raw pointer escape the cache pin; keep the "
                 "shared_ptr (it is what holds the column across eviction)");
  }
}

// ---------------------------------------------------------------------------
// monsoon-batch
// ---------------------------------------------------------------------------

/// The batch executor's speedup comes from keeping rows in typed columns;
/// a single `Value v = ...` inside a batch function's loop reintroduces one
/// heap-boxed variant per row and silently voids the win. Flags the `Value`
/// type anywhere in the body of a src/exec/ function whose name contains
/// "Batch" (ScanBatch, ProbeBatch, ApplyResidualBatch, ...). Columns expose
/// FlatColumn / FlatView for exactly this reason; a deliberate scalar
/// escape carries a NOLINT.
void CheckBatch(const ScannedFile& f, Reporter& r) {
  if (!StartsWith(f.path, "src/exec/")) return;
  const auto& toks = f.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier ||
        toks[i].text.find("Batch") == std::string::npos ||
        toks[i + 1].text != "(") {
      continue;
    }
    // Skip the balanced parameter list.
    size_t j = i + 1;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) break;
    }
    if (j >= toks.size()) break;
    // A definition follows qualifiers with '{'; a call or declaration hits
    // ';', ',' or an operator first and anchors nothing.
    ++j;
    while (j < toks.size() &&
           (toks[j].text == "const" || toks[j].text == "override" ||
            toks[j].text == "final" || toks[j].text == "noexcept")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].text != "{") continue;
    depth = 0;
    for (size_t k = j; k < toks.size(); ++k) {
      if (toks[k].text == "{") ++depth;
      if (toks[k].text == "}" && --depth == 0) {
        i = k;  // resume past this body
        break;
      }
      if (toks[k].kind == TokenKind::kIdentifier && toks[k].text == "Value") {
        r.Report("monsoon-batch", toks[k].line,
                 "per-row Value inside batch function '" + toks[i].text +
                     "': batches carry typed columns — use FlatColumn / "
                     "FlatView (exec/batch.h) instead of boxing rows");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// monsoon-include
// ---------------------------------------------------------------------------

/// The canonical guard for "src/exec/udf_cache.h" is
/// MONSOON_EXEC_UDF_CACHE_H_ (src/ stripped); tools/ keeps its prefix.
std::string ExpectedGuard(const std::string& path) {
  std::string rel = StartsWith(path, "src/") ? path.substr(4) : path;
  std::string guard = "MONSOON_";
  for (char c : rel) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

/// Resolves a quoted include to a path present in `known`, trying the repo
/// conventions: src/-relative, repo-relative, then includer-relative.
std::string ResolveInclude(const std::string& includer, const std::string& inc,
                           const std::set<std::string>& known) {
  if (known.count("src/" + inc) != 0) return "src/" + inc;
  if (known.count(inc) != 0) return inc;
  std::string dir = DirName(includer);
  if (!dir.empty() && known.count(dir + "/" + inc) != 0) return dir + "/" + inc;
  return std::string();
}

void CheckIncludes(const std::map<std::string, ScannedFile>& files,
                   std::vector<Diagnostic>& out) {
  std::set<std::string> known;
  for (const auto& [path, f] : files) known.insert(path);

  // Per-file: guard naming and own-header-first.
  for (const auto& [path, f] : files) {
    if (!StartsWith(path, "src/") && !StartsWith(path, "tools/")) continue;
    Reporter r(f, out);
    if (IsHeader(path)) {
      std::string want = ExpectedGuard(path);
      if (f.guard_ifndef.empty() || f.guard_define.empty()) {
        r.Report("monsoon-include", 1,
                 f.has_pragma_once
                     ? "use the include guard " + want + " instead of #pragma once"
                     : "missing include guard " + want);
      } else if (f.guard_ifndef != want) {
        r.Report("monsoon-include", 1,
                 "include guard '" + f.guard_ifndef + "' should be '" + want + "'");
      }
    } else {
      // A .cc whose own header is in the lint set must include it first, so
      // every header is compiled self-sufficient at least once.
      std::string own_header = DirName(path) + "/" + Stem(path) + ".h";
      if (known.count(own_header) != 0 && !f.includes.empty()) {
        const IncludeDirective& first = f.includes.front();
        std::string resolved =
            first.angled ? std::string() : ResolveInclude(path, first.path, known);
        if (resolved != own_header) {
          r.Report("monsoon-include", first.line,
                   "first include must be this file's own header (" +
                       own_header + ")");
        }
      }
    }
  }

  // Cross-file: cycle detection over resolved quoted includes.
  std::map<std::string, std::vector<const IncludeDirective*>> edges;
  for (const auto& [path, f] : files) {
    for (const IncludeDirective& inc : f.includes) {
      if (inc.angled) continue;
      if (!ResolveInclude(path, inc.path, known).empty()) {
        edges[path].push_back(&inc);
      }
    }
  }
  std::map<std::string, int> state;  // 0 unvisited, 1 on stack, 2 done
  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    state[node] = 1;
    for (const IncludeDirective* inc : edges[node]) {
      std::string next = ResolveInclude(node, inc->path, known);
      int s = state.count(next) != 0 ? state[next] : 0;
      if (s == 1) {
        Reporter r(files.at(node), out);
        r.Report("monsoon-include", inc->line,
                 "include cycle: " + node + " -> " + next +
                     " closes back on a file already being included");
      } else if (s == 0) {
        dfs(next);
      }
    }
    state[node] = 2;
  };
  for (const auto& [path, f] : files) {
    if (state[path] == 0) dfs(path);
  }
}

}  // namespace

std::vector<std::string> RuleNames() {
  return {"monsoon-rng",        "monsoon-accounting", "monsoon-obs",
          "monsoon-thread",     "monsoon-raw-new",    "monsoon-status",
          "monsoon-pinned-get", "monsoon-batch",      "monsoon-include"};
}

std::vector<Diagnostic> LintFiles(const std::vector<SourceFile>& files) {
  std::vector<Diagnostic> out;
  std::map<std::string, ScannedFile> scanned;
  for (const SourceFile& sf : files) {
    scanned.emplace(sf.path, ScanSource(sf.path, sf.text));
  }
  for (const auto& [path, f] : scanned) {
    Reporter r(f, out);
    CheckRng(f, r);
    CheckAccounting(f, r);
    CheckObs(f, r);
    CheckThread(f, r);
    CheckRawNew(f, r);
    CheckStatus(f, r);
    CheckPinnedGet(f, r);
    CheckBatch(f, r);
  }
  CheckIncludes(scanned, out);
  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace monsoon::lint
