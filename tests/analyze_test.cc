// Fixture tests for tools/analyze: each dataflow pass gets violating
// snippets, clean counterparts, and a NOLINT suppression check, mirroring
// lint_test.cc. Fixtures are fed straight to AnalyzeFiles with fabricated
// repo-relative paths so the passes' path scoping is exercised without
// touching the real tree. The AST/CFG tests pin the parser and graph
// builder on every control construct the passes rely on.

#include "analysis.h"

#include <algorithm>
#include <string>
#include <vector>

#include "ast.h"
#include "cfg.h"
#include "gtest/gtest.h"

namespace monsoon::analyze {
namespace {

std::vector<lint::Diagnostic> Analyze(const std::string& path,
                                      const std::string& text) {
  return AnalyzeFiles({{path, text}});
}

bool HasRule(const std::vector<lint::Diagnostic>& diags,
             const std::string& rule) {
  return std::any_of(
      diags.begin(), diags.end(),
      [&](const lint::Diagnostic& d) { return d.rule == rule; });
}

// ---------------------------------------------------------------------------
// AST extraction and CFG construction
// ---------------------------------------------------------------------------

TEST(AstTest, ParsesEveryControlConstruct) {
  auto scanned = lint::ScanSource("src/exec/x.cc",
                                  "int f(int n) {\n"
                                  "  int acc = 0;\n"
                                  "  if (n > 0) { acc += 1; } else { acc -= 1; }\n"
                                  "  for (int i = 0; i < n; ++i) {\n"
                                  "    if (i == 3) continue;\n"
                                  "    if (i == 7) break;\n"
                                  "    acc += i;\n"
                                  "  }\n"
                                  "  while (acc > 10) { --acc; }\n"
                                  "  for (auto& v : xs) { acc += v; }\n"
                                  "  switch (acc) {\n"
                                  "    case 0: acc = 1; break;\n"
                                  "    default: acc = 3;\n"
                                  "  }\n"
                                  "  do { --acc; } while (acc > 0);\n"
                                  "  if (acc < 0) return -1;\n"
                                  "  return acc;\n"
                                  "}\n");
  auto fns = ExtractFunctions(scanned);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "f");
  const auto& kids = fns[0].body.children;
  ASSERT_EQ(kids.size(), 9u);
  EXPECT_EQ(kids[0].kind, StmtKind::kExpr);
  EXPECT_EQ(kids[1].kind, StmtKind::kIf);
  EXPECT_TRUE(kids[1].has_else);
  EXPECT_EQ(kids[2].kind, StmtKind::kLoop);
  EXPECT_EQ(kids[3].kind, StmtKind::kLoop);
  EXPECT_EQ(kids[4].kind, StmtKind::kLoop);  // range-for
  EXPECT_EQ(kids[5].kind, StmtKind::kSwitch);
  EXPECT_TRUE(kids[5].has_default);
  EXPECT_EQ(kids[5].children.size(), 2u);  // two arms
  EXPECT_EQ(kids[6].kind, StmtKind::kLoop);
  EXPECT_TRUE(kids[6].is_do_while);
  EXPECT_EQ(kids[7].kind, StmtKind::kIf);
  EXPECT_EQ(kids[8].kind, StmtKind::kReturn);
  // The for-loop body holds the continue/break branches.
  const auto& for_body = kids[2].children[0];
  ASSERT_EQ(for_body.children.size(), 3u);
  EXPECT_EQ(for_body.children[0].children[0].kind, StmtKind::kContinue);
  EXPECT_EQ(for_body.children[1].children[0].kind, StmtKind::kBreak);
}

TEST(AstTest, ExtractsLambdasAsSeparateUnits) {
  auto scanned = lint::ScanSource(
      "src/exec/x.cc",
      "void g(ExecContext* ctx) {\n"
      "  auto fn = [&](size_t m, size_t begin, size_t end) {\n"
      "    for (size_t i = begin; i < end; ++i) use(i);\n"
      "    return 0;\n"
      "  };\n"
      "  run(fn);\n"
      "}\n");
  auto fns = ExtractFunctions(scanned);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_TRUE(fns[0].is_lambda);
  EXPECT_EQ(fns[0].name, "g@lambda:2");
  EXPECT_FALSE(fns[1].is_lambda);
  EXPECT_EQ(fns[1].name, "g");
  // The lambda's `return` stayed in the lambda: the enclosing body is the
  // declaration statement plus the run() call.
  EXPECT_EQ(fns[1].body.children.size(), 2u);
  // The lambda body kept its own loop.
  EXPECT_EQ(fns[0].body.children[0].kind, StmtKind::kLoop);
}

TEST(AstTest, ParsesQualifiedNamesAndCtorInitLists) {
  auto scanned = lint::ScanSource(
      "src/exec/x.cc",
      "Status Executor::RunScan(ExecContext* ctx) const { return ok_; }\n"
      "Probe::Probe(int n) : n_(n), table_(nullptr) { init(); }\n");
  auto fns = ExtractFunctions(scanned);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].name, "Executor::RunScan");
  EXPECT_EQ(fns[1].name, "Probe::Probe");
}

TEST(CfgTest, BranchesJoinAndLoopsCarryBackEdges) {
  auto scanned = lint::ScanSource("src/exec/x.cc",
                                  "int f(int n) {\n"
                                  "  if (n > 0) return 1;\n"
                                  "  for (int i = 0; i < n; ++i) work(i);\n"
                                  "  return 0;\n"
                                  "}\n");
  auto fns = ExtractFunctions(scanned);
  ASSERT_EQ(fns.size(), 1u);
  Cfg cfg = BuildCfg(fns[0].body);
  // Exit must be reachable from entry.
  std::vector<bool> seen(cfg.nodes.size(), false);
  std::vector<int> stack = {cfg.entry};
  seen[cfg.entry] = true;
  while (!stack.empty()) {
    int n = stack.back();
    stack.pop_back();
    for (int s : cfg.nodes[n].succ) {
      if (!seen[s]) { seen[s] = true; stack.push_back(s); }
    }
  }
  EXPECT_TRUE(seen[cfg.exit]);
  // Some node must point back at the loop header (the back edge): find the
  // loop header node and check it has an incoming edge from a later node.
  int header = -1;
  for (size_t i = 0; i < cfg.nodes.size(); ++i) {
    if (cfg.nodes[i].stmt != nullptr &&
        cfg.nodes[i].stmt->kind == StmtKind::kLoop) {
      header = static_cast<int>(i);
    }
  }
  ASSERT_NE(header, -1);
  bool has_back_edge = false;
  for (size_t i = static_cast<size_t>(header) + 1; i < cfg.nodes.size(); ++i) {
    for (int s : cfg.nodes[i].succ) has_back_edge = has_back_edge || s == header;
  }
  EXPECT_TRUE(has_back_edge);
}

TEST(CfgTest, LoopBodyCfgSeparatesBackedgeFromEscape) {
  auto scanned = lint::ScanSource("src/exec/x.cc",
                                  "void f(int n) {\n"
                                  "  for (int i = 0; i < n; ++i) {\n"
                                  "    if (i == 3) break;\n"
                                  "    if (i == 5) continue;\n"
                                  "    work(i);\n"
                                  "  }\n"
                                  "}\n");
  auto fns = ExtractFunctions(scanned);
  ASSERT_EQ(fns.size(), 1u);
  const Stmt& loop = fns[0].body.children[0];
  ASSERT_EQ(loop.kind, StmtKind::kLoop);
  LoopBodyCfg body = BuildLoopBodyCfg(loop);
  // Both the backedge (continue / fallthrough) and the escape (break) must
  // be reachable from the body entry.
  std::vector<bool> seen(body.cfg.nodes.size(), false);
  std::vector<int> stack = {body.cfg.entry};
  seen[body.cfg.entry] = true;
  while (!stack.empty()) {
    int n = stack.back();
    stack.pop_back();
    for (int s : body.cfg.nodes[n].succ) {
      if (!seen[s]) { seen[s] = true; stack.push_back(s); }
    }
  }
  EXPECT_TRUE(seen[body.backedge]);
  EXPECT_TRUE(seen[body.cfg.exit]);
}

// ---------------------------------------------------------------------------
// monsoon-analyze-must-poll
// ---------------------------------------------------------------------------

TEST(MustPollTest, FlagsRowLoopWithoutPoll) {
  auto diags = Analyze("src/exec/e.cc",
                       "Status Run(ExecContext* ctx, const Table& t) {\n"
                       "  for (size_t i = 0; i < t.num_rows(); ++i) {\n"
                       "    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));\n"
                       "  }\n"
                       "  return Status::OK();\n"
                       "}\n");
  ASSERT_TRUE(HasRule(diags, "monsoon-analyze-must-poll"));
  EXPECT_EQ(diags[0].line, 2);
}

TEST(MustPollTest, FlagsPollReachedOnlyOnSomePaths) {
  // The poll hides behind a branch: the else path completes an iteration
  // without it.
  EXPECT_TRUE(HasRule(
      Analyze("src/exec/e.cc",
              "Status Run(ExecContext* ctx, const Table& t) {\n"
              "  for (size_t i = 0; i < t.num_rows(); ++i) {\n"
              "    if (i % 16 == 0) MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());\n"
              "    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));\n"
              "  }\n"
              "  return Status::OK();\n"
              "}\n"),
      "monsoon-analyze-must-poll"));
  // A `continue` that skips past the poll is the same gap.
  EXPECT_TRUE(HasRule(
      Analyze("src/exec/e.cc",
              "Status Run(ExecContext* ctx, const Table& t) {\n"
              "  for (size_t i = 0; i < t.num_rows(); ++i) {\n"
              "    if (skip(i)) continue;\n"
              "    MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());\n"
              "    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));\n"
              "  }\n"
              "  return Status::OK();\n"
              "}\n"),
      "monsoon-analyze-must-poll"));
}

TEST(MustPollTest, FlagsRunCallThatPollsNothing) {
  // Only ForEachBatch polls per batch; a Run call that happens to share a
  // statement with the word Pipeline polls nothing.
  EXPECT_TRUE(HasRule(
      Analyze("src/exec/e.cc",
              "Status Run(ExecContext* ctx, TaskGroup& group, size_t num_morsels) {\n"
              "  for (size_t m = 0; m < num_morsels; ++m) {\n"
              "    group.Run(Pipeline::Drain, stages[m]);\n"
              "  }\n"
              "  return Status::OK();\n"
              "}\n"),
      "monsoon-analyze-must-poll"));
}

TEST(MustPollTest, FlagsMorselLambdaBody) {
  // The morsel-body lambda is its own unit: rows iterated inside one morsel
  // still need a poll even though ParallelFor polls between morsels.
  EXPECT_TRUE(HasRule(
      Analyze("src/exec/e.cc",
              "Status Run(ExecContext* ctx) {\n"
              "  return parallel::ParallelFor(\n"
              "      ctx->pool(), n, morsel, ctx->cancel_token(),\n"
              "      [&](size_t m, size_t begin, size_t end) -> Status {\n"
              "        for (size_t i = begin; i < end; ++i) {\n"
              "          MONSOON_FAULT_POINT(\"exec.x\", i);\n"
              "          EmitRow(out, t, i);\n"
              "        }\n"
              "        return Status::OK();\n"
              "      });\n"
              "}\n"),
      "monsoon-analyze-must-poll"));
}

TEST(MustPollTest, CleanLoopsStayQuiet) {
  // Poll at the top of every iteration.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status Run(ExecContext* ctx, const Table& t) {\n"
                      "  for (size_t i = 0; i < t.num_rows(); ++i) {\n"
                      "    MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());\n"
                      "    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));\n"
                      "  }\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
  // The null-guarded token poll counts: a null token means cancellation is
  // not configured.
  EXPECT_TRUE(Analyze("src/parallel/p.cc",
                      "Status Run(CancellationToken* token, size_t num_morsels) {\n"
                      "  for (size_t i = 0; i < num_morsels; ++i) {\n"
                      "    if (token != nullptr) MONSOON_RETURN_IF_ERROR(token->Check());\n"
                      "    run_morsel(i);\n"
                      "  }\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
  // An inner row loop under an already-polled row loop is exempt: the outer
  // iteration is the poll boundary.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status Run(ExecContext* ctx, const Table& lt, const Table& rt) {\n"
                      "  for (size_t li = 0; li < lt.num_rows(); ++li) {\n"
                      "    MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());\n"
                      "    for (size_t ri = 0; ri < rt.num_rows(); ++ri) {\n"
                      "      MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));\n"
                      "    }\n"
                      "  }\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
  // Batch functions run one batch per call; ForEachBatch polls per batch.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status ScanBatch(ExecContext* ctx, size_t begin, size_t end) {\n"
                      "  for (size_t i = begin; i < end; ++i) {\n"
                      "    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));\n"
                      "  }\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
  // A ForEachBatch call polls: it checks cancellation before every batch.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status Run(ExecContext* ctx, const Table& t, const ShardMap& map) {\n"
                      "  for (size_t m = 0; m < map.num_morsels(); ++m) {\n"
                      "    MONSOON_RETURN_IF_ERROR(ForEachBatch(ctx, t, map.begin(m),\n"
                      "                                         map.end(m), scan_batch));\n"
                      "  }\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
  // A loop whose every continuation breaks cannot run a second iteration.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status Run(ExecContext* ctx, const Table& t) {\n"
                      "  for (size_t i = 0; i < t.num_rows(); ++i) {\n"
                      "    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));\n"
                      "    break;\n"
                      "  }\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
  // Out-of-scope paths are not analyzed.
  EXPECT_TRUE(Analyze("src/sql/s.cc",
                      "void f(const Table& t) {\n"
                      "  for (size_t i = 0; i < t.num_rows(); ++i) use(i);\n"
                      "}\n")
                  .empty());
}

TEST(MustPollTest, NolintSuppresses) {
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status Run(ExecContext* ctx, const Table& t) {\n"
                      "  // NOLINTNEXTLINE-style is not supported; same line:\n"
                      "  for (size_t i = 0; i < t.num_rows(); ++i) {  // NOLINT(monsoon-analyze-must-poll)\n"
                      "    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));\n"
                      "  }\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// monsoon-analyze-lock-scope
// ---------------------------------------------------------------------------

TEST(LockScopeTest, BlockingCallUnderLock) {
  const std::string bad =
      "void f() {\n"
      "  MutexLock lock(mu_);\n"
      "  group.Wait();\n"
      "}\n";
  auto diags = Analyze("src/exec/e.cc", bad);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "monsoon-analyze-lock-scope");
  EXPECT_EQ(diags[0].line, 3);

  // Waiting on a condition variable releases the mutex: allowed.
  EXPECT_TRUE(Analyze("src/parallel/p.cc",
                      "void f() {\n  MutexLock lock(idle_mu_);\n"
                      "  idle_cv_.Wait(idle_mu_);\n}\n")
                  .empty());
  // Wait after the guard's scope closes: allowed.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "void f() {\n  { MutexLock lock(mu_); x = 1; }\n"
                      "  group.Wait();\n}\n")
                  .empty());
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "void f() {\n  MutexLock lock(mu_);\n"
                      "  group.Wait();  // NOLINT(monsoon-analyze-lock-scope)\n}\n")
                  .empty());
}

TEST(LockScopeTest, UdfKernelCallsUnderLock) {
  // Every way into a UDF kernel is flagged under a held lock; the six
  // calls report on lines 3 to 8.
  auto diags = Analyze("src/exec/e.cc",
                       "void f() {\n"
                       "  MutexLock lock(mu_);\n"
                       "  fn->kernel(in, cols, rows, out);\n"
                       "  column->Fill(bound, t, UdfRows::Range(b, e), b);\n"
                       "  cache->GetOrBuild(sig, bound, table, pool, 64);\n"
                       "  ForEachTermHash(bound, t, rows, &scratch, add);\n"
                       "  FillBatchColumn(bound, t, rows, &scratch);\n"
                       "  ReadTermRange(col, t, b, e, &scratch);\n"
                       "}\n");
  ASSERT_EQ(diags.size(), 6u);
  for (size_t i = 0; i < diags.size(); ++i) {
    EXPECT_EQ(diags[i].rule, "monsoon-analyze-lock-scope");
    EXPECT_EQ(diags[i].line, static_cast<int>(i) + 3);
    EXPECT_NE(diags[i].message.find("UDF evaluation"), std::string::npos);
  }
  // The same calls outside the guard's scope are fine.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "void f() {\n  { MutexLock lock(mu_); x = 1; }\n"
                      "  fn->kernel(in, cols, rows, out);\n}\n")
                  .empty());
}

TEST(LockScopeTest, BlockingCallInBranchUnderLock) {
  // Flow-sensitivity the token rule lacked: the lock is live inside the
  // else-branch even though the call sits in a nested block.
  EXPECT_TRUE(HasRule(Analyze("src/server/s.cc",
                              "void f() {\n"
                              "  MutexLock lock(sessions_mu_);\n"
                              "  if (fast) {\n    x = 1;\n  } else {\n"
                              "    pool->Submit(task);\n  }\n"
                              "}\n"),
                      "monsoon-analyze-lock-scope"));
}

TEST(LockScopeTest, SocketCallUnderLock) {
  const std::string bad =
      "void f() {\n"
      "  MutexLock lock(sessions_mu_);\n"
      "  WriteAll(fd, response);\n"
      "}\n";
  auto diags = Analyze("src/server/server.cc", bad);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "monsoon-analyze-lock-scope");
  EXPECT_EQ(diags[0].line, 3);

  // Raw POSIX calls are flagged the same way, in tools/ too.
  EXPECT_TRUE(HasRule(Analyze("tools/client/c.cc",
                              "void f() {\n  MutexLock lock(mu_);\n"
                              "  recv(fd, buf, n, 0);\n}\n"),
                      "monsoon-analyze-lock-scope"));
  // Socket I/O after the guard's scope closes: allowed.
  EXPECT_TRUE(Analyze("src/server/server.cc",
                      "void f() {\n  { MutexLock lock(sessions_mu_); x = 1; }\n"
                      "  WriteAll(fd, response);\n}\n")
                  .empty());
  // Waiting on a condition variable releases the mutex: allowed.
  EXPECT_TRUE(Analyze("src/server/admission.cc",
                      "void f() {\n  MutexLock lock(admission_mu_);\n"
                      "  slot_cv_.Wait(admission_mu_);\n}\n")
                  .empty());
  // A member-function definition is a body to analyze, not a call site.
  EXPECT_TRUE(Analyze("src/server/net.cc",
                      "StatusOr<bool> LineReader::ReadLine(std::string* s) {\n"
                      "  return true;\n}\n")
                  .empty());
  // NOLINT suppresses.
  EXPECT_TRUE(Analyze("src/server/server.cc",
                      "void f() {\n  MutexLock lock(mu_);\n"
                      "  send(fd, b, n, 0);  // NOLINT(monsoon-analyze-lock-scope)\n}\n")
                  .empty());
}

TEST(LockScopeTest, AcquisitionOrderFollowsRankTable) {
  // q.mu (rank 10) is the innermost lock; taking rt.mu (rank 40) under it
  // inverts the order.
  auto diags = Analyze("src/parallel/p.cc",
                       "void f() {\n  MutexLock a(q.mu);\n  MutexLock b(rt.mu);\n}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "monsoon-analyze-lock-scope");
  EXPECT_EQ(diags[0].line, 3);

  // Descending order is the sanctioned direction.
  EXPECT_TRUE(Analyze("src/parallel/p.cc",
                      "void f() {\n  MutexLock a(rt.mu);\n  MutexLock b(q.mu);\n}\n")
                  .empty());
  // Sequential (non-nested) scopes never interact.
  EXPECT_TRUE(Analyze("src/parallel/p.cc",
                      "void f() {\n  { MutexLock a(q.mu); }\n"
                      "  { MutexLock b(rt.mu); }\n}\n")
                  .empty());
  // Branch scopes don't leak into siblings either.
  EXPECT_TRUE(Analyze("src/parallel/p.cc",
                      "void f(bool c) {\n"
                      "  if (c) {\n    MutexLock a(q.mu);\n  } else {\n"
                      "    MutexLock b(rt.mu);\n  }\n}\n")
                  .empty());
}

TEST(LockScopeTest, LambdaBodiesStartWithoutEnclosingLocks) {
  // The lambda runs on a pool lane later — the lexically-enclosing lock is
  // not held when its body executes.
  EXPECT_TRUE(Analyze("src/server/s.cc",
                      "void f() {\n"
                      "  MutexLock lock(sessions_mu_);\n"
                      "  handle->fn = [fd]() { WriteAll(fd, r); };\n"
                      "}\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// monsoon-analyze-status-flow
// ---------------------------------------------------------------------------

TEST(StatusFlowTest, FlagsStatusDroppedOnOnePath) {
  auto diags = Analyze("src/exec/e.cc",
                       "Status f(bool c) {\n"
                       "  Status s = Try();\n"
                       "  if (c) return s;\n"
                       "  return Status::OK();\n"
                       "}\n");
  ASSERT_TRUE(HasRule(diags, "monsoon-analyze-status-flow"));
  EXPECT_EQ(diags[0].line, 2);
}

TEST(StatusFlowTest, FlagsOverwriteBeforeConsumption) {
  auto diags = Analyze("src/parallel/p.cc",
                       "Status f() {\n"
                       "  Status s = TryFast();\n"
                       "  s = TrySlow();\n"
                       "  return s;\n"
                       "}\n");
  ASSERT_TRUE(HasRule(diags, "monsoon-analyze-status-flow"));
  EXPECT_EQ(diags[0].line, 3);
}

TEST(StatusFlowTest, FlagsStatusNeverUsed) {
  EXPECT_TRUE(HasRule(Analyze("src/server/s.cc",
                              "void f() {\n"
                              "  Status s = conn.Close();\n"
                              "  log(\"closed\");\n"
                              "}\n"),
                      "monsoon-analyze-status-flow"));
  // StatusOr locals are tracked the same way.
  EXPECT_TRUE(HasRule(Analyze("src/exec/e.cc",
                              "void f() {\n"
                              "  StatusOr<int> r = Compute();\n"
                              "  log(\"done\");\n"
                              "}\n"),
                      "monsoon-analyze-status-flow"));
}

TEST(StatusFlowTest, ConsumedPathsStayQuiet) {
  // Deferred-consumption idiom: both statuses checked after both produced.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status f(ExecContext* ctx) {\n"
                      "  Status loop = parallel::ParallelFor(pool, n, m, fn);\n"
                      "  Status charged = ctx->ChargeWork(total);\n"
                      "  MONSOON_RETURN_IF_ERROR(loop);\n"
                      "  MONSOON_RETURN_IF_ERROR(charged);\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
  // Tested via ok() on every path.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "bool f() {\n"
                      "  Status s = Try();\n"
                      "  return s.ok();\n"
                      "}\n")
                  .empty());
  // OK() initializer then loop-carried reassignment: last writer wins.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status f(int n) {\n"
                      "  Status s = Status::OK();\n"
                      "  for (int i = 0; i < n; ++i) {\n"
                      "    s = TryOnce(i);\n"
                      "    if (s.ok()) break;\n"
                      "  }\n"
                      "  return s;\n"
                      "}\n")
                  .empty());
  // Explicit discard is a consumption.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "void f() {\n"
                      "  Status s = BestEffort();\n"
                      "  (void)s;\n"
                      "}\n")
                  .empty());
  // Out-of-scope path.
  EXPECT_TRUE(Analyze("src/sql/s.cc",
                      "void f() {\n  Status s = Try();\n}\n")
                  .empty());
}

TEST(StatusFlowTest, NolintSuppresses) {
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "void f() {\n"
                      "  Status s = BestEffort();  // NOLINT(monsoon-analyze-status-flow)\n"
                      "}\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// monsoon-analyze-accounting
// ---------------------------------------------------------------------------

TEST(AccountingTest, FlagsAppendWithoutCharge) {
  auto diags = Analyze("src/exec/e.cc",
                       "Status f(Table* dst, ExecContext* ctx) {\n"
                       "  dst->AppendSelectedFrom(src, rows, n);\n"
                       "  return Status::OK();\n"
                       "}\n");
  ASSERT_TRUE(HasRule(diags, "monsoon-analyze-accounting"));
  EXPECT_EQ(diags[0].line, 2);
}

TEST(AccountingTest, FlagsChargeMissedOnOneBranch) {
  EXPECT_TRUE(HasRule(
      Analyze("src/exec/e.cc",
              "Status f(Table* dst, ExecContext* ctx, bool fast) {\n"
              "  dst->AppendConcatRow(lt, li, rt, ri);\n"
              "  if (fast) return Status::OK();\n"
              "  return ctx->Charge(1);\n"
              "}\n"),
      "monsoon-analyze-accounting"));
  // Early return skips the charge that follows the append.
  EXPECT_TRUE(HasRule(
      Analyze("src/exec/e.cc",
              "Status f(Table* dst, ExecContext* ctx) {\n"
              "  for (size_t i = 0; i < n; ++i) {\n"
              "    MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());\n"
              "    dst->AppendSelectedFrom(src, sel);\n"
              "    if (dst->num_rows() > cap) return Status::OK();\n"
              "  }\n"
              "  return ctx->ChargeWork(n);\n"
              "}\n"),
      "monsoon-analyze-accounting"));
}

TEST(AccountingTest, ChargedPathsStayQuiet) {
  // Charge after the append loop covers every path that appended.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status f(Table* dst, ExecContext* ctx) {\n"
                      "  for (size_t i = 0; i < n; ++i) {\n"
                      "    MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());\n"
                      "    dst->AppendSelectedFrom(src, &i, 1);\n"
                      "  }\n"
                      "  return ctx->ChargeWork(n);\n"
                      "}\n")
                  .empty());
  // Charge before the append on the same path works too.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status f(Table* dst, ExecContext* ctx) {\n"
                      "  MONSOON_RETURN_IF_ERROR(ctx->Charge(src.num_rows()));\n"
                      "  dst->AppendSelectedFrom(src, rows, src.num_rows());\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
  // A morsel-local tally is a sanctioned charge.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status f(Table* dst, ExecContext* ctx) {\n"
                      "  ++*work_tally_;\n"
                      "  dst->AppendSelectedFrom(src, rows, n);\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
  // Functions without an ExecContext are out of scope (leaf helpers whose
  // callers charge).
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "void EmitRow(Table* dst) {\n"
                      "  dst->AppendConcatRow(lt, li, rt, ri);\n"
                      "}\n")
                  .empty());
  // src/storage/ owns the append implementations themselves.
  EXPECT_TRUE(Analyze("src/storage/t.cc",
                      "void f(Table* dst, ExecContext* ctx) {\n"
                      "  dst->AppendSelectedFrom(src, rows, n);\n"
                      "}\n")
                  .empty());
}

TEST(AccountingTest, WindowGathersAreAppends) {
  // The barrier gather writes rows into a pre-sized output: uncharged, it
  // is reported like any append.
  auto diags = Analyze("src/exec/e.cc",
                       "Status f(Table* out, ExecContext* ctx) {\n"
                       "  out->PresizeGather(n, src);\n"
                       "  out->GatherAt(0, src, rows, n);\n"
                       "  return Status::OK();\n"
                       "}\n");
  ASSERT_TRUE(HasRule(diags, "monsoon-analyze-accounting"));
  EXPECT_EQ(diags[0].line, 3);
  // Charged after the gather, as the join charges its output rows.
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status f(Table* out, ExecContext* ctx) {\n"
                      "  out->PresizeGather(n, lt, &rt);\n"
                      "  out->GatherConcatAt(0, lt, lrows, rt, rrows, n);\n"
                      "  return ctx->Charge(out->num_rows());\n"
                      "}\n")
                  .empty());
}

TEST(AccountingTest, LambdasOfExecContextFunctionsAreInScope) {
  // A pool lane's gather runs on behalf of the pass that took the
  // context, so the lambda must charge or say where its rows were charged.
  const std::string lane =
      "Status f(Table* out, ExecContext* ctx) {\n"
      "  return parallel::ParallelFor(\n"
      "      ctx->pool(), n, 1, ctx->cancel_token(),\n"
      "      [&](size_t r, size_t, size_t) {\n"
      "        out->GatherAt(at[r], src, rows[r], n[r]);%s\n"
      "        return Status::OK();\n"
      "      });\n"
      "}\n";
  auto with = [&](const char* suffix) {
    std::string src = lane;
    src.replace(src.find("%s"), 2, suffix);
    return Analyze("src/exec/e.cc", src);
  };
  auto diags = with("");
  ASSERT_TRUE(HasRule(diags, "monsoon-analyze-accounting"));
  EXPECT_EQ(diags[0].line, 5);
  EXPECT_TRUE(
      with("  // NOLINT(monsoon-analyze-accounting): charged by the caller").empty());
  // The same lambda in a function without a context stays out of scope.
  std::string free_fn = lane;
  free_fn.replace(free_fn.find("ExecContext* ctx"), 16, "Pool* pool");
  free_fn.replace(free_fn.find("%s"), 2, "");
  EXPECT_TRUE(Analyze("src/exec/e.cc", free_fn).empty());
}

TEST(AccountingTest, NolintSuppresses) {
  EXPECT_TRUE(Analyze("src/exec/e.cc",
                      "Status f(Table* dst, ExecContext* ctx) {\n"
                      "  dst->AppendSelectedFrom(src, rows, n);  // NOLINT(monsoon-analyze-accounting)\n"
                      "  return Status::OK();\n"
                      "}\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// AnalyzeFiles plumbing
// ---------------------------------------------------------------------------

TEST(AnalyzeFilesTest, DiagnosticsSortedAndPassListStable) {
  auto diags = AnalyzeFiles(
      {{"src/exec/b.cc",
        "Status f(Table* dst, ExecContext* ctx) {\n"
        "  dst->AppendSelectedFrom(src, rows, n);\n"
        "  return Status::OK();\n"
        "}\n"},
       {"src/exec/a.cc",
        "void f() {\n  Status s = conn.Close();\n  log(1);\n}\n"}});
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].path, "src/exec/a.cc");
  EXPECT_EQ(diags[1].path, "src/exec/b.cc");

  EXPECT_EQ(PassNames().size(), 4u);
}

}  // namespace
}  // namespace monsoon::analyze
