#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "common/check.h"
#include "common/hash.h"
#include "exec/batch.h"
#include "exec/bloom.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "shard/shard.h"
#include "sketch/hyperloglog.h"

namespace monsoon {

StatusOr<BoundTerm> BoundTerm::Bind(const UdfTerm& term, const Schema& schema,
                                    const UdfRegistry& registry) {
  BoundTerm bound;
  MONSOON_ASSIGN_OR_RETURN(bound.fn_, registry.Lookup(term.function));
  bound.arg_cols_.reserve(term.args.size());
  for (const auto& arg : term.args) {
    MONSOON_ASSIGN_OR_RETURN(size_t col, schema.ColumnIndex(arg));
    bound.arg_cols_.push_back(col);
  }
  return bound;
}

namespace {

/// One UDF term as an operator reads it: the bound term and, when
/// BindCached found one, the store's evaluate-once column over the
/// operator's input, pinned for the operator's duration. Without a column,
/// each range evaluates the term batch by batch.
struct TermColumn {
  BoundTerm term;
  CachedUdfColumnPtr cached;
};

/// A predicate bound against a single (possibly concatenated) schema,
/// evaluated as a residual filter. Leaf filters may read cached columns;
/// join residuals evaluate against transient concatenated rows and stay
/// batch-local.
struct BoundResidual {
  enum class Kind { kJoinEq, kJoinNeq, kSelectionEq };
  Kind kind;
  TermColumn left;
  TermColumn right;  // join kinds only
  Value constant;    // selection only
};

/// The batch-local columns uncached residuals evaluate into, and
/// EmitSurvivors' selection of staged candidates: one per range, reused
/// from batch to batch.
struct ResidualScratch {
  FlatColumn left;
  FlatColumn right;
  std::vector<uint32_t> keep;
};

StatusOr<BoundResidual> BindResidual(const Predicate& pred, const Schema& schema,
                                     const UdfRegistry& registry) {
  BoundResidual residual;
  MONSOON_ASSIGN_OR_RETURN(residual.left.term,
                           BoundTerm::Bind(pred.left, schema, registry));
  if (pred.kind == Predicate::Kind::kSelection) {
    residual.kind = BoundResidual::Kind::kSelectionEq;
    residual.constant = pred.constant;
  } else {
    residual.kind = pred.equality ? BoundResidual::Kind::kJoinEq
                                  : BoundResidual::Kind::kJoinNeq;
    MONSOON_ASSIGN_OR_RETURN(residual.right.term,
                             BoundTerm::Bind(*pred.right, schema, registry));
  }
  return residual;
}

/// What one range emits: the ids of its output rows, in output order. A
/// scan range lists the input rows that survive its filters (`left` only);
/// a join range lists (left row, right row) pairs. GatherRanges turns them
/// into the output's per-relation row ids at the barrier; no cell is copied.
struct RowIds {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;

  size_t size() const { return left.size(); }
};

/// The one place an operator decides how it reads a term (DESIGN.md §7):
/// `col` reads the store's evaluate-once column over `expr` when `expr` —
/// and a join's `other` input, when given — is the store's own table for
/// its signature and GetOrBuild returns a column (filling it on the pool
/// on a miss); otherwise `col->cached` stays null and each range evaluates
/// the term batch by batch. Only a resident expression (a base relation,
/// or one materialized earlier that later plan trees scan as a leaf) can
/// be read again; a column over a fresh intermediate would be an extra
/// pass that never hits. A zero budget makes GetOrBuild return null.
/// Operators bind before their ranges run, so every shard count looks up
/// the same whole columns.
///
/// A transient fault while filling is not fatal: it is counted in
/// faults.cache_fills_dropped and the term reads batch-local, which is
/// accounting-identical (the cache is invisible to the cost model).
/// Non-transient errors propagate, as does any error once the query's
/// cancellation token has tripped — a deadline must abort, not degrade.
Status BindCached(ExecContext* ctx, const MaterializedStore& store,
                  const MaterializedExpr& expr, const MaterializedExpr* other,
                  TermColumn* col) {
  static obs::Counter* const dropped_metric =
      obs::Registry::Global().GetCounter("faults.cache_fills_dropped");
  auto resident = [&store](const MaterializedExpr& e) {
    auto stored = store.Lookup(e.sig);
    return stored.ok() && (*stored)->table.get() == e.table.get();
  };
  if (!resident(expr) || (other != nullptr && !resident(*other))) {
    return Status::OK();
  }
  StatusOr<CachedUdfColumnPtr> built = store.udf_cache()->GetOrBuild(
      expr.sig, col->term, expr.table, ctx->pool(), ctx->morsel_size(),
      ctx->cancel_token());
  if (built.ok()) {
    col->cached = std::move(built).value();
    // Positional reads against the wrong table are the cache's one fatal
    // failure mode; the staleness check makes this structurally true.
    MONSOON_DCHECK(col->cached == nullptr ||
                   col->cached->size() == expr.table->num_rows())
        << "cached column size diverged from its table";
    return Status::OK();
  }
  const bool query_dead =
      ctx->cancel_token() != nullptr && ctx->cancel_token()->cancelled();
  if (query_dead || !built.status().IsTransient()) return built.status();
  dropped_metric->Add(1);
  return Status::OK();
}

/// A term's values over a batch [begin, end): row r sits at view index
/// r - base.
struct TermView {
  FlatView view;
  size_t base;
};

/// The one range read: `col` over rows [begin, end) of `table` — its
/// cached column whole (base 0), or one kernel call into the batch-local
/// `scratch` (base begin).
TermView ReadTermRange(const TermColumn& col, const Table& table, size_t begin,
                       size_t end, FlatColumn* scratch) {
  if (col.cached != nullptr) return {FlatView::Of(*col.cached), 0};
  return {FillBatchColumn(col.term, table, UdfRows::Range(begin, end), scratch),
          begin};
}

constexpr uint64_t kJoinHashSeed = 0xabcdef0123456789ULL;
/// Σ sketch precision: 2^14 registers per term.
constexpr int kHllPrecision = 14;

// ---------------------------------------------------------------------------
// The range driver (DESIGN.md §6, §15). Every operator — leaf scan, hash
// join build and probe, filtered cross product, Σ pass — is written once,
// as a body over one row range [begin, end) that commits into that range's
// slot. The driver alone decides how a pass splits its rows into ranges;
// every range, sharded or not, is claimed from parallel::ParallelFor's one
// dispenser, and the bodies cannot tell the plans apart.
// ---------------------------------------------------------------------------

/// How one pass over an input splits into ranges, picked from what the
/// context shows:
///  * sharded when ctx->num_shards() > 1: even contiguous ranges of the
///    input as stored, one per shard, run under shard::RunSharded — a
///    transient failure retries only its range, and a range commits only
///    on success;
///  * otherwise even ranges of at most one morsel when a pool is attached
///    and the input exceeds one morsel, else one range — the first error
///    stops siblings from claiming further ranges.
struct RangePlan {
  shard::ShardMap map;
  bool sharded = false;

  size_t num_ranges() const { return map.num_shards(); }
};

/// This planner is the one place that knows the shard layout: a sharded
/// pass splits its input, base table or intermediate, into one even
/// contiguous range per shard. The per-shard accounting invariant holds for
/// ANY contiguous decomposition (DESIGN.md §15), and the ranges gather in
/// order, so the output is the same at every shard count. Morsels pay off
/// once the input is big enough that splitting pays for the merge.
RangePlan PlanRanges(const ExecContext* ctx, size_t rows, size_t morsel) {
  const size_t shards = ctx->num_shards();
  if (shards > 1) return {shard::EvenMap(rows, shards), /*sharded=*/true};
  const bool split = ctx->pool() != nullptr && rows > ctx->morsel_size();
  return {shard::EvenMap(rows, split ? parallel::NumMorsels(rows, morsel) : 1),
          /*sharded=*/false};
}

/// The barrier step of a pass whose ranges emitted row ids (`rt` null:
/// rows of `lt`; else lt ⧺ rt pairs). Prefix sums over the slots give each
/// range its window of the output, which is sized once; the ranges then
/// write their windows' row ids (one per source relation), side by side on
/// the pool when the output exceeds one morsel (DriveRanges' inline rule),
/// so the output is in range order whatever the thread, shard or morsel
/// count.
StatusOr<TablePtr> GatherRanges(ExecContext* ctx, const Schema& schema,
                                const std::vector<RowIds>& slots,
                                const Table& lt, const Table* rt) {
  shard::ShardMap windows;
  windows.offsets.reserve(slots.size() + 1);
  windows.offsets.push_back(0);
  for (const RowIds& slot : slots) {
    windows.offsets.push_back(windows.offsets.back() + slot.size());
  }
  auto out = std::make_shared<Table>(schema);
  out->PresizeGather(windows.total_rows(), lt, rt);
  parallel::ThreadPool* pool =
      windows.total_rows() > ctx->morsel_size() ? ctx->pool() : nullptr;
  MONSOON_RETURN_IF_ERROR(parallel::ParallelFor(
      pool, slots.size(), 1, ctx->cancel_token(),
      [&](size_t r, size_t, size_t) {
        const RowIds& ids = slots[r];
        if (rt == nullptr) {
          out->GatherAt(windows.begin(r), lt, ids.left.data(), ids.size());  // NOLINT(monsoon-analyze-accounting): scan input charged by ExecuteLeaf before its pass
        } else {
          out->GatherConcatAt(windows.begin(r), lt, ids.left.data(), *rt,  // NOLINT(monsoon-analyze-accounting): join output charged by ExecuteJoin right after this gather
                              ids.right.data(), ids.size());
        }
        return Status::OK();
      }));
  return TablePtr(std::move(out));
}

/// One attempt at one range, as the driver hands it to an operator body.
struct RangeTask {
  size_t index = 0;  // the range's slot
  size_t begin = 0;
  size_t end = 0;
  bool sharded = false;
  uint32_t attempt = 0;
  // The range's work tally, fresh per attempt and charged by the driver at
  // the barrier. `work_limit` is what the budget had left when the pass
  // started: a range whose tally alone passes it trips right away.
  uint64_t* work_tally = nullptr;
  uint64_t work_limit = 0;

  /// Runs `rows` over the range: whole, or — under the shard supervisor —
  /// in two halves around the mid-range kill site, so a killed attempt has
  /// done real work that must be discarded before the retry re-reads
  /// exactly this range.
  template <typename Fn>
  Status Feed(Fn&& rows) const {
    if (!sharded) return rows(begin, end);
    const size_t mid = begin + (end - begin) / 2;
    MONSOON_RETURN_IF_ERROR(rows(begin, mid));
    MONSOON_RETURN_IF_ERROR(
        fault::FireAttempt(shard::kShardExecPoint, index, attempt));
    return rows(mid, end);
  }

  Status CheckWork() const {
    if (*work_tally > work_limit) {
      return Status::ResourceExhausted("work budget exceeded");
    }
    return Status::OK();
  }
};

/// Runs `body` once per range of `plan` (more often for retried shards) and
/// charges the ranges' work tallies in one sum at the barrier, whether or
/// not a range failed. A budget trip therefore still lands in the operator
/// that overran: inside a range once its own tally passes the limit, else
/// here when the sum does.
Status DriveRanges(ExecContext* ctx, const RangePlan& plan,
                   const std::function<Status(const RangeTask&)>& body) {
  const shard::ShardMap& map = plan.map;
  std::vector<uint64_t> work(map.num_shards(), 0);
  const uint64_t work_limit = ctx->RemainingWork();
  // Each attempt tallies on its own stack (ranges running side by side
  // never share a cache line); a retry's tally replaces its predecessor's.
  auto run_attempt = [&](size_t r, size_t begin, size_t end, uint32_t attempt) {
    MONSOON_DCHECK(r < work.size()) << "range " << r << " out of the map";
    uint64_t tally = 0;
    Status status = body(
        RangeTask{r, begin, end, plan.sharded, attempt, &tally, work_limit});
    work[r] = tally;
    return status;
  };
  // The inline rule: a pass of at most one morsel takes no pool, so every
  // range — each shard of a sharded pass too — runs on the calling thread.
  parallel::ThreadPool* pool =
      map.total_rows() > ctx->morsel_size() ? ctx->pool() : nullptr;
  shard::ShardRunStats stats;
  Status run = plan.sharded
                   ? shard::RunSharded(pool, ctx->cancel_token(), map,
                                       shard::kShardExecPoint, run_attempt,
                                       &stats)
                   : parallel::ParallelFor(
                         pool, map.num_shards(), 1, ctx->cancel_token(),
                         [&](size_t r, size_t, size_t) {
                           return run_attempt(r, map.begin(r), map.end(r), 0);
                         });
  ctx->AddShardStats(stats);
  uint64_t total = 0;
  for (uint64_t w : work) total += w;
  Status charged = ctx->ChargeWork(total);
  MONSOON_RETURN_IF_ERROR(run);
  return charged;
}

/// The hash join's build index: one flat chained table over the build
/// side's composite key hashes — a bucket-head array plus a `next` array
/// indexed by build row. Rows are head-inserted in ascending order, so a
/// chain lists its rows newest first; restricted to one full hash, that is
/// the order libstdc++'s hash multimap gives equal keys, which the join's
/// output row order has always followed (DESIGN.md §6). Read-only once
/// built, so every probe range shares it.
class FlatHashIndex {
 public:
  /// `hashes` (one per build row) must outlive the index.
  explicit FlatHashIndex(const std::vector<uint64_t>& hashes)
      : hashes_(hashes.data()), next_(hashes.size()) {
    int bits = 4;
    while ((size_t{1} << bits) < 2 * hashes.size()) ++bits;
    // Buckets take the top bits: the Bloom filter reads the low ones.
    shift_ = 64 - bits;
    heads_.assign(size_t{1} << bits, kEnd);
    for (uint32_t row = 0; row < next_.size(); ++row) {
      uint32_t& head = heads_[hashes_[row] >> shift_];
      next_[row] = head;
      head = row;
    }
  }

  /// Calls fn(row) for every build row whose full hash is `h`, newest
  /// first. Rows that only share the bucket are skipped here, so callers
  /// see (and charge) exactly the equal-hash candidates.
  template <typename Fn>
  void ForEachCandidate(uint64_t h, Fn&& fn) const {
    for (uint32_t row = heads_[h >> shift_]; row != kEnd; row = next_[row]) {
      if (hashes_[row] == h) fn(row);
    }
  }

 private:
  static constexpr uint32_t kEnd = ~uint32_t{0};
  const uint64_t* hashes_;
  int shift_ = 60;
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
};

// ---------------------------------------------------------------------------
// Batch functions (DESIGN.md §12). A range body hands its rows to
// ForEachBatch, which calls one *Batch function per ctx->batch_size() rows
// (kBatchRows outside tests).
// ---------------------------------------------------------------------------

/// Calls fn(table, b, e) for consecutive batches [b, e) of the rows
/// [begin, end) of `table`, ctx->batch_size() rows each, polling
/// cancellation before every batch. A range's last batch is short rather
/// than reaching into the next range, so range boundaries are always batch
/// boundaries.
template <typename Fn>
Status ForEachBatch(ExecContext* ctx, const Table& table, size_t begin,
                    size_t end, Fn&& fn) {
  const size_t batch_size = ctx->batch_size();
  for (size_t b = begin; b < end; b += batch_size) {
    MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());
    MONSOON_RETURN_IF_ERROR(fn(table, b, std::min(end, b + batch_size)));
  }
  return Status::OK();
}

/// Narrows a batch [begin, end) to the rows satisfying pass(row), calling
/// it once per selected row (absolute id), in selection order. The batch's
/// selection is the tail of the range's row-id list from `tail` on: the
/// first filter scans the batch and appends its survivors there, later
/// filters compact the tail in place. A conjunction thus touches each row
/// once per filter it survives to — the row path's short-circuit
/// evaluation set, just column-at-a-time — and the last filter leaves the
/// survivors where the scan emits them.
template <typename Pred>
void RefineSelection(size_t begin, size_t end, bool first, size_t tail,
                     std::vector<uint32_t>* rows, Pred&& pass) {
  size_t w = tail;
  if (first) {
    rows->resize(tail + (end - begin));
    uint32_t* out = rows->data();
    for (size_t row = begin; row < end; ++row) {
      if (pass(row)) out[w++] = static_cast<uint32_t>(row);
    }
  } else {
    uint32_t* sel = rows->data();
    const size_t n = rows->size();
    for (size_t i = tail; i < n; ++i) {
      const uint32_t row = sel[i];
      if (pass(row)) sel[w++] = row;
    }
  }
  rows->resize(w);
}

/// Refines a batch's selection (see RefineSelection) by `f`, reading each
/// selected row's term values at index at(row) of `l` (and of `r`, join
/// kinds); `at` is called once per selected row, in order. Type-specialized
/// loops mirror FlatView::EqualsValue / FlatView::Equal exactly, hash-first
/// for strings.
template <typename At>
void RefineByResidual(const BoundResidual& f, const FlatView& l,
                      const FlatView& r, At at, size_t begin, size_t end,
                      bool first, size_t tail, std::vector<uint32_t>* rows) {
  auto refine = [&](auto&& pass) {
    RefineSelection(begin, end, first, tail, rows, pass);
  };
  if (f.kind == BoundResidual::Kind::kSelectionEq) {
    if (f.constant.type() != l.type) {
      refine([](size_t) { return false; });
      return;
    }
    switch (l.type) {
      case ValueType::kInt64: {
        const int64_t want = f.constant.AsInt64();
        const int64_t* data = l.i64;
        refine([&](size_t row) { return data[at(row)] == want; });
        return;
      }
      case ValueType::kDouble: {
        const double want = f.constant.AsDouble();
        const double* data = l.dbl;
        refine([&](size_t row) { return data[at(row)] == want; });
        return;
      }
      case ValueType::kString: {
        const std::string& want = f.constant.AsString();
        const uint64_t want_hash = HashString(want);
        const uint64_t* hashes = l.str_hash;
        const std::string* strs = l.str;
        refine([&](size_t row) {
          const size_t k = at(row);
          return hashes[k] == want_hash && strs[k] == want;
        });
        return;
      }
    }
    return;
  }
  const bool keep_equal = f.kind == BoundResidual::Kind::kJoinEq;
  if (l.type != r.type) {
    // Equal() is false across types on every row.
    refine([keep_equal](size_t) { return !keep_equal; });
    return;
  }
  switch (l.type) {
    case ValueType::kInt64: {
      const int64_t* a = l.i64;
      const int64_t* b = r.i64;
      refine([&](size_t row) {
        const size_t k = at(row);
        return (a[k] == b[k]) == keep_equal;
      });
      return;
    }
    case ValueType::kDouble: {
      const double* a = l.dbl;
      const double* b = r.dbl;
      refine([&](size_t row) {
        const size_t k = at(row);
        return (a[k] == b[k]) == keep_equal;
      });
      return;
    }
    case ValueType::kString: {
      const uint64_t* ha = l.str_hash;
      const uint64_t* hb = r.str_hash;
      const std::string* sa = l.str;
      const std::string* sb = r.str;
      refine([&](size_t row) {
        const size_t k = at(row);
        return (ha[k] == hb[k] && sa[k] == sb[k]) == keep_equal;
      });
      return;
    }
  }
}

/// Applies one bound residual to a batch's selection (see RefineSelection
/// for `first`, `tail` and `rows`). Cached filters read their whole-
/// expression columns by row id; uncached ones first evaluate their terms
/// over exactly the rows still selected, one kernel call per term, into
/// `scratch`.
void ApplyResidualBatch(const BoundResidual& f, const Table& in, size_t begin,
                        size_t end, bool first, size_t tail,
                        std::vector<uint32_t>* rows, ResidualScratch* scratch) {
  const bool join_kind = f.kind != BoundResidual::Kind::kSelectionEq;
  if (f.left.cached != nullptr) {
    RefineByResidual(f, FlatView::Of(*f.left.cached),
                     join_kind ? FlatView::Of(*f.right.cached) : FlatView(),
                     [](size_t row) { return row; }, begin, end, first, tail,
                     rows);
    return;
  }
  const UdfRows sel = first ? UdfRows::Range(begin, end)
                            : UdfRows::Ids(rows->data() + tail, rows->size() - tail);
  const FlatView l = FillBatchColumn(f.left.term, in, sel, &scratch->left);
  const FlatView r =
      join_kind ? FillBatchColumn(f.right.term, in, sel, &scratch->right)
                : FlatView();
  // The kernel wrote the i-th selected row's values to slot i.
  RefineByResidual(f, l, r, [i = size_t{0}](size_t) mutable { return i++; },
                   begin, end, first, tail, rows);
}

/// Appends the rows of [begin, end) of `in` that pass every filter to
/// `rows`, narrowing the selection one filter at a time and stopping once
/// it is empty.
void FilterRows(const std::vector<BoundResidual>& filters, const Table& in,
                size_t begin, size_t end, std::vector<uint32_t>* rows,
                ResidualScratch* scratch) {
  const size_t tail = rows->size();
  for (size_t i = 0; i < filters.size(); ++i) {
    ApplyResidualBatch(filters[i], in, begin, end, /*first=*/i == 0, tail,
                       rows, scratch);
    if (rows->size() == tail) break;
  }
}

/// Emits the join candidates (lrows[i], rrows[i]), i < n, that pass every
/// residual filter. The filters see the concatenated schema, so candidates
/// stage in `staging` (its allocation reused across calls) and FilterRows
/// narrows them filter by filter: each filter evaluates only the
/// candidates every earlier one kept. Callers charge the candidates.
void EmitSurvivors(const std::vector<BoundResidual>& residual, const Table& lt,
                   const uint32_t* lrows, const Table& rt, const uint32_t* rrows,
                   size_t n, Table* staging, ResidualScratch* scratch,
                   RowIds* out) {
  if (residual.empty()) {
    out->left.insert(out->left.end(), lrows, lrows + n);
    out->right.insert(out->right.end(), rrows, rrows + n);
    return;
  }
  staging->ClearRows();
  staging->AppendConcatSelected(lt, lrows, rt, rrows, n);
  scratch->keep.clear();
  FilterRows(residual, *staging, 0, n, &scratch->keep, scratch);
  for (const uint32_t i : scratch->keep) {
    out->left.push_back(lrows[i]);
    out->right.push_back(rrows[i]);
  }
}

/// Leaf scan: appends the rows of [begin, end) that pass every filter to
/// the range's row-id list `rows`; column values are copied once, by the
/// gather at the barrier. Fires the per-row fault point over the whole
/// batch first (firing is a pure function of the coordinate, so hoisting
/// it out of the filter loops leaves fault behavior identical to the row
/// path), then filters. A scan without filters returns its source, so
/// `filters` is never empty.
Status ScanBatch(const std::vector<BoundResidual>& filters, const Table& in,
                 size_t begin, size_t end, ResidualScratch* scratch,
                 std::vector<uint32_t>* rows) {
  MONSOON_DCHECK(!filters.empty()) << "scan batch without filters";
  for (size_t row = begin; row < end; ++row) {
    MONSOON_FAULT_POINT("exec.udf_eval.filter", row);
  }
  FilterRows(filters, in, begin, end, rows, scratch);
  return Status::OK();
}

/// Σ: folds rows [begin, end) into one HLL per term, reading each term's
/// hashes through ReadTermRange (the range's `scratch` holds batch-local
/// values).
Status SigmaBatch(const std::vector<TermColumn>& terms, const Table& table,
                  size_t begin, size_t end, FlatColumn* scratch,
                  std::vector<HyperLogLog>* sketches) {
  for (size_t row = begin; row < end; ++row) {
    MONSOON_FAULT_POINT("exec.udf_eval.sigma", row);
  }
  for (size_t t = 0; t < terms.size(); ++t) {
    HyperLogLog& sketch = (*sketches)[t];
    const TermView v = ReadTermRange(terms[t], table, begin, end, scratch);
    for (size_t row = begin; row < end; ++row) {
      sketch.AddHash(v.view.HashAt(row - v.base));
    }
  }
  return Status::OK();
}

/// acc[i] = HashCombine(acc[i], hash of view[(begin + i) - base]) for i in
/// [0, end - begin), with `base` as in TermView. Callers invoke this once
/// per key column in k-ascending order, which reproduces the row path's
/// per-row HashCombine chain bit-for-bit.
void CombineKeyHashes(const FlatView& v, size_t begin, size_t end, size_t base,
                      uint64_t* acc) {
  switch (v.type) {
    case ValueType::kInt64:
      for (size_t row = begin; row < end; ++row) {
        acc[row - begin] =
            HashCombine(acc[row - begin], HashInt64Value(v.i64[row - base]));
      }
      return;
    case ValueType::kDouble:
      for (size_t row = begin; row < end; ++row) {
        acc[row - begin] =
            HashCombine(acc[row - begin], HashDoubleValue(v.dbl[row - base]));
      }
      return;
    case ValueType::kString:
      for (size_t row = begin; row < end; ++row) {
        acc[row - begin] = HashCombine(acc[row - begin], v.str_hash[row - base]);
      }
      return;
  }
}

/// Build-side keys of the hash join for rows [begin, end): fires the
/// join_build fault point for the batch, fills these rows of each key
/// without a cached column into its whole-side column flat[k], and writes
/// each row's composite key hash to hashes[row] from the keys' whole-side
/// `views` (base 0). Ranges write disjoint rows of the same whole-side
/// arrays.
Status BuildKeysBatch(const std::vector<const TermColumn*>& keys,
                      std::vector<FlatColumn>* flat,
                      const std::vector<FlatView>& views, const Table& build,
                      size_t begin, size_t end, uint64_t* hashes) {
  for (size_t row = begin; row < end; ++row) {
    MONSOON_FAULT_POINT("exec.udf_eval.join_build", row);
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    if (keys[k]->cached != nullptr) continue;
    (*flat)[k].Fill(keys[k]->term, build, UdfRows::Range(begin, end), begin);
  }
  uint64_t* acc = hashes + begin;
  std::fill(acc, acc + (end - begin), kJoinHashSeed);
  for (const FlatView& view : views) {
    CombineKeyHashes(view, begin, end, /*base=*/0, acc);
  }
  return Status::OK();
}

/// One probe range of the hash join: the join it reads, shared read-only
/// with every other range, and the range's own task, output pairs and
/// scratch buffers, reused from batch to batch.
struct ProbeRange {
  const Table& lt;
  const Table& rt;
  bool build_left;
  const std::vector<const TermColumn*>& probe_keys;
  const std::vector<FlatView>& build_views;
  const FlatHashIndex& index;
  const JoinBloomFilter& bloom;
  const std::vector<BoundResidual>& residual;
  const RangeTask& task;
  Table candidates;  // residual staging
  ResidualScratch scratch{};
  RowIds pairs{};
  std::vector<FlatColumn> key_scratch{};  // batch-local probe keys
  std::vector<TermView> keys{};           // the batch's probe-key views
  std::vector<uint64_t> hashes{};
  std::vector<uint32_t> match_build{};
  std::vector<uint32_t> match_probe{};
};

/// Probes rows [begin, end) of `probe`: reads each probe key's range,
/// computes composite hashes column-wise, probes per row (fault point, one
/// work unit, Bloom pre-check, one unit per equal-hash candidate and key
/// confirm), checks the range's tally against the budget, and emits the
/// matched pairs column-wise — straight into the range's pairs, or through
/// the residual staging table whose survivors gather in. The Bloom filter
/// stores exactly the hashes in the index, so a reject only skips a chain
/// walk that would have found no candidate — zero units charged either
/// way.
Status ProbeBatch(ProbeRange* p, const Table& probe, size_t begin, size_t end) {
  static obs::Counter* const bloom_checks_metric =
      obs::Registry::Global().GetCounter("exec.bloom_checks");
  static obs::Counter* const bloom_rejects_metric =
      obs::Registry::Global().GetCounter("exec.bloom_rejects");

  const size_t n = end - begin;
  const size_t nkeys = p->probe_keys.size();

  // Composite key hashes for the whole batch, column-wise.
  p->key_scratch.resize(nkeys);
  p->keys.clear();
  p->hashes.assign(n, kJoinHashSeed);
  for (size_t k = 0; k < nkeys; ++k) {
    p->keys.push_back(ReadTermRange(*p->probe_keys[k], probe, begin, end,
                                    &p->key_scratch[k]));
    CombineKeyHashes(p->keys[k].view, begin, end, p->keys[k].base,
                     p->hashes.data());
  }

  p->match_build.clear();
  p->match_probe.clear();
  uint64_t bloom_rejected = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t row = begin + i;
    MONSOON_FAULT_POINT("exec.udf_eval.join_probe", row);
    ++*p->task.work_tally;
    const uint64_t h = p->hashes[i];
    if (!p->bloom.MayContain(h)) {
      ++bloom_rejected;
      continue;
    }
    p->index.ForEachCandidate(h, [&](uint32_t build_row) {
      ++*p->task.work_tally;
      for (size_t k = 0; k < nkeys; ++k) {
        const TermView& key = p->keys[k];
        if (!FlatView::Equal(p->build_views[k], build_row, key.view,
                             row - key.base)) {
          return;
        }
      }
      p->match_build.push_back(build_row);
      p->match_probe.push_back(static_cast<uint32_t>(row));
    });
  }
  bloom_checks_metric->Add(n);
  bloom_rejects_metric->Add(bloom_rejected);
  MONSOON_RETURN_IF_ERROR(p->task.CheckWork());

  const size_t nmatch = p->match_probe.size();
  if (nmatch == 0) return Status::OK();
  const uint32_t* lrows =
      p->build_left ? p->match_build.data() : p->match_probe.data();
  const uint32_t* rrows =
      p->build_left ? p->match_probe.data() : p->match_build.data();
  EmitSurvivors(p->residual, p->lt, lrows, p->rt, rrows, nmatch,
                &p->candidates, &p->scratch, &p->pairs);
  return Status::OK();
}

}  // namespace

StatusOr<ExecResult> Executor::Execute(const PlanNode::Ptr& plan,
                                       MaterializedStore* store,
                                       ExecContext* ctx) const {
  static obs::Counter* const cache_hits_metric =
      obs::Registry::Global().GetCounter("exec.udf_cache_hits");
  static obs::Counter* const cache_misses_metric =
      obs::Registry::Global().GetCounter("exec.udf_cache_misses");

  obs::TraceSpan span("exec", "execute");
  const UdfCacheStats before = store->udf_cache()->stats();
  ExecResult result;
  StatusOr<MaterializedExpr> output = ExecuteNode(plan, store, ctx, &result);
  // Cache counter deltas survive even failed runs (timeouts report the
  // partial cache activity alongside the partial work accounting).
  const UdfCacheStats after = store->udf_cache()->stats();
  ctx->AddUdfCacheDelta(after.hits - before.hits, after.misses - before.misses,
                        after.evictions - before.evictions, after.bytes_in_use);
  cache_hits_metric->Add(after.hits - before.hits);
  cache_misses_metric->Add(after.misses - before.misses);
  if (span.enabled()) {
    uint64_t hits = after.hits - before.hits;
    uint64_t lookups = hits + (after.misses - before.misses);
    span.Arg("udf_cache_hits", hits)
        .Arg("udf_cache_hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups))
        .Arg("ok", output.ok());
  }
  MONSOON_RETURN_IF_ERROR(output.status());
  result.output = std::move(output).value();
  store->Put(result.output);
  return result;
}

StatusOr<MaterializedExpr> Executor::ExecuteNode(const PlanNode::Ptr& node,
                                                 MaterializedStore* store,
                                                 ExecContext* ctx,
                                                 ExecResult* result) const {
  switch (node->kind()) {
    case PlanNode::Kind::kLeaf: {
      MONSOON_ASSIGN_OR_RETURN(MaterializedExpr out, ExecuteLeaf(node, store, ctx));
      result->observed_counts.emplace_back(out.sig, out.table->num_rows());
      return out;
    }
    case PlanNode::Kind::kJoin: {
      MONSOON_ASSIGN_OR_RETURN(MaterializedExpr left,
                               ExecuteNode(node->left(), store, ctx, result));
      MONSOON_ASSIGN_OR_RETURN(MaterializedExpr right,
                               ExecuteNode(node->right(), store, ctx, result));
      MONSOON_ASSIGN_OR_RETURN(
          MaterializedExpr out,
          ExecuteJoin(node, std::move(left), std::move(right), store, ctx));
      result->observed_counts.emplace_back(out.sig, out.table->num_rows());
      return out;
    }
    case PlanNode::Kind::kStatsCollect: {
      static obs::Counter* const degraded_metric =
          obs::Registry::Global().GetCounter("faults.degraded_sigma");
      MONSOON_ASSIGN_OR_RETURN(MaterializedExpr child,
                               ExecuteNode(node->child(), store, ctx, result));
      Status sigma =
          CollectStats(child, store, ctx, &result->observed_distincts);
      if (!sigma.ok()) {
        // Graceful degradation: a Σ pass lost to a transient fault or a
        // per-UDF timeout is skipped, not fatal — the MDP simply plans
        // that d(F, r|_s) from the spike-and-slab prior. Budget trips,
        // hard errors, and anything after the query deadline/cancel
        // tripped still abort (CollectStats charges at its end, so a
        // failed pass deterministically charges nothing).
        bool query_dead = ctx->cancel_token() != nullptr &&
                          ctx->cancel_token()->cancelled();
        if (query_dead || !sigma.IsTransient()) return sigma;
        degraded_metric->Add(1);
        result->degraded.push_back(
            std::move(sigma).WithContext("collecting Σ statistics")
                .ToString());
      }
      return child;
    }
  }
  return Status::Internal("unknown plan node kind");
}

StatusOr<MaterializedExpr> Executor::ExecuteLeaf(const PlanNode::Ptr& node,
                                                 MaterializedStore* store,
                                                 ExecContext* ctx) const {
  static obs::Counter* const scan_ops_metric =
      obs::Registry::Global().GetCounter("exec.scan_ops");
  static obs::Histogram* const scan_rows_metric =
      obs::Registry::Global().GetHistogram("exec.scan_rows_in");

  MONSOON_ASSIGN_OR_RETURN(const MaterializedExpr* source,
                           store->Lookup(node->source()));
  scan_ops_metric->Add(1);
  scan_rows_metric->Observe(source->table->num_rows());
  obs::TraceSpan span("exec", "scan");
  span.Arg("rows_in", static_cast<uint64_t>(source->table->num_rows()))
      .Arg("preds", static_cast<uint64_t>(node->pred_ids().size()));
  // Reading the materialized input costs c(source) objects (Sec. 4.4).
  MONSOON_RETURN_IF_ERROR(ctx->Charge(source->table->num_rows()));
  if (node->pred_ids().empty()) {
    span.Arg("rows_out", static_cast<uint64_t>(source->table->num_rows()));
    return *source;
  }

  std::vector<BoundResidual> filters;
  filters.reserve(node->pred_ids().size());
  for (int pred_id : node->pred_ids()) {
    const Predicate& pred = query_.predicate(pred_id);
    MONSOON_ASSIGN_OR_RETURN(BoundResidual residual,
                             BindResidual(pred, source->schema, *registry_));
    filters.push_back(std::move(residual));
  }
  // Leaf residuals evaluate over the source expression itself, so the
  // store's evaluate-once columns apply positionally. A two-term filter
  // reads cached only when both of its terms are: its batch loop reads the
  // two sides at one index.
  for (BoundResidual& f : filters) {
    MONSOON_RETURN_IF_ERROR(BindCached(ctx, *store, *source, nullptr, &f.left));
    if (f.kind == BoundResidual::Kind::kSelectionEq || f.left.cached == nullptr) {
      continue;
    }
    MONSOON_RETURN_IF_ERROR(BindCached(ctx, *store, *source, nullptr, &f.right));
    if (f.right.cached == nullptr) f.left.cached = nullptr;
  }
  const Table& in = *source->table;
  const RangePlan ranges = PlanRanges(ctx, in.num_rows(), ctx->morsel_size());

  // Each range lists the input rows that survive its filters; the lists
  // gather in range order, so the output is a fixed function of the input —
  // independent of thread count and of any recovered shard kill.
  // ScanBatch fires the per-row fault point with the absolute input row as
  // its coordinate, so the firing site is the same in every mode.
  std::vector<RowIds> slots(ranges.num_ranges());
  auto scan = [&](const RangeTask& task) -> Status {
    RowIds kept;
    ResidualScratch scratch;
    auto scan_batch = [&](const Table& t, size_t b, size_t e) {
      return ScanBatch(filters, t, b, e, &scratch, &kept.left);
    };
    MONSOON_RETURN_IF_ERROR(task.Feed([&](size_t begin, size_t end) {
      return ForEachBatch(ctx, in, begin, end, scan_batch);
    }));
    slots[task.index] = std::move(kept);
    return Status::OK();
  };
  MONSOON_RETURN_IF_ERROR(DriveRanges(ctx, ranges, scan));

  MaterializedExpr result;
  result.sig = node->output_sig();
  result.schema = source->schema;
  MONSOON_ASSIGN_OR_RETURN(
      result.table, GatherRanges(ctx, source->schema, slots, in, /*rt=*/nullptr));
  span.Arg("rows_out", static_cast<uint64_t>(result.table->num_rows()));
  return result;
}

StatusOr<MaterializedExpr> Executor::ExecuteJoin(const PlanNode::Ptr& node,
                                                 MaterializedExpr left,
                                                 MaterializedExpr right,
                                                 MaterializedStore* store,
                                                 ExecContext* ctx) const {
  static obs::Counter* const join_ops_metric =
      obs::Registry::Global().GetCounter("exec.join_ops");
  static obs::Histogram* const join_rows_metric =
      obs::Registry::Global().GetHistogram("exec.join_rows_out");

  join_ops_metric->Add(1);
  obs::TraceSpan span("exec", "join");
  span.Arg("rows_left", static_cast<uint64_t>(left.table->num_rows()))
      .Arg("rows_right", static_cast<uint64_t>(right.table->num_rows()));

  RelSet left_rels(left.sig.rels);
  RelSet right_rels(right.sig.rels);
  Schema out_schema = Schema::Concat(left.schema, right.schema);

  // Split node predicates into hash-joinable pairs and residual filters.
  struct EquiPair {
    TermColumn left_key;   // bound against the LEFT child schema
    TermColumn right_key;  // bound against the RIGHT child schema
  };
  std::vector<EquiPair> equi;
  std::vector<BoundResidual> residual;
  for (int pred_id : node->pred_ids()) {
    const Predicate& pred = query_.predicate(pred_id);
    bool separable = false;
    if (pred.IsEquiJoin()) {
      const UdfTerm* lterm = nullptr;
      const UdfTerm* rterm = nullptr;
      if (left_rels.ContainsAll(pred.left.rels) &&
          right_rels.ContainsAll(pred.right->rels)) {
        lterm = &pred.left;
        rterm = &*pred.right;
      } else if (right_rels.ContainsAll(pred.left.rels) &&
                 left_rels.ContainsAll(pred.right->rels)) {
        lterm = &*pred.right;
        rterm = &pred.left;
      }
      if (lterm != nullptr) {
        EquiPair pair;
        MONSOON_ASSIGN_OR_RETURN(pair.left_key.term,
                                 BoundTerm::Bind(*lterm, left.schema, *registry_));
        MONSOON_ASSIGN_OR_RETURN(pair.right_key.term,
                                 BoundTerm::Bind(*rterm, right.schema, *registry_));
        equi.push_back(std::move(pair));
        separable = true;
      }
    }
    if (!separable) {
      MONSOON_ASSIGN_OR_RETURN(BoundResidual filter,
                               BindResidual(pred, out_schema, *registry_));
      residual.push_back(std::move(filter));
    }
  }

  // Evaluate-once key columns, bound key by key, each side on its own: a
  // key side whose fill was dropped reads batch by batch while the other
  // columns stay cached.
  for (EquiPair& pair : equi) {
    MONSOON_RETURN_IF_ERROR(BindCached(ctx, *store, left, &right, &pair.left_key));
    MONSOON_RETURN_IF_ERROR(BindCached(ctx, *store, right, &left, &pair.right_key));
  }

  const Table& lt = *left.table;
  const Table& rt = *right.table;
  // The pass that emits output rows (the cross product's, or the hash
  // join's probe) lists one set of row pairs per range.
  RangePlan ranges;
  std::vector<RowIds> slots;
  const char* algo = "cross";

  if (equi.empty()) {
    // Cross product with residual filters (multi-table UDF predicates and
    // genuine cross products both land here), in ranges over the left
    // input. Each left row expands to |rt| candidate pairs, staged together
    // for the residual filters, so the range polls cancellation and checks
    // its tally once per left row: a runaway product trips
    // ResourceExhausted at left-row granularity.
    ranges = PlanRanges(ctx, lt.num_rows(), ctx->morsel_size());
    slots.resize(ranges.num_ranges());
    std::vector<uint32_t> all_right(rt.num_rows());
    for (size_t ri = 0; ri < all_right.size(); ++ri) {
      all_right[ri] = static_cast<uint32_t>(ri);
    }
    auto cross = [&](const RangeTask& task) -> Status {
      RowIds pairs;
      std::vector<uint32_t> left_row;
      Table candidates(out_schema);
      ResidualScratch scratch;
      auto pair_rows = [&](size_t begin, size_t end) -> Status {
        for (size_t li = begin; li < end; ++li) {
          MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());
          MONSOON_FAULT_POINT("exec.udf_eval.cross", li);
          left_row.assign(rt.num_rows(), static_cast<uint32_t>(li));
          EmitSurvivors(residual, lt, left_row.data(), rt, all_right.data(),
                        rt.num_rows(), &candidates, &scratch, &pairs);
          *task.work_tally += rt.num_rows();
          MONSOON_RETURN_IF_ERROR(task.CheckWork());
        }
        return Status::OK();
      };
      MONSOON_RETURN_IF_ERROR(task.Feed(pair_rows));
      slots[task.index] = std::move(pairs);
      return Status::OK();
    };
    MONSOON_RETURN_IF_ERROR(DriveRanges(ctx, ranges, cross));
  } else {
    // Hash join on the composite key hash, building on the smaller input.
    obs::TraceSpan build_span("exec", "join.build");
    const bool build_left = lt.num_rows() <= rt.num_rows();
    const MaterializedExpr& build_expr = build_left ? left : right;
    const MaterializedExpr& probe_expr = build_left ? right : left;
    const Table& build = *build_expr.table;
    const Table& probe = *probe_expr.table;
    const size_t nkeys = equi.size();

    std::vector<const TermColumn*> build_keys;
    std::vector<const TermColumn*> probe_keys;
    build_keys.reserve(nkeys);
    probe_keys.reserve(nkeys);
    for (const auto& pair : equi) {
      build_keys.push_back(build_left ? &pair.left_key : &pair.right_key);
      probe_keys.push_back(build_left ? &pair.right_key : &pair.left_key);
    }

    // Build: composite key hashes per range, from a key's cached column
    // when it has one (strings never re-hashed), else from a whole-side
    // FlatColumn the build ranges fill — no boxed key Values either way.
    // Ranges write disjoint rows of the whole-side arrays, so a retried
    // shard simply rewrites its own rows. Build key columns stay whole-side
    // even when sharded: the probe's confirm step random-accesses
    // arbitrary build rows.
    std::vector<FlatColumn> build_flat(nkeys);
    std::vector<FlatView> build_views(nkeys);
    for (size_t k = 0; k < nkeys; ++k) {
      const TermColumn& key = *build_keys[k];
      if (key.cached != nullptr) {
        build_views[k] = FlatView::Of(*key.cached);
      } else {
        build_flat[k].Resize(key.term.result_type(), build.num_rows());
        build_views[k] = FlatView::Of(build_flat[k]);
      }
    }
    std::vector<uint64_t> build_hashes(build.num_rows());
    auto build_batch = [&](const Table& t, size_t b, size_t e) {
      return BuildKeysBatch(build_keys, &build_flat, build_views, t, b, e,
                            build_hashes.data());
    };
    MONSOON_RETURN_IF_ERROR(DriveRanges(
        ctx,
        PlanRanges(ctx, build.num_rows(), ctx->morsel_size()),
        [&](const RangeTask& task) {
          return task.Feed([&](size_t begin, size_t end) {
            return ForEachBatch(ctx, build, begin, end, build_batch);
          });
        }));
    // The index and the Bloom filter are functions of the build hashes
    // alone, so they are identical in every mode.
    const FlatHashIndex index(build_hashes);
    // Build-side Bloom filter: pre-screens probe hashes so misses never
    // walk a chain. It stores exactly the hashes in the index, so a reject
    // implies no candidate — the cost model cannot observe the difference.
    JoinBloomFilter bloom(build.num_rows());
    for (uint64_t h : build_hashes) bloom.AddHash(h);
    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(build.num_rows()));
    build_span.Arg("rows", static_cast<uint64_t>(build.num_rows()));
    build_span.End();

    // Probe: each range lists its matched row pairs and counts probe rows
    // and candidates in its tally.
    obs::TraceSpan probe_span("exec", "join.probe");
    probe_span.Arg("rows", static_cast<uint64_t>(probe.num_rows()));
    ranges = PlanRanges(ctx, probe.num_rows(), ctx->morsel_size());
    slots.resize(ranges.num_ranges());
    auto probe_range = [&](const RangeTask& task) -> Status {
      ProbeRange range{.lt = lt,
                       .rt = rt,
                       .build_left = build_left,
                       .probe_keys = probe_keys,
                       .build_views = build_views,
                       .index = index,
                       .bloom = bloom,
                       .residual = residual,
                       .task = task,
                       .candidates = Table(out_schema)};
      auto probe_batch = [&](const Table& t, size_t b, size_t e) {
        return ProbeBatch(&range, t, b, e);
      };
      MONSOON_RETURN_IF_ERROR(task.Feed([&](size_t begin, size_t end) {
        return ForEachBatch(ctx, probe, begin, end, probe_batch);
      }));
      slots[task.index] = std::move(range.pairs);
      return Status::OK();
    };
    MONSOON_RETURN_IF_ERROR(DriveRanges(ctx, ranges, probe_range));
    algo = ranges.sharded              ? "hash-sharded"
           : ranges.num_ranges() > 1 ? "hash-parallel"
                                     : "hash-serial";
  }

  MONSOON_ASSIGN_OR_RETURN(TablePtr out,
                           GatherRanges(ctx, out_schema, slots, lt, &rt));
  // The join's output objects are the paper's cost for this node.
  MONSOON_RETURN_IF_ERROR(ctx->Charge(out->num_rows()));
  join_rows_metric->Observe(out->num_rows());
  span.Arg("algo", algo).Arg("rows_out", static_cast<uint64_t>(out->num_rows()));

  MaterializedExpr result;
  result.sig = node->output_sig();
  result.schema = std::move(out_schema);
  result.table = std::move(out);
  return result;
}

Status Executor::CollectStats(const MaterializedExpr& expr,
                              MaterializedStore* store, ExecContext* ctx,
                              std::vector<DistinctObservation>* obs) const {
  // Fully qualified: the `obs` out-parameter shadows the obs:: namespace.
  static ::monsoon::obs::Counter* const sigma_ops_metric =
      ::monsoon::obs::Registry::Global().GetCounter("exec.sigma_ops");

  sigma_ops_metric->Add(1);
  ::monsoon::obs::TraceSpan span("exec", "sigma");
  span.Arg("rows", static_cast<uint64_t>(expr.table->num_rows()));
  WallTimer timer;
  RelSet expr_rels(expr.sig.rels);

  // One HLL pass per UDF term evaluable over this expression (the paper's
  // Σ computes "the number of distinct values returned by r for all UDFs
  // that are referenced in the query").
  std::vector<int> term_ids;
  std::vector<TermColumn> terms;
  for (const UdfTerm* term : query_.AllTerms()) {
    if (!expr_rels.ContainsAll(term->rels)) continue;
    if (std::find(term_ids.begin(), term_ids.end(), term->term_id) !=
        term_ids.end()) {
      continue;
    }
    term_ids.push_back(term->term_id);
    MONSOON_ASSIGN_OR_RETURN(BoundTerm bound,
                             BoundTerm::Bind(*term, expr.schema, *registry_));
    terms.push_back({std::move(bound), nullptr});
  }
  span.Arg("terms", static_cast<uint64_t>(terms.size()));
  if (terms.empty()) return Status::OK();

  // Whole-pass fault point (coordinate = input cardinality, identical in
  // every mode): lets fault specs kill Σ passes outright to exercise the
  // prior-only degradation path.
  MONSOON_FAULT_POINT("exec.sigma.pass", expr.table->num_rows());

  // Σ ranges are widened to a handful per thread: sketch sets cost 2^p
  // bytes per term each, so many small ranges would waste memory for no
  // extra balance.
  const Table& table = *expr.table;
  size_t morsel = ctx->morsel_size();
  if (ctx->pool() != nullptr) {
    morsel = std::max(
        morsel, table.num_rows() /
                        (4 * static_cast<size_t>(ctx->pool()->num_threads())) +
                    1);
  }
  const RangePlan ranges = PlanRanges(ctx, table.num_rows(), morsel);

  // Evaluate-once columns per term: repeated Σ passes over the same
  // materialized expression (the plan → Σ → re-plan loop) hit the cache
  // and feed precomputed hashes straight into the sketches. Each term binds
  // on its own.
  for (TermColumn& term : terms) {
    MONSOON_RETURN_IF_ERROR(BindCached(ctx, *store, expr, nullptr, &term));
  }

  // Each range folds its rows into a fresh sketch set per attempt, merged
  // at the barrier. The HLL merge is register-wise max — exact, order- and
  // grouping-independent — so the distinct counts are bit-identical in
  // every mode, including across a recovered shard kill. A shard failed
  // past the retry budget propagates its (shard-naming) transient status,
  // which the caller degrades to prior-only planning for this relation.
  std::vector<std::vector<HyperLogLog>> slots(ranges.num_ranges());
  auto sigma = [&](const RangeTask& task) -> Status {
    std::vector<HyperLogLog> local(terms.size(), HyperLogLog(kHllPrecision));
    FlatColumn scratch;
    auto sigma_batch = [&](const Table& t, size_t b, size_t e) {
      return SigmaBatch(terms, t, b, e, &scratch, &local);
    };
    MONSOON_RETURN_IF_ERROR(task.Feed([&](size_t begin, size_t end) {
      return ForEachBatch(ctx, table, begin, end, sigma_batch);
    }));
    slots[task.index] = std::move(local);
    return Status::OK();
  };
  MONSOON_RETURN_IF_ERROR(DriveRanges(ctx, ranges, sigma));
  // Every plan has at least one range; the first set absorbs the rest.
  std::vector<HyperLogLog> sketches = std::move(slots.front());
  for (size_t r = 1; r < slots.size(); ++r) {
    MONSOON_DCHECK(slots[r].size() == sketches.size());
    for (size_t t = 0; t < terms.size(); ++t) {
      MONSOON_RETURN_IF_ERROR(sketches[t].Merge(slots[r][t]));
    }
  }
  // Statistics collection is another pass over the data (Sec. 4.4). The
  // charge stays at the END of the pass on purpose: a Σ pass lost to a
  // fault charges exactly nothing in every mode, which keeps degraded-run
  // accounting deterministic.
  MONSOON_RETURN_IF_ERROR(ctx->Charge(table.num_rows()));

  for (size_t t = 0; t < terms.size(); ++t) {
    DistinctObservation observation;
    observation.term_id = term_ids[t];
    observation.expr = expr.sig;
    observation.distinct_count = std::max(0.0, std::round(sketches[t].Estimate()));
    obs->push_back(observation);
  }
  ctx->AddStatsCollectSeconds(timer.Seconds());
  return Status::OK();
}

}  // namespace monsoon
