#ifndef MONSOON_CATALOG_STATS_STORE_H_
#define MONSOON_CATALOG_STATS_STORE_H_

#include <memory_resource>
#include <optional>
#include <string>
#include <vector>

#include "plan/plan_node.h"

namespace monsoon {

/// The set of statistics S from the paper's MDP state (Sec. 4.1). Two kinds
/// of entries:
///
///  * object counts c(r), keyed by expression signature;
///  * distinct-value counts d(F, r|_s), keyed by (UDF term, expression,
///    partner expression). Real observations from the Σ operator are
///    partner-independent and stored under the wildcard partner
///    ExprSig::Any(); samples drawn from a prior inside MCTS rollouts are
///    partner-specific, exactly as Sec. 4.3 prescribes.
///
/// Partner signatures are normalized to their relation set: d(F, R|_S)
/// distinguishes partners by *which relations* they cover, not by which
/// predicates have been applied to them.
///
/// Lookups walk a fallback chain so that knowledge transfers across
/// related expressions (containment assumption):
///   1. exact (expr, partner);
///   2. (expr, wildcard);
///   3. an entry for the same term and partner over a sub-expression of
///      `expr` (d(F, S|_R) answers d(F, σ(S)|_R) and d(F, (S⋈T)|_R));
///   4. a wildcard-partner entry over a sub-expression.
/// Callers clamp the result by c(expr).
///
/// Both kinds live in sorted flat arrays: counts ordered by signature
/// (rels, then preds), distinct entries by (term, expression, partner).
/// Exact lookups and inserts are binary searches; a term's entries, and a
/// relation set's counts, are one contiguous run. Within a tier of the
/// containment fallback and a relation count, the entry with the smallest
/// signature wins — the first match in sorted order — so a lookup's answer
/// depends only on the store's contents, never on insertion history.
///
/// Allocator-aware: the planner keeps its stores in per-search arenas
/// (DESIGN.md §16); default construction and plain copies use the heap.
class StatsStore {
 public:
  using allocator_type = std::pmr::polymorphic_allocator<std::byte>;

  StatsStore() = default;
  explicit StatsStore(allocator_type alloc) : counts_(alloc), distincts_(alloc) {}
  StatsStore(const StatsStore& other, allocator_type alloc)
      : counts_(other.counts_, alloc),
        distincts_(other.distincts_, alloc),
        term_bits_(other.term_bits_) {}

  // --- object counts ------------------------------------------------------
  std::optional<double> LookupCount(const ExprSig& expr) const;
  void SetCount(const ExprSig& expr, double count);
  /// Count recorded for any expression over exactly this relation set
  /// (whatever predicates were applied), preferring the most-filtered one;
  /// among equally filtered ones, the smallest predicate mask.
  std::optional<double> LookupCountByRels(RelSet rels) const;

  // --- distinct counts ----------------------------------------------------
  std::optional<double> LookupDistinct(int term_id, const ExprSig& expr,
                                       const ExprSig& partner) const;
  /// True if any entry exists for this term over `expr_rels` or a subset —
  /// i.e. the term's statistics are (transitively) known and a Σ pass over
  /// an expression with these relations would learn nothing new.
  bool HasDistinctInfo(int term_id, RelSet expr_rels) const;
  /// A term id t in `term_ids` (bit t = term t, so ids below 64) for which
  /// HasDistinctInfo(t, expr_rels) is false, or -1 when there is none; in
  /// one forward pass over the entries.
  int TermWithoutDistinctInfo(uint64_t term_ids, RelSet expr_rels) const;

  void SetDistinct(int term_id, const ExprSig& expr, const ExprSig& partner,
                   double count);
  /// Stores an exact, partner-independent observation.
  void SetDistinctObserved(int term_id, const ExprSig& expr, double count) {
    SetDistinct(term_id, expr, ExprSig::Any(), count);
  }

  size_t num_counts() const { return counts_.size(); }
  size_t num_distincts() const { return distincts_.size(); }

  /// Order-independent fingerprint of the full contents (an XOR of
  /// per-entry hashes, counts quantized with llround); used to key MCTS
  /// chance-node outcomes of the EXECUTE action. Computed on each call, in
  /// one pass over the entries: the Set* calls, most of which no
  /// fingerprint ever reads, do not maintain it.
  uint64_t Fingerprint() const;

  std::string ToString() const;

 private:
  struct CountEntry {
    ExprSig sig;
    double count;
  };
  struct DistinctEntry {
    int term_id;
    ExprSig expr;
    ExprSig partner;
    double count;
  };
  using CountIter = std::pmr::vector<CountEntry>::const_iterator;
  using DistinctIter = std::pmr::vector<DistinctEntry>::const_iterator;

  static ExprSig NormalizePartner(const ExprSig& partner) {
    if (partner.IsAny()) return partner;
    return ExprSig{partner.rels, 0};
  }

  /// First count entry not ordered before `sig`.
  CountIter CountLowerBound(const ExprSig& sig) const;
  /// First distinct entry not ordered before (term_id, expr, partner).
  DistinctIter DistinctLowerBound(int term_id, const ExprSig& expr,
                                  const ExprSig& partner) const;
  /// True when term_id (below 64) has no distinct entry at all.
  bool HasNoEntries(int term_id) const {
    return term_id >= 0 && term_id < 64 && (term_bits_ & (uint64_t{1} << term_id)) == 0;
  }

  static constexpr uint64_t kEmptyFingerprint = 0x12345678abcdef01ULL;
  static uint64_t CountEntryHash(const ExprSig& sig, double count);
  static uint64_t DistinctEntryHash(const DistinctEntry& entry);

  std::pmr::vector<CountEntry> counts_;        // sorted by sig
  std::pmr::vector<DistinctEntry> distincts_;  // sorted by (term, expr, partner)
  // Bit t set when some distinct entry has term id t (ids 0..63): a term
  // with no entries is answered without a search.
  uint64_t term_bits_ = 0;
};

}  // namespace monsoon

#endif  // MONSOON_CATALOG_STATS_STORE_H_
