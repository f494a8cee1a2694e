#ifndef MONSOON_CATALOG_STATS_STORE_H_
#define MONSOON_CATALOG_STATS_STORE_H_

#include <memory_resource>
#include <optional>
#include <string>
#include <unordered_map>
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
/// Within a tier of the containment fallback, ties go to the first match
/// in the hash map's iteration order. That order depends on the history of
/// insertions and rehashes, so the MCTS planner never rebuilds a store
/// entry by entry: it copies whole stores (a copy keeps the order and the
/// bucket count) and inserts into the copy in place.
///
/// Allocator-aware: the planner keeps its stores in per-search arenas
/// (DESIGN.md §16); default construction and plain copies use the heap.
/// The fingerprint is maintained incrementally by every Set*.
class StatsStore {
 public:
  using allocator_type = std::pmr::polymorphic_allocator<std::byte>;

  StatsStore() = default;
  explicit StatsStore(allocator_type alloc)
      : counts_(alloc), distincts_(alloc), distinct_rels_(alloc) {}
  StatsStore(const StatsStore& other, allocator_type alloc)
      : counts_(other.counts_, alloc),
        distincts_(other.distincts_, alloc),
        distinct_rels_(other.distinct_rels_, alloc),
        fingerprint_(other.fingerprint_) {}

  // --- object counts ------------------------------------------------------
  std::optional<double> LookupCount(const ExprSig& expr) const;
  void SetCount(const ExprSig& expr, double count);
  bool HasCount(const ExprSig& expr) const { return LookupCount(expr).has_value(); }
  /// Count recorded for any expression over exactly this relation set
  /// (whatever predicates were applied), preferring the most-filtered one.
  std::optional<double> LookupCountByRels(RelSet rels) const;

  // --- distinct counts ----------------------------------------------------
  std::optional<double> LookupDistinct(int term_id, const ExprSig& expr,
                                       const ExprSig& partner) const;
  /// True if any entry exists for this term over `expr_rels` or a subset —
  /// i.e. the term's statistics are (transitively) known and a Σ pass over
  /// an expression with these relations would learn nothing new.
  bool HasDistinctInfo(int term_id, RelSet expr_rels) const;

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
  /// chance-node outcomes of the EXECUTE action.
  uint64_t Fingerprint() const { return fingerprint_; }

  std::string ToString() const;

 private:
  struct DistinctKey {
    int term_id;
    ExprSig expr;
    ExprSig partner;
    bool operator==(const DistinctKey& other) const {
      return term_id == other.term_id && expr == other.expr && partner == other.partner;
    }
  };
  struct DistinctKeyHash {
    size_t operator()(const DistinctKey& k) const {
      return HashCombine(HashCombine(Mix64(static_cast<uint64_t>(k.term_id)),
                                     k.expr.Hash()),
                         k.partner.Hash());
    }
  };

  static ExprSig NormalizePartner(const ExprSig& partner) {
    if (partner.IsAny()) return partner;
    return ExprSig{partner.rels, 0};
  }

  static constexpr uint64_t kEmptyFingerprint = 0x12345678abcdef01ULL;
  static uint64_t CountEntryHash(const ExprSig& sig, double count);
  static uint64_t DistinctEntryHash(const DistinctKey& key, double count);

  std::pmr::unordered_map<ExprSig, double, ExprSigHash> counts_;
  std::pmr::unordered_map<DistinctKey, double, DistinctKeyHash> distincts_;
  // The distinct (term, expression relations) pairs of distincts_, sorted
  // by term: HasDistinctInfo scans one term's run instead of the map, and
  // LookupDistinct skips its containment scan when no entry can match.
  struct TermRels {
    int term_id;
    uint64_t rels;
  };
  std::pmr::vector<TermRels>::const_iterator TermBegin(int term_id) const;
  std::pmr::vector<TermRels> distinct_rels_;
  uint64_t fingerprint_ = kEmptyFingerprint;
};

}  // namespace monsoon

#endif  // MONSOON_CATALOG_STATS_STORE_H_
