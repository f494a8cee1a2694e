#include "catalog/stats_store.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace monsoon {

StatsStore::CountIter StatsStore::CountLowerBound(const ExprSig& sig) const {
  return std::lower_bound(
      counts_.begin(), counts_.end(), sig,
      [](const CountEntry& entry, const ExprSig& key) { return entry.sig < key; });
}

StatsStore::DistinctIter StatsStore::DistinctLowerBound(int term_id, const ExprSig& expr,
                                                        const ExprSig& partner) const {
  const DistinctEntry key{term_id, expr, partner, 0};
  return std::lower_bound(
      distincts_.begin(), distincts_.end(), key,
      [](const DistinctEntry& a, const DistinctEntry& b) {
        if (a.term_id != b.term_id) return a.term_id < b.term_id;
        if (a.expr != b.expr) return a.expr < b.expr;
        return a.partner < b.partner;
      });
}

std::optional<double> StatsStore::LookupCount(const ExprSig& expr) const {
  auto it = CountLowerBound(expr);
  if (it == counts_.end() || it->sig != expr) return std::nullopt;
  return it->count;
}

void StatsStore::SetCount(const ExprSig& expr, double count) {
  auto pos = CountLowerBound(expr);
  if (pos != counts_.end() && pos->sig == expr) {
    counts_[static_cast<size_t>(pos - counts_.cbegin())].count = count;
  } else {
    counts_.insert(pos, CountEntry{expr, count});
  }
}

std::optional<double> StatsStore::LookupCountByRels(RelSet rels) const {
  std::optional<double> best;
  int best_preds = -1;
  for (auto it = CountLowerBound(ExprSig{rels.mask(), 0});
       it != counts_.end() && it->sig.rels == rels.mask(); ++it) {
    int npreds = __builtin_popcountll(it->sig.preds);
    if (npreds > best_preds) {
      best_preds = npreds;
      best = it->count;
    }
  }
  return best;
}

std::optional<double> StatsStore::LookupDistinct(int term_id, const ExprSig& expr,
                                                 const ExprSig& partner) const {
  if (HasNoEntries(term_id)) return std::nullopt;
  ExprSig norm_partner = NormalizePartner(partner);
  // One pass over the term's entries over expr.rels or a subset (a
  // subset's mask is never larger than the set's, so the pass stops past
  // expr.rels). Among them are the exact key and the wildcard key of
  // `expr`, next to each other (the wildcard partner sorts first), and
  // every containment candidate:
  //   1. the exact key;
  //   2. the wildcard partner (a true observation);
  //   3/4. entries over a sub-expression, preferring an exact partner
  //   match, then wildcard observations; within a tier, the entry over the
  //   largest (most specific) relation set, and among those the first in
  //   sorted order (the smallest signature).
  std::optional<double> wildcard;
  std::optional<double> best;
  int best_tier = -1;  // 1 = exact partner, 0 = wildcard
  int best_rels = -1;
  RelSet expr_rels(expr.rels);
  for (auto it = DistinctLowerBound(term_id, ExprSig::Any(), ExprSig::Any());
       it != distincts_.end() && it->term_id == term_id && it->expr.rels <= expr.rels;
       ++it) {
    if (it->expr == expr) {
      if (it->partner == norm_partner) return it->count;
      if (it->partner.IsAny()) wildcard = it->count;
      continue;
    }
    if (wildcard.has_value()) return wildcard;  // past expr's entries
    RelSet entry_rels(it->expr.rels);
    if (!expr_rels.ContainsAll(entry_rels)) continue;
    int tier;
    if (it->partner == norm_partner && !norm_partner.IsAny()) {
      tier = 1;
    } else if (it->partner.IsAny()) {
      tier = 0;
    } else {
      continue;  // partner-specific sample for a different partner
    }
    int nrels = entry_rels.count();
    if (tier > best_tier || (tier == best_tier && nrels > best_rels)) {
      best_tier = tier;
      best_rels = nrels;
      best = it->count;
    }
  }
  return wildcard.has_value() ? wildcard : best;
}

bool StatsStore::HasDistinctInfo(int term_id, RelSet expr_rels) const {
  if (HasNoEntries(term_id)) return false;
  const uint64_t rels = expr_rels.mask();
  for (auto it = DistinctLowerBound(term_id, ExprSig::Any(), ExprSig::Any());
       it != distincts_.end() && it->term_id == term_id && it->expr.rels <= rels; ++it) {
    if ((it->expr.rels & ~rels) == 0) return true;
  }
  return false;
}

int StatsStore::TermWithoutDistinctInfo(uint64_t term_ids, RelSet expr_rels) const {
  if (uint64_t absent = term_ids & ~term_bits_; absent != 0) return __builtin_ctzll(absent);
  const uint64_t rels = expr_rels.mask();
  uint64_t pending = term_ids;
  for (const DistinctEntry& entry : distincts_) {
    if (pending == 0) return -1;
    if (entry.term_id < 0) continue;
    if (entry.term_id >= 64) break;
    const uint64_t bit = uint64_t{1} << entry.term_id;
    // Entries come in term order: a pending term below this one has none.
    if ((pending & (bit - 1)) != 0) return __builtin_ctzll(pending);
    if ((entry.expr.rels & ~rels) == 0) pending &= ~bit;
  }
  return pending == 0 ? -1 : __builtin_ctzll(pending);
}

void StatsStore::SetDistinct(int term_id, const ExprSig& expr, const ExprSig& partner,
                             double count) {
  DistinctEntry entry{term_id, expr, NormalizePartner(partner), count};
  auto pos = DistinctLowerBound(term_id, expr, entry.partner);
  if (pos != distincts_.end() && pos->term_id == term_id && pos->expr == expr &&
      pos->partner == entry.partner) {
    distincts_[static_cast<size_t>(pos - distincts_.cbegin())].count = count;
  } else {
    distincts_.insert(pos, entry);
    if (term_id >= 0 && term_id < 64) term_bits_ |= uint64_t{1} << term_id;
  }
}

uint64_t StatsStore::Fingerprint() const {
  uint64_t fingerprint = kEmptyFingerprint;
  for (const CountEntry& entry : counts_) fingerprint ^= CountEntryHash(entry.sig, entry.count);
  for (const DistinctEntry& entry : distincts_) fingerprint ^= DistinctEntryHash(entry);
  return fingerprint;
}

// The fingerprint is the XOR of these per-entry hashes, so it depends on
// the contents alone, not on the order they were set in.
uint64_t StatsStore::CountEntryHash(const ExprSig& sig, double count) {
  return Mix64(
      HashCombine(sig.Hash(), Mix64(static_cast<uint64_t>(std::llround(count)))));
}

uint64_t StatsStore::DistinctEntryHash(const DistinctEntry& entry) {
  uint64_t key = HashCombine(
      HashCombine(Mix64(static_cast<uint64_t>(entry.term_id)), entry.expr.Hash()),
      entry.partner.Hash());
  return Mix64(HashCombine(key, Mix64(static_cast<uint64_t>(std::llround(entry.count)))) ^
               0x5bd1e995u);
}

std::string StatsStore::ToString() const {
  std::ostringstream out;
  out << "counts:\n";
  for (const CountEntry& entry : counts_) {
    out << "  c" << entry.sig.ToString() << " = " << entry.count << "\n";
  }
  out << "distincts:\n";
  for (const DistinctEntry& entry : distincts_) {
    out << "  d(term" << entry.term_id << ", " << entry.expr.ToString() << " |_ "
        << (entry.partner.IsAny() ? std::string("*") : entry.partner.ToString())
        << ") = " << entry.count << "\n";
  }
  return out.str();
}

}  // namespace monsoon
