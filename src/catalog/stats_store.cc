#include "catalog/stats_store.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace monsoon {

std::optional<double> StatsStore::LookupCount(const ExprSig& expr) const {
  auto it = counts_.find(expr);
  if (it == counts_.end()) return std::nullopt;
  return it->second;
}

void StatsStore::SetCount(const ExprSig& expr, double count) {
  auto [it, inserted] = counts_.try_emplace(expr, count);
  if (!inserted) {
    fingerprint_ ^= CountEntryHash(expr, it->second);
    it->second = count;
  }
  fingerprint_ ^= CountEntryHash(expr, count);
}

std::optional<double> StatsStore::LookupCountByRels(RelSet rels) const {
  std::optional<double> best;
  int best_preds = -1;
  for (const auto& [sig, count] : counts_) {
    if (RelSet(sig.rels) != rels) continue;
    int npreds = __builtin_popcountll(sig.preds);
    if (npreds > best_preds) {
      best_preds = npreds;
      best = count;
    }
  }
  return best;
}

std::optional<double> StatsStore::LookupDistinct(int term_id, const ExprSig& expr,
                                                 const ExprSig& partner) const {
  ExprSig norm_partner = NormalizePartner(partner);
  // 1. Exact key.
  auto it = distincts_.find(DistinctKey{term_id, expr, norm_partner});
  if (it != distincts_.end()) return it->second;
  // 2. Wildcard partner (a true observation).
  if (!norm_partner.IsAny()) {
    it = distincts_.find(DistinctKey{term_id, expr, ExprSig::Any()});
    if (it != distincts_.end()) return it->second;
  }
  if (!HasDistinctInfo(term_id, RelSet(expr.rels))) return std::nullopt;
  // 3/4. Containment: entries over a sub-expression, preferring an exact
  // partner match, then wildcard observations; within a tier, the entry
  // over the largest (most specific) relation set.
  std::optional<double> best;
  int best_tier = -1;  // 1 = exact partner, 0 = wildcard
  int best_rels = -1;
  RelSet expr_rels(expr.rels);
  for (const auto& [key, value] : distincts_) {
    if (key.term_id != term_id) continue;
    RelSet entry_rels(key.expr.rels);
    if (!expr_rels.ContainsAll(entry_rels)) continue;
    int tier;
    if (key.partner == norm_partner && !norm_partner.IsAny()) {
      tier = 1;
    } else if (key.partner.IsAny()) {
      tier = 0;
    } else {
      continue;  // partner-specific sample for a different partner
    }
    int nrels = entry_rels.count();
    if (tier > best_tier || (tier == best_tier && nrels > best_rels)) {
      best_tier = tier;
      best_rels = nrels;
      best = value;
    }
  }
  return best;
}

bool StatsStore::HasDistinctInfo(int term_id, RelSet expr_rels) const {
  for (auto it = TermBegin(term_id); it != distinct_rels_.end() && it->term_id == term_id;
       ++it) {
    if ((it->rels & ~expr_rels.mask()) == 0) return true;
  }
  return false;
}

std::pmr::vector<StatsStore::TermRels>::const_iterator StatsStore::TermBegin(
    int term_id) const {
  return std::lower_bound(
      distinct_rels_.begin(), distinct_rels_.end(), term_id,
      [](const TermRels& entry, int id) { return entry.term_id < id; });
}

void StatsStore::SetDistinct(int term_id, const ExprSig& expr, const ExprSig& partner,
                             double count) {
  DistinctKey key{term_id, expr, NormalizePartner(partner)};
  auto [it, inserted] = distincts_.try_emplace(key, count);
  if (!inserted) {
    fingerprint_ ^= DistinctEntryHash(key, it->second);
    it->second = count;
  } else {
    auto pos = TermBegin(term_id);
    auto end = distinct_rels_.end();
    while (pos != end && pos->term_id == term_id && pos->rels != expr.rels) ++pos;
    if (pos == end || pos->term_id != term_id) {
      distinct_rels_.insert(pos, TermRels{term_id, expr.rels});
    }
  }
  fingerprint_ ^= DistinctEntryHash(key, count);
}

// Zobrist-style: the fingerprint is the XOR of these per-entry hashes, so
// a Set* swaps one entry's term in and out instead of rehashing the store.
uint64_t StatsStore::CountEntryHash(const ExprSig& sig, double count) {
  return Mix64(
      HashCombine(sig.Hash(), Mix64(static_cast<uint64_t>(std::llround(count)))));
}

uint64_t StatsStore::DistinctEntryHash(const DistinctKey& key, double count) {
  uint64_t entry = HashCombine(DistinctKeyHash{}(key),
                               Mix64(static_cast<uint64_t>(std::llround(count))));
  return Mix64(entry ^ 0x5bd1e995u);
}

std::string StatsStore::ToString() const {
  std::ostringstream out;
  out << "counts:\n";
  for (const auto& [sig, count] : counts_) {
    out << "  c" << sig.ToString() << " = " << count << "\n";
  }
  out << "distincts:\n";
  for (const auto& [key, count] : distincts_) {
    out << "  d(term" << key.term_id << ", " << key.expr.ToString() << " |_ "
        << (key.partner.IsAny() ? std::string("*") : key.partner.ToString())
        << ") = " << count << "\n";
  }
  return out.str();
}

}  // namespace monsoon
