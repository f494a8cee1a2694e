#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory_resource>
#include <tuple>
#include <utility>
#include <vector>

#include "catalog/stats_store.h"
#include "common/hash.h"
#include "common/random.h"

namespace monsoon {
namespace {

const ExprSig kR{0b001, 0};
const ExprSig kS{0b010, 0};
const ExprSig kT{0b100, 0};
const ExprSig kSFiltered{0b010, 0b100};  // σ(S)
const ExprSig kRS{0b011, 0b1};

TEST(StatsStoreTest, CountsRoundTrip) {
  StatsStore store;
  EXPECT_FALSE(store.LookupCount(kR).has_value());
  store.SetCount(kR, 1000);
  ASSERT_TRUE(store.LookupCount(kR).has_value());
  EXPECT_DOUBLE_EQ(*store.LookupCount(kR), 1000);
  store.SetCount(kR, 2000);  // overwrite
  EXPECT_DOUBLE_EQ(*store.LookupCount(kR), 2000);
  EXPECT_EQ(store.num_counts(), 1u);
}

TEST(StatsStoreTest, LookupCountByRelsPrefersMostFiltered) {
  StatsStore store;
  store.SetCount(kS, 1000);
  store.SetCount(kSFiltered, 10);
  auto c = store.LookupCountByRels(RelSet(kS.rels));
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(*c, 10);
  EXPECT_FALSE(store.LookupCountByRels(RelSet(kT.rels)).has_value());
}

TEST(StatsStoreTest, ExactPartnerLookup) {
  StatsStore store;
  store.SetDistinct(0, kS, kR, 42);
  auto d = store.LookupDistinct(0, kS, kR);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 42);
}

TEST(StatsStoreTest, PartnerSpecificSamplesStayDistinct) {
  // d(F, S|R) must not answer d(F, S|T) — the paper treats them as
  // different unknowns.
  StatsStore store;
  store.SetDistinct(0, kS, kR, 42);
  EXPECT_FALSE(store.LookupDistinct(0, kS, kT).has_value());
}

TEST(StatsStoreTest, WildcardObservationAnswersAnyPartner) {
  StatsStore store;
  store.SetDistinctObserved(0, kS, 99);
  EXPECT_DOUBLE_EQ(*store.LookupDistinct(0, kS, kR), 99);
  EXPECT_DOUBLE_EQ(*store.LookupDistinct(0, kS, kT), 99);
  EXPECT_DOUBLE_EQ(*store.LookupDistinct(0, kS, ExprSig::Any()), 99);
}

TEST(StatsStoreTest, PartnerNormalizedToRelationSet) {
  // Setting with a filtered partner and looking up with the unfiltered
  // partner (same relations) must hit.
  StatsStore store;
  ExprSig filtered_partner{0b001, 0b10};
  store.SetDistinct(0, kS, filtered_partner, 7);
  EXPECT_DOUBLE_EQ(*store.LookupDistinct(0, kS, kR), 7);
}

TEST(StatsStoreTest, ContainmentFallbackFromBaseToJoin) {
  // An observation over S answers a request over R ⋈ S.
  StatsStore store;
  store.SetDistinctObserved(0, kS, 55);
  auto d = store.LookupDistinct(0, kRS, kT);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 55);
}

TEST(StatsStoreTest, ContainmentFallbackFromFilteredObservation) {
  // Σ over σ(S) stores an observation keyed by the filtered signature; a
  // request keyed by bare S (same relations) must still find it.
  StatsStore store;
  store.SetDistinctObserved(0, kSFiltered, 12);
  auto d = store.LookupDistinct(0, kS, kR);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 12);
}

TEST(StatsStoreTest, SameRelsPartnerSpecificSampleDoesNotTransfer) {
  // A per-partner prior sample over S answers only its own partner; it
  // must not leak to requests over σ(S) with a different partner.
  StatsStore store;
  store.SetDistinct(0, kS, kR, 5);
  EXPECT_FALSE(store.LookupDistinct(0, kSFiltered, kT).has_value());
  // ... but the same partner does transfer (containment, exact partner).
  ASSERT_TRUE(store.LookupDistinct(0, kSFiltered, kR).has_value());
  EXPECT_DOUBLE_EQ(*store.LookupDistinct(0, kSFiltered, kR), 5);
}

TEST(StatsStoreTest, ExactPartnerPreferredOverWildcard) {
  StatsStore store;
  store.SetDistinctObserved(0, kS, 100);
  store.SetDistinct(0, kS, kR, 10);
  EXPECT_DOUBLE_EQ(*store.LookupDistinct(0, kS, kR), 10);
  EXPECT_DOUBLE_EQ(*store.LookupDistinct(0, kS, kT), 100);
}

TEST(StatsStoreTest, MoreSpecificContainmentWins) {
  StatsStore store;
  store.SetDistinctObserved(0, kS, 100);   // over S
  store.SetDistinctObserved(0, kRS, 30);   // over R⋈S (larger rel set)
  ExprSig rst{0b111, 0b11};
  EXPECT_DOUBLE_EQ(*store.LookupDistinct(0, rst, ExprSig::Any()), 30);
}

TEST(StatsStoreTest, HasDistinctInfo) {
  StatsStore store;
  EXPECT_FALSE(store.HasDistinctInfo(0, RelSet(kS.rels)));
  store.SetDistinct(0, kS, kR, 5);
  EXPECT_TRUE(store.HasDistinctInfo(0, RelSet(kS.rels)));
  EXPECT_TRUE(store.HasDistinctInfo(0, RelSet(kRS.rels)));  // subset rule
  EXPECT_FALSE(store.HasDistinctInfo(0, RelSet(kR.rels)));
  EXPECT_FALSE(store.HasDistinctInfo(1, RelSet(kS.rels)));  // other term
}

TEST(StatsStoreTest, FingerprintChangesWithContents) {
  StatsStore a, b;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  a.SetCount(kR, 1000);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b.SetCount(kR, 1000);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  a.SetDistinct(0, kS, kR, 5);
  b.SetDistinct(0, kS, kR, 6);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(StatsStoreTest, FingerprintOrderIndependent) {
  StatsStore a, b;
  a.SetCount(kR, 1);
  a.SetCount(kS, 2);
  b.SetCount(kS, 2);
  b.SetCount(kR, 1);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

// The fingerprint StatsStore documents, computed here from a plain list of
// the contents: the XOR of one hash per entry, counts rounded with llround,
// over a fixed start value.
using CountKey = ExprSig;
using DistinctKey = std::tuple<int, ExprSig, ExprSig>;  // term, expr, partner

uint64_t ExpectedFingerprint(const std::map<CountKey, double>& counts,
                             const std::map<DistinctKey, double>& distincts) {
  uint64_t fingerprint = 0x12345678abcdef01ULL;
  for (const auto& [sig, count] : counts) {
    fingerprint ^= Mix64(
        HashCombine(sig.Hash(), Mix64(static_cast<uint64_t>(std::llround(count)))));
  }
  for (const auto& [key, count] : distincts) {
    const auto& [term, expr, partner] = key;
    // Partners are stored by their relation set only.
    const ExprSig stored = partner.IsAny() ? partner : ExprSig{partner.rels, 0};
    uint64_t hash = HashCombine(
        HashCombine(Mix64(static_cast<uint64_t>(term)), expr.Hash()), stored.Hash());
    fingerprint ^= Mix64(
        HashCombine(hash, Mix64(static_cast<uint64_t>(std::llround(count)))) ^ 0x5bd1e995u);
  }
  return fingerprint;
}

// Runs of inserts and value replacements in different orders that end with
// the same contents give the fingerprint of a store filled once, in key
// order, and the independently computed XOR.
TEST(StatsStoreTest, FingerprintOfAnyHistoryMatchesContents) {
  const std::vector<ExprSig> sigs = {kR, kS, kT, kSFiltered, kRS, ExprSig{0b111, 0b11}};
  const std::vector<ExprSig> partners = {ExprSig::Any(), kR, kT};
  Pcg32 rng(42);
  std::map<CountKey, double> counts;
  std::map<DistinctKey, double> distincts;
  for (const ExprSig& sig : sigs) counts[sig] = rng.NextBounded(1000);
  for (int term = 0; term < 3; ++term) {
    for (size_t e = 0; e < sigs.size(); e += 2) {
      for (const ExprSig& partner : partners) {
        distincts[{term, sigs[e], partner}] = rng.NextBounded(500) + 0.25;
      }
    }
  }
  const uint64_t expected = ExpectedFingerprint(counts, distincts);

  StatsStore fresh;
  for (const auto& [sig, count] : counts) fresh.SetCount(sig, count);
  for (const auto& [key, count] : distincts) {
    fresh.SetDistinct(std::get<0>(key), std::get<1>(key), std::get<2>(key), count);
  }
  EXPECT_EQ(fresh.Fingerprint(), expected);
  EXPECT_NE(fresh.Fingerprint(), StatsStore().Fingerprint());

  for (uint64_t order = 0; order < 8; ++order) {
    SCOPED_TRACE(order);
    Pcg32 order_rng(order);
    auto pick = [&order_rng](size_t n) {
      return order_rng.NextBounded(static_cast<uint32_t>(n));
    };
    std::vector<std::pair<CountKey, double>> count_list(counts.begin(), counts.end());
    std::vector<std::pair<DistinctKey, double>> distinct_list(distincts.begin(),
                                                              distincts.end());
    StatsStore store;
    // Interim values first, each key a random number of times, the two
    // kinds interleaved; then the final values in a shuffled order.
    for (int step = 0; step < 120; ++step) {
      if (pick(2) == 0) {
        store.SetCount(count_list[pick(count_list.size())].first, pick(5000));
      } else {
        const auto& [term, expr, partner] = distinct_list[pick(distinct_list.size())].first;
        // A partner is keyed by its relations: {R, σ} writes the key of R.
        const ExprSig written = partner == kR && pick(2) == 0 ? ExprSig{0b001, 0b1} : partner;
        store.SetDistinct(term, expr, written, pick(5000) * 0.5);
      }
    }
    for (size_t i = count_list.size(); i > 1; --i) {
      std::swap(count_list[i - 1], count_list[pick(i)]);
    }
    for (size_t i = distinct_list.size(); i > 1; --i) {
      std::swap(distinct_list[i - 1], distinct_list[pick(i)]);
    }
    size_t c = 0;
    size_t d = 0;
    while (c < count_list.size() || d < distinct_list.size()) {
      if (d == distinct_list.size() || (c < count_list.size() && pick(2) == 0)) {
        store.SetCount(count_list[c].first, count_list[c].second);
        ++c;
      } else {
        const auto& [key, count] = distinct_list[d++];
        store.SetDistinct(std::get<0>(key), std::get<1>(key), std::get<2>(key), count);
      }
    }
    ASSERT_EQ(store.ToString(), fresh.ToString());
    EXPECT_EQ(store.Fingerprint(), fresh.Fingerprint());
    EXPECT_EQ(store.Fingerprint(), expected);
  }
}

// Containment ties: d(F, r⋈s | t) and d(F, r⋈u | t) both answer
// d(F, r⋈s⋈u | t) from the same tier and relation count. The smaller
// signature, r⋈s, wins whatever the insertion order or copy history.
TEST(StatsStoreTest, TiedContainmentCandidatesPickSmallestSignature) {
  const ExprSig rs{0b0011, 0b01};
  const ExprSig ru{0b1001, 0b10};
  const ExprSig rsu{0b1011, 0b11};
  const ExprSig t{0b0100, 0};

  StatsStore forward;
  forward.SetDistinct(0, rs, t, 11);
  forward.SetDistinct(0, ru, t, 22);
  StatsStore backward;
  backward.SetDistinct(0, ru, t, 22);
  backward.SetDistinct(0, rs, t, 11);
  EXPECT_DOUBLE_EQ(*forward.LookupDistinct(0, rsu, t), 11);
  EXPECT_DOUBLE_EQ(*backward.LookupDistinct(0, rsu, t), 11);

  // Inserted into copies (plain and allocator-extended) of a store that
  // already holds the other candidate.
  StatsStore base;
  base.SetDistinct(0, ru, t, 22);
  StatsStore copied = base;
  copied.SetDistinct(0, rs, t, 11);
  EXPECT_DOUBLE_EQ(*copied.LookupDistinct(0, rsu, t), 11);
  std::pmr::monotonic_buffer_resource arena;
  StatsStore arena_copy(base, &arena);
  arena_copy.SetDistinct(0, rs, t, 11);
  EXPECT_DOUBLE_EQ(*arena_copy.LookupDistinct(0, rsu, t), 11);
  EXPECT_DOUBLE_EQ(*base.LookupDistinct(0, rsu, t), 22);
}

TEST(StatsStoreTest, TiedWildcardObservationsPickSmallestPredicates) {
  // Two observations over σ(S) with different filters tie for S ⋈ R; the
  // smaller predicate mask wins.
  const ExprSig s_a{0b010, 0b1000};
  const ExprSig s_b{0b010, 0b0100};
  for (bool a_first : {true, false}) {
    StatsStore store;
    if (a_first) store.SetDistinctObserved(0, s_a, 8);
    store.SetDistinctObserved(0, s_b, 4);
    if (!a_first) store.SetDistinctObserved(0, s_a, 8);
    EXPECT_DOUBLE_EQ(*store.LookupDistinct(0, kRS, kT), 4) << a_first;
  }
}

TEST(StatsStoreTest, LookupCountByRelsStaysInItsRun) {
  StatsStore store;
  store.SetCount(ExprSig{0b001, 0b111}, 1);  // fewer rels, more preds
  store.SetCount(ExprSig{0b011, 0b111}, 2);  // more rels, more preds
  store.SetCount(ExprSig{0b010, 0}, 1000);
  store.SetCount(ExprSig{0b010, 0b1000}, 100);
  store.SetCount(ExprSig{0b010, 0b0110}, 10);
  store.SetCount(ExprSig{0b010, 0b1001}, 20);  // ties 0b0110 on popcount
  EXPECT_DOUBLE_EQ(*store.LookupCountByRels(RelSet(0b010)), 10);
  EXPECT_DOUBLE_EQ(*store.LookupCountByRels(RelSet(0b001)), 1);
  EXPECT_FALSE(store.LookupCountByRels(RelSet(0b110)).has_value());
}

TEST(StatsStoreTest, SameContentsInAnyOrderAreEqual) {
  StatsStore a;
  a.SetCount(kR, 1);
  a.SetCount(kRS, 7);
  a.SetDistinct(0, kS, kR, 5);
  a.SetDistinctObserved(1, kRS, 3);
  a.SetDistinct(0, kS, kR, 6);  // overwrite
  a.SetCount(kSFiltered, 9);

  StatsStore b;
  b.SetCount(kSFiltered, 9);
  b.SetDistinctObserved(1, kRS, 3);
  b.SetDistinct(0, kS, kR, 6);
  b.SetCount(kRS, 7);
  b.SetCount(kR, 1);

  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.num_counts(), 3u);
  EXPECT_EQ(a.num_distincts(), 2u);
}

TEST(StatsStoreTest, HasDistinctInfoForAllMatchesPerTermCalls) {
  StatsStore store;
  store.SetDistinct(0, kS, kR, 5);
  store.SetDistinctObserved(2, kRS, 3);
  store.SetDistinctObserved(63, kT, 1);
  for (uint64_t rels = 0; rels < 8; ++rels) {
    for (uint64_t terms : {uint64_t{0}, uint64_t{0b1}, uint64_t{0b10}, uint64_t{0b101},
                           (uint64_t{1} << 63) | 1, (uint64_t{1} << 63) | 0b101}) {
      bool expected = true;
      for (uint64_t m = terms; m != 0; m &= m - 1) {
        expected &= store.HasDistinctInfo(__builtin_ctzll(m), RelSet(rels));
      }
      // The term it names, if any, is one of `terms` without statistics.
      int missing = store.TermWithoutDistinctInfo(terms, RelSet(rels));
      EXPECT_EQ(missing < 0, expected) << rels << " " << terms;
      if (missing >= 0) {
        EXPECT_NE(terms & (uint64_t{1} << missing), 0u) << rels << " " << terms;
        EXPECT_FALSE(store.HasDistinctInfo(missing, RelSet(rels))) << rels << " " << terms;
      }
    }
  }
}

TEST(StatsStoreTest, ValueSemantics) {
  StatsStore a;
  a.SetCount(kR, 1);
  StatsStore b = a;
  b.SetCount(kS, 2);
  EXPECT_FALSE(a.LookupCount(kS).has_value());
  EXPECT_TRUE(b.LookupCount(kR).has_value());
}

}  // namespace
}  // namespace monsoon
