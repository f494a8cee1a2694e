// Heap-allocation budget of the MCTS planner's inner loop. Global
// operator new is replaced with a counting one (as in obs_test.cc); a
// 300-iteration search on imdb-q13 (five relations) must average at most
// one heap allocation per iteration (it makes 8 in total). Tree nodes,
// their forests and epochs live in a per-search arena, and the rollout
// state, its epoch and the action buffers are reused, so the count is
// per-search set-up only.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>

#include "mcts/mcts.h"
#include "priors/prior.h"
#include "workloads/imdb.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// GCC pairs `new` expressions it inlines with the replaced `delete` below
// and flags the free() as mismatched; allocation goes through malloc here
// too, so the pairing is in fact consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace monsoon {
namespace {

constexpr int kIterations = 300;
constexpr double kMaxAllocsPerIteration = 1;

TEST(MctsAllocTest, WarmSearchStaysUnderBudget) {
  ImdbOptions imdb;
  imdb.scale = 0.05;
  StatusOr<Workload> workload = MakeImdbWorkload(imdb);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const BenchQuery* query = nullptr;
  for (const BenchQuery& q : workload->queries) {
    if (q.name == "imdb-q13") query = &q;
  }
  ASSERT_NE(query, nullptr);
  ASSERT_EQ(query->spec.num_relations(), 5);

  std::unique_ptr<Prior> prior = MakePrior(PriorKind::kSpikeAndSlab);
  QueryMdp mdp(query->spec, prior.get(), QueryMdp::Options());
  std::map<ExprSig, double> base_counts;
  for (int i = 0; i < query->spec.num_relations(); ++i) {
    StatusOr<uint64_t> rows =
        workload->catalog->RowCount(query->spec.relation(i).table_name);
    ASSERT_TRUE(rows.ok());
    base_counts[ExprSig::Of(RelSet::Single(i), 0)] = static_cast<double>(*rows);
  }
  MdpState root = mdp.InitialState(StatsStore(), base_counts);

  MctsSearch::Options options;
  options.iterations = kIterations;
  options.seed = 1313;
  {
    // Warm-up: first-use statics (metrics registry, trace lanes).
    MctsSearch warm(&mdp, options);
    ASSERT_TRUE(warm.SearchBestAction(root).ok());
  }

  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  MctsSearch search(&mdp, options);
  StatusOr<MdpAction> action = search.SearchBestAction(root);
  uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(action.ok()) << action.status().ToString();
  ASSERT_EQ(search.last_info().iterations_run, kIterations);

  double per_iteration = static_cast<double>(allocs) / kIterations;
  RecordProperty("allocs_per_iteration", std::to_string(per_iteration));
  EXPECT_LE(per_iteration, kMaxAllocsPerIteration)
      << allocs << " heap allocations over " << kIterations << " iterations";
}

}  // namespace
}  // namespace monsoon
