#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "parallel/parallel_for.h"
#include "parallel/runtime.h"
#include "parallel/thread_pool.h"

namespace monsoon::parallel {
namespace {

TEST(ThreadPoolTest, StartStopAtEverySize) {
  for (int threads : {1, 2, 3, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    EXPECT_EQ(pool.num_workers(), threads - 1);
  }
  // Degenerate sizes clamp to a caller-only pool.
  ThreadPool tiny(0);
  EXPECT_EQ(tiny.num_threads(), 1);
  EXPECT_EQ(tiny.num_workers(), 0);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  while (pool.TryRunOne()) {
  }
  EXPECT_EQ(pool.pending_tasks(), 0u);
  // Every task is claimed; the workers may still be inside their last one.
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ran.load() < 200 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, ClaimsTasksInSubmissionOrder) {
  // Park the one worker, queue eight tasks, then let it go: it must claim
  // them oldest first.
  ThreadPool pool(2);
  std::latch parked(1);
  std::latch release(1);
  pool.Submit([&parked, &release] {
    parked.count_down();
    release.wait();
  });
  parked.wait();
  std::mutex mu;
  std::vector<int> order;
  std::latch all_ran(8);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([i, &mu, &order, &all_ran] {
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      }
      all_ran.count_down();
    });
  }
  release.count_down();
  all_ran.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPoolTest, InlineWhenNoWorkers) {
  ThreadPool pool(1);
  for (ThreadPool* runner_pool : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    std::set<std::thread::id> runners;
    Status status = ParallelFor(runner_pool, 8, 1, /*token=*/nullptr,
                                [&runners](size_t, size_t, size_t) {
                                  runners.insert(std::this_thread::get_id());
                                  return Status::OK();
                                });
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(runners, std::set<std::thread::id>{std::this_thread::get_id()});
  }
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

TEST(ParallelForTest, NestedLoopsDoNotDeadlock) {
  // Every outer lane runs an inner loop on the same pool; the waiting
  // lanes help drain the queue instead of blocking on it.
  ThreadPool pool(2);
  std::atomic<int> inner_ran{0};
  Status status = ParallelFor(
      &pool, 4, 1, /*token=*/nullptr, [&](size_t, size_t, size_t) {
        return ParallelFor(&pool, 4, 1, /*token=*/nullptr,
                           [&inner_ran](size_t, size_t, size_t) {
                             inner_ran.fetch_add(1);
                             return Status::OK();
                           });
      });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(inner_ran.load(), 16);
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

TEST(ParallelForTest, MatchesSerialSumOverAwkwardShapes) {
  ThreadPool pool(4);
  for (size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul, 4097ul}) {
    for (size_t morsel : {1ul, 3ul, 64ul, 4096ul}) {
      std::vector<uint64_t> per_morsel(NumMorsels(n, morsel), 0);
      Status status = ParallelFor(
          &pool, n, morsel, /*token=*/nullptr,
          [&](size_t m, size_t begin, size_t end) {
            EXPECT_EQ(begin, m * morsel);
            EXPECT_LE(end, n);
            uint64_t sum = 0;
            for (size_t i = begin; i < end; ++i) sum += i;
            per_morsel[m] = sum;
            return Status::OK();
          });
      ASSERT_TRUE(status.ok());
      uint64_t total = std::accumulate(per_morsel.begin(), per_morsel.end(),
                                       uint64_t{0});
      EXPECT_EQ(total, n == 0 ? 0 : n * (n - 1) / 2)
          << "n=" << n << " morsel=" << morsel;
    }
  }
}

TEST(ParallelForTest, ReportsLowestFailingMorselAndCancels) {
  ThreadPool pool(4);
  std::atomic<int> started{0};
  Status status = ParallelFor(
      &pool, 1000, 10, /*token=*/nullptr, [&](size_t m, size_t, size_t) {
        started.fetch_add(1);
        if (m == 3) return Status::InvalidArgument("morsel 3 failed");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "morsel 3 failed");
  // Cancellation: nowhere near all 100 morsels should have started.
  EXPECT_LT(started.load(), 100);
}

TEST(ParallelForTest, SerialFallbackShortCircuits) {
  int ran = 0;
  Status status = ParallelFor(
      nullptr, 100, 10, /*token=*/nullptr, [&](size_t m, size_t, size_t) {
        ++ran;
        if (m == 2) return Status::Internal("stop");
        return Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(ran, 3);
}

TEST(ParallelForTest, ThrowingLanesAreContainedAndRethrownOnce) {
  // Both lanes — the calling thread's and the pool worker's — are inside a
  // morsel when each throws; the worker throws last, while the caller's
  // throw is already unwinding. The loop must wait for both and rethrow
  // one exception, the lowest-indexed morsel's; a throw escaping the
  // caller's lane would unwind past the wait while its sibling still runs.
  ThreadPool pool(2);
  std::latch both_inside(2);
  int caught = 0;
  try {
    Status status = ParallelFor(
        &pool, /*n=*/4, /*morsel_size=*/1, /*token=*/nullptr,
        [&](size_t m, size_t, size_t) -> Status {
          both_inside.arrive_and_wait();
          if (ThreadPool::CurrentWorker() != -1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          throw std::runtime_error("morsel " + std::to_string(m));
        });
    ADD_FAILURE() << "returned " << status.ToString();
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "morsel 0");
  }
  EXPECT_EQ(caught, 1);
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

TEST(ParallelForTest, LowestIndexedFailureWinsOverAThrow) {
  // A returned error and a throw are both failures of their morsel; the
  // lower index is reported, as a serial loop would have stopped there.
  ThreadPool pool(2);
  std::latch both_inside(2);
  Status status = ParallelFor(
      &pool, /*n=*/4, /*morsel_size=*/1, /*token=*/nullptr,
      [&](size_t m, size_t, size_t) -> Status {
        both_inside.arrive_and_wait();
        if (m == 0) return Status::Internal("morsel 0 failed");
        throw std::runtime_error("morsel " + std::to_string(m));
      });
  EXPECT_EQ(status.message(), "morsel 0 failed");
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

// The process default starts from MONSOON_THREADS. tests/CMakeLists.txt
// runs this case in a process of its own with MONSOON_THREADS=3; the suite
// itself runs without the variable, where the case skips.
TEST(RuntimeTest, ThreadsComeFromTheEnvironment) {
  const std::optional<std::string> env = EnvString("MONSOON_THREADS");
  if (!env.has_value()) GTEST_SKIP() << "MONSOON_THREADS is unset";
  const int expected = std::atoi(env->c_str());
  if (expected <= 1) GTEST_SKIP() << "MONSOON_THREADS=" << *env << " is serial";
  EXPECT_EQ(DefaultConfig().num_threads, expected);
  ASSERT_NE(SharedPool(), nullptr);
  EXPECT_EQ(SharedPool()->num_threads(), expected);
}

TEST(RuntimeTest, ConfigRoundTripsAndSizesThePool) {
  Config original = DefaultConfig();

  Config config;
  config.num_threads = 3;
  SetDefaultConfig(config);
  EXPECT_EQ(DefaultConfig().num_threads, 3);
  ASSERT_NE(SharedPool(), nullptr);
  EXPECT_EQ(SharedPool()->num_threads(), 3);
  EXPECT_EQ(EffectiveMctsWorkers(), 3);

  config.num_threads = 1;
  SetDefaultConfig(config);
  EXPECT_EQ(SharedPool(), nullptr) << "serial config must not keep a pool";

  SetDefaultConfig(original);
}

}  // namespace
}  // namespace monsoon::parallel
