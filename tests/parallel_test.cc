#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
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
  TaskGroup group(&pool);
  for (int i = 0; i < 200; ++i) {
    group.Run([&ran] { ran.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, InlineWhenNoWorkers) {
  ThreadPool pool(1);
  TaskGroup group(&pool);
  std::thread::id runner;
  group.Run([&runner] { runner = std::this_thread::get_id(); });
  group.Wait();
  EXPECT_EQ(runner, std::this_thread::get_id());

  TaskGroup null_group(nullptr);
  int ran = 0;
  null_group.Run([&ran] { ++ran; });
  null_group.Wait();
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, StealsFromASkewedQueue) {
  // Pin one long task plus many short ones onto worker 0's deque. Worker 0
  // gets stuck on the long task (it pops LIFO, so it grabs a short one
  // first, then the rest sit at the front) — the other workers and the
  // waiting caller must steal the remainder for the group to finish fast.
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  std::mutex mu;
  std::set<int> executors;
  auto note = [&](int sleep_ms) {
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    std::lock_guard<std::mutex> lock(mu);
    executors.insert(ThreadPool::CurrentWorker());
    ran.fetch_add(1);
  };
  group.RunOn(0, [&note] { note(200); });
  for (int i = 0; i < 32; ++i) {
    group.RunOn(0, [&note] { note(1); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 33);
  // At least one task must have run off worker 0's own thread (a steal by
  // another worker, id 1..2, or by the caller, id -1).
  EXPECT_GT(executors.size(), 1u) << "no task was stolen from the hot queue";
}

TEST(TaskGroupTest, PropagatesTheFirstException) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Run([i] {
      if (i % 4 == 0) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The group is reusable after the error was consumed.
  group.Run([] {});
  EXPECT_NO_THROW(group.Wait());
}

TEST(TaskGroupTest, ExceptionAlsoPropagatesInline) {
  TaskGroup group(nullptr);
  group.Run([] { throw std::logic_error("inline failure"); });
  EXPECT_THROW(group.Wait(), std::logic_error);
}

TEST(TaskGroupTest, NestedGroupsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_ran{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.Run([&pool, &inner_ran] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 4; ++j) {
        inner.Run([&inner_ran] { inner_ran.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(inner_ran.load(), 16);
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
