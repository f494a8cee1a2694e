#ifndef MONSOON_PARALLEL_THREAD_POOL_H_
#define MONSOON_PARALLEL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"

namespace monsoon::parallel {

/// A FIFO thread pool: one task queue under one mutex. Workers and
/// helping callers claim tasks in submission order.
///
/// `num_threads` is the total concurrency level *including the calling
/// thread*: the pool spawns num_threads - 1 workers, and the caller is
/// expected to lend itself through ParallelFor, which runs queued tasks
/// inline while it waits for its lanes. num_threads <= 1 spawns no
/// workers at all; ParallelFor then runs inline.
///
/// Tasks must not block indefinitely on other pool tasks except through
/// ParallelFor (which helps drain the pool, so nested loops cannot
/// deadlock).
class ThreadPool {
 public:
  using Task = std::function<void()>;

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency level (workers + the caller slot).
  int num_threads() const { return num_threads_; }
  /// Background workers actually spawned (num_threads - 1, min 0).
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task at the back of the queue.
  void Submit(Task task);

  /// Runs the oldest queued task on the calling thread if there is one.
  /// Returns false when the queue is empty.
  bool TryRunOne();

  /// Queued-but-unclaimed tasks. 0 once the pool is drained — the fault
  /// tests use this to assert cancelled parallel sections leak no tasks.
  size_t pending_tasks() {
    MutexLock lock(queue_mu_);
    return tasks_.size();
  }

  /// Worker index of the calling thread, or -1 for external threads.
  /// Distinct per pool worker; stable for the worker's lifetime.
  static int CurrentWorker();

 private:
  void WorkerLoop(int worker_id);

  int num_threads_;
  std::vector<std::thread> workers_;

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Task> tasks_ GUARDED_BY(queue_mu_);
  bool shutdown_ GUARDED_BY(queue_mu_) = false;
};

}  // namespace monsoon::parallel

#endif  // MONSOON_PARALLEL_THREAD_POOL_H_
