#include "parallel/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>

#include "common/check.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace monsoon::parallel {

Status ParallelFor(ThreadPool* pool, size_t n, size_t morsel_size,
                   fault::CancellationToken* token,
                   const std::function<Status(size_t, size_t, size_t)>& fn) {
  if (n == 0) return Status::OK();
  morsel_size = std::max<size_t>(1, morsel_size);
  size_t num_morsels = NumMorsels(n, morsel_size);

  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    Mutex mu;
    size_t error_index GUARDED_BY(mu) = std::numeric_limits<size_t>::max();
    Status error GUARDED_BY(mu);
    std::exception_ptr exception GUARDED_BY(mu);
    size_t outstanding GUARDED_BY(mu) = 0;  // submitted lanes not yet done
    CondVar done_cv;
  };
  Shared shared;

  // Every lane, the calling thread's included, contains its own throw, so
  // nothing unwinds out of a pool task or past the wait below while a
  // submitted lane still runs on this frame.
  auto lane = [&shared, &fn, token, n, morsel_size, num_morsels] {
    for (;;) {
      if (shared.failed.load(std::memory_order_relaxed)) return;
      if (token != nullptr && !token->Check().ok()) return;
      size_t i = shared.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_morsels) return;
      size_t begin = i * morsel_size;
      size_t end = std::min(n, begin + morsel_size);
      MONSOON_DCHECK(begin < end && end <= n)
          << "morsel " << i << " out of [0, " << n << ")";
      Status status;
      std::exception_ptr exception;
      try {
        status = fn(i, begin, end);
      } catch (...) {
        exception = std::current_exception();
      }
      if (status.ok() && exception == nullptr) continue;
      MutexLock lock(shared.mu);
      if (i < shared.error_index) {
        shared.error_index = i;
        shared.error = std::move(status);
        shared.exception = std::move(exception);
      }
      shared.failed.store(true, std::memory_order_relaxed);
    }
  };

  // Without workers the calling thread is the only lane: the morsels run
  // in order and the first failure stops the loop.
  size_t lanes = pool == nullptr ? 1 : static_cast<size_t>(pool->num_threads());
  lanes = std::min(lanes, num_morsels);
  {
    MutexLock lock(shared.mu);
    shared.outstanding = lanes - 1;
  }
  for (size_t k = 1; k < lanes; ++k) {
    pool->Submit([&shared, &lane] {
      lane();
      // Notify under the lock: once the caller sees outstanding == 0 it
      // returns and `shared` dies, so the broadcast must come first.
      MutexLock lock(shared.mu);
      if (--shared.outstanding == 0) shared.done_cv.NotifyAll();
    });
  }
  lane();  // the calling thread is a lane too
  // Help while waiting: run queued pool tasks (ours or anyone's) instead of
  // blocking, which is what keeps a nested loop on a worker deadlock-free.
  for (;;) {
    {
      MutexLock lock(shared.mu);
      if (shared.outstanding == 0) break;
    }
    if (pool->TryRunOne()) continue;
    // Re-poll periodically: a task submitted after the TryRunOne miss but
    // claimed by no one must not strand us here.
    MutexLock lock(shared.mu);
    if (shared.outstanding > 0) {
      shared.done_cv.WaitFor(shared.mu, std::chrono::milliseconds(1));
    }
  }

  {
    MutexLock lock(shared.mu);
    if (shared.exception != nullptr) std::rethrow_exception(shared.exception);
    if (shared.error_index != std::numeric_limits<size_t>::max()) {
      return shared.error;
    }
  }
  // No morsel failed, but the token may have tripped mid-loop and left
  // morsels unclaimed; surface that instead of returning a partial OK.
  if (token != nullptr && token->cancelled()) return token->Check();
  return Status::OK();
}

}  // namespace monsoon::parallel
