#include "parallel/parallel_for.h"

#include <algorithm>
#include <atomic>
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
  };
  Shared shared;

  // Every lane, the calling thread's included, contains its own throw: a
  // lane never unwinds past the TaskGroup below, so the group's Wait never
  // has an exception to rethrow and its destructor never runs mid-unwind.
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
  TaskGroup group(pool);
  for (size_t k = 1; k < lanes; ++k) group.Run(lane);
  lane();  // the calling thread is a lane too
  group.Wait();

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
