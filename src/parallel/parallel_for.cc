#include "parallel/parallel_for.h"

#include <algorithm>
#include <atomic>
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

  if (pool == nullptr || pool->num_workers() == 0 || num_morsels <= 1) {
    for (size_t i = 0; i < num_morsels; ++i) {
      if (token != nullptr) MONSOON_RETURN_IF_ERROR(token->Check());
      size_t begin = i * morsel_size;
      size_t end = std::min(n, begin + morsel_size);
      MONSOON_RETURN_IF_ERROR(fn(i, begin, end));
    }
    return Status::OK();
  }

  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    Mutex mu;
    size_t error_index GUARDED_BY(mu) = std::numeric_limits<size_t>::max();
    Status error GUARDED_BY(mu);
  };
  Shared shared;

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
      Status status = fn(i, begin, end);
      if (!status.ok()) {
        MutexLock lock(shared.mu);
        if (i < shared.error_index) {
          shared.error_index = i;
          shared.error = std::move(status);
        }
        shared.failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  size_t lanes = std::min<size_t>(static_cast<size_t>(pool->num_threads()),
                                  num_morsels);
  TaskGroup group(pool);
  for (size_t k = 1; k < lanes; ++k) group.Run(lane);
  lane();  // the calling thread is a lane too
  group.Wait();

  {
    MutexLock lock(shared.mu);
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
