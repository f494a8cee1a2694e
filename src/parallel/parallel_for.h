#ifndef MONSOON_PARALLEL_PARALLEL_FOR_H_
#define MONSOON_PARALLEL_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

#include "common/status.h"
#include "fault/cancellation.h"
#include "parallel/thread_pool.h"

namespace monsoon::parallel {

/// Number of morsels [0, n) splits into at the given morsel size.
inline size_t NumMorsels(size_t n, size_t morsel_size) {
  morsel_size = morsel_size == 0 ? 1 : morsel_size;
  return (n + morsel_size - 1) / morsel_size;
}

/// Morsel-driven parallel loop: splits [0, n) into chunks of `morsel_size`
/// rows and invokes fn(morsel_index, begin, end) for each, concurrently
/// when `pool` has workers and inline otherwise. Morsels are claimed from
/// a shared atomic dispenser in index order, so fast lanes naturally take
/// more morsels (self-balancing under skew); the calling thread
/// participates as a lane, and once its lane runs dry it runs queued pool
/// tasks until every submitted lane finished, so a loop nested inside a
/// lane cannot deadlock. The one fork-join primitive: morsel passes,
/// shard::RunSharded, the barrier gathers and root-parallel MCTS all
/// claim here.
///
/// Error contract: if any invocation returns non-OK or throws, unclaimed
/// morsels are skipped and the lowest-indexed failing morsel's failure is
/// reported once every lane has finished — its Status returned, or its
/// exception rethrown (matching what a serial loop with short-circuiting
/// would report when the failure is monotone, e.g. a budget trip).
///
/// Cancellation: a non-null `token` is polled at every morsel boundary by
/// every lane, so cancellation latency does not depend on the thread
/// count. A tripped token stops every lane from claiming further
/// morsels and its Cancelled / DeadlineExceeded status is returned —
/// unless some morsel already failed, in which case the lowest-indexed
/// morsel error still wins.
///
/// fn runs concurrently with other morsels: it may freely write state
/// indexed by its morsel number, and must not touch shared mutable state
/// without synchronization. Deterministic reductions are obtained by
/// merging per-morsel results in morsel order after this returns.
Status ParallelFor(ThreadPool* pool, size_t n, size_t morsel_size,
                   fault::CancellationToken* token,
                   const std::function<Status(size_t, size_t, size_t)>& fn);

}  // namespace monsoon::parallel

#endif  // MONSOON_PARALLEL_PARALLEL_FOR_H_
