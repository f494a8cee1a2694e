#ifndef MONSOON_COMMON_SYNC_H_
#define MONSOON_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace monsoon {

/// An annotated std::mutex. Every mutex in first-party code goes through
/// this wrapper so Clang's -Wthread-safety can prove GUARDED_BY members
/// are only touched under their lock (libstdc++'s std::mutex carries no
/// capability attributes, so annotating it directly checks nothing).
///
/// Lock ordering is enforced separately by monsoon-lint's lock-rank rule
/// (tools/lint/lock_ranks.h): acquiring a mutex — or making any blocking
/// call such as ThreadPool::TryRunOne — while holding a lock ranked below
/// it is a CI-blocking diagnostic.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for Mutex; the scoped analogue of std::lock_guard.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait/WaitFor require the caller
/// to hold the mutex (checked by -Wthread-safety); both release it while
/// blocked and reacquire before returning, like std::condition_variable.
/// There is no predicate overload on purpose: re-checking the guarded
/// predicate in the caller's scope is what lets the analysis see the
/// accesses happen under the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's scope
  }

  /// Returns false if the wait timed out (the caller re-checks its
  /// predicate either way; spurious wakeups are possible).
  template <class Rep, class Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace monsoon

#endif  // MONSOON_COMMON_SYNC_H_
