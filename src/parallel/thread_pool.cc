#include "parallel/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace monsoon::parallel {

namespace {
thread_local int tls_worker_id = -1;
}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(1, num_threads)) {
  int workers = num_threads_ - 1;
  size_t queues = std::max(1, workers);
  queues_.reserve(queues);
  for (size_t i = 0; i < queues; ++i) {
    queues_.push_back(std::make_unique<WorkQueue>());
  }
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(idle_mu_);
    shutdown_ = true;
  }
  idle_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::CurrentWorker() { return tls_worker_id; }

void ThreadPool::Submit(Task task) {
  size_t queue;
  {
    MutexLock lock(submit_mu_);
    queue = next_queue_++ % queues_.size();
  }
  SubmitTo(queue, std::move(task));
}

void ThreadPool::SubmitTo(size_t queue, Task task) {
  static obs::Counter* const submitted_metric =
      obs::Registry::Global().GetCounter("pool.tasks_submitted");
  static obs::Counter* const run_metric =
      obs::Registry::Global().GetCounter("pool.tasks_run");
  static obs::Counter* const stolen_metric =
      obs::Registry::Global().GetCounter("pool.tasks_stolen");
  static obs::Histogram* const queue_us_metric =
      obs::Registry::Global().GetHistogram("pool.queue_us");

  submitted_metric->Add(1);
  size_t home = queue % queues_.size();
  // Wrap the task with lifecycle telemetry: enqueue → dequeue latency, and
  // whether it was stolen off its home queue. The wrapper runs on the
  // claiming thread, so the TraceSpan lands on that worker's lane, and
  // under the submitter's trace scope, so it lands in the submitter's
  // query whichever thread claims it.
  auto enqueued = std::chrono::steady_clock::now();
  Task wrapped = [home, enqueued, scope = obs::CurrentTraceScope(),
                  inner = std::move(task)] {
    uint64_t queue_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - enqueued)
            .count());
    int runner = CurrentWorker();
    bool stolen = runner != static_cast<int>(home);
    run_metric->Add(1);
    if (stolen) stolen_metric->Add(1);
    queue_us_metric->Observe(queue_us);
    obs::TraceScopeGuard trace_scope(scope);
    obs::TraceSpan span("pool", "task");
    span.Arg("queue_us", queue_us)
        .Arg("home", static_cast<uint64_t>(home))
        .Arg("stolen", stolen);
    inner();
  };
  WorkQueue& q = *queues_[home];
  // Account before publishing: a task is claimable the moment it is in the
  // queue, and the claimer's decrement must find the increment already
  // applied or pending_ goes negative and workers can sleep past real work.
  {
    MutexLock lock(idle_mu_);
    ++pending_;
  }
  {
    MutexLock lock(q.mu);
    q.tasks.push_back(std::move(wrapped));
  }
  idle_cv_.NotifyOne();
}

bool ThreadPool::PopOwn(size_t queue, Task* task) {
  MONSOON_DCHECK(queue < queues_.size());
  WorkQueue& q = *queues_[queue];
  MutexLock lock(q.mu);
  if (q.tasks.empty()) return false;
  *task = std::move(q.tasks.back());
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::StealFrom(size_t victim, Task* task) {
  MONSOON_DCHECK(victim < queues_.size());
  WorkQueue& q = *queues_[victim];
  MutexLock lock(q.mu);
  if (q.tasks.empty()) return false;
  *task = std::move(q.tasks.front());
  q.tasks.pop_front();
  return true;
}

bool ThreadPool::FindTask(size_t home, Task* task) {
  size_t n = queues_.size();
  if (home < n && PopOwn(home, task)) return true;
  for (size_t i = 0; i < n; ++i) {
    size_t victim = (home + 1 + i) % n;
    if (StealFrom(victim, task)) return true;
  }
  return false;
}

bool ThreadPool::TryRunOne() {
  Task task;
  size_t home = tls_worker_id >= 0 ? static_cast<size_t>(tls_worker_id)
                                   : queues_.size();  // externals only steal
  if (!FindTask(home, &task)) return false;
  {
    MutexLock lock(idle_mu_);
    MONSOON_DCHECK(pending_ > 0) << "claimed a task nobody accounted for";
    --pending_;
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop(int worker_id) {
  tls_worker_id = worker_id;
  obs::SetThreadDefaultLane(obs::kPoolLaneBase + worker_id,
                            "pool-w" + std::to_string(worker_id));
  for (;;) {
    Task task;
    if (FindTask(static_cast<size_t>(worker_id), &task)) {
      {
        MutexLock lock(idle_mu_);
        MONSOON_DCHECK(pending_ > 0) << "claimed a task nobody accounted for";
        --pending_;
      }
      task();
      continue;
    }
    MutexLock lock(idle_mu_);
    while (!shutdown_ && pending_ == 0) idle_cv_.Wait(idle_mu_);
    if (shutdown_ && pending_ == 0) return;
  }
}

TaskGroup::~TaskGroup() {
  // A group abandoned without Wait() would let tasks touch a dead frame;
  // draining here keeps misuse from turning into memory corruption.
  bool outstanding;
  {
    MutexLock lock(mu_);
    outstanding = outstanding_ > 0;
  }
  if (outstanding) Wait();
}

void TaskGroup::Execute(const std::function<void()>& fn) {
  try {
    fn();
  } catch (...) {
    {
      MutexLock lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    // Cancel outside mu_: token Cancel is lock-free but keeping the
    // group lock narrow avoids ordering it against token internals.
    if (token_ != nullptr) {
      token_->Cancel(StatusCode::kCancelled, "sibling task failed");
    }
  }
}

std::function<void()> TaskGroup::Wrap(std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    ++outstanding_;
  }
  return [this, fn = std::move(fn)] {
    Execute(fn);
    // Notify while holding mu_: once a waiter can observe outstanding_ == 0
    // it may destroy this group, so the broadcast must finish before the
    // lock is released. Notifying after unlock races with ~TaskGroup.
    MutexLock lock(mu_);
    MONSOON_DCHECK(outstanding_ > 0) << "task completion without a Wrap";
    if (--outstanding_ == 0) cv_.NotifyAll();
  };
}

void TaskGroup::Run(std::function<void()> fn) {
  if (pool_ == nullptr || pool_->num_workers() == 0) {
    Execute(fn);
    return;
  }
  pool_->Submit(Wrap(std::move(fn)));
}

void TaskGroup::RunOn(size_t queue, std::function<void()> fn) {
  if (pool_ == nullptr || pool_->num_workers() == 0) {
    Execute(fn);
    return;
  }
  pool_->SubmitTo(queue, Wrap(std::move(fn)));
}

void TaskGroup::Wait() {
  for (;;) {
    {
      MutexLock lock(mu_);
      if (outstanding_ == 0) break;
    }
    // Help: run queued pool tasks (ours or anyone's) instead of blocking.
    // Nested Wait() calls on worker threads make progress the same way,
    // which is what makes nested TaskGroups deadlock-free.
    if (pool_ != nullptr && pool_->TryRunOne()) continue;
    MutexLock lock(mu_);
    if (outstanding_ == 0) break;
    // Re-poll for stealable tasks periodically: a task submitted after the
    // TryRunOne miss but claimed by no one must not strand us here.
    cv_.WaitFor(mu_, std::chrono::milliseconds(1));
    if (outstanding_ == 0) break;
  }
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace monsoon::parallel
