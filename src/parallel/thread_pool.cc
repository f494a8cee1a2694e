#include "parallel/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace monsoon::parallel {

namespace {
thread_local int tls_worker_id = -1;
}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(1, num_threads)) {
  int workers = num_threads_ - 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(queue_mu_);
    shutdown_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::CurrentWorker() { return tls_worker_id; }

void ThreadPool::Submit(Task task) {
  static obs::Counter* const submitted_metric =
      obs::Registry::Global().GetCounter("pool.tasks_submitted");
  static obs::Counter* const run_metric =
      obs::Registry::Global().GetCounter("pool.tasks_run");
  static obs::Counter* const stolen_metric =
      obs::Registry::Global().GetCounter("pool.tasks_stolen");
  static obs::Histogram* const queue_us_metric =
      obs::Registry::Global().GetHistogram("pool.queue_us");

  submitted_metric->Add(1);
  // Wrap the task with lifecycle telemetry: enqueue → dequeue latency, and
  // whether a thread outside the pool (a caller helping while it waits)
  // ran it. The wrapper runs on the claiming thread, so the TraceSpan
  // lands on that thread's lane, and under the submitter's trace scope,
  // so it lands in the submitter's query whichever thread claims it.
  auto enqueued = std::chrono::steady_clock::now();
  Task wrapped = [enqueued, scope = obs::CurrentTraceScope(),
                  inner = std::move(task)] {
    uint64_t queue_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - enqueued)
            .count());
    bool stolen = CurrentWorker() < 0;
    run_metric->Add(1);
    if (stolen) stolen_metric->Add(1);
    queue_us_metric->Observe(queue_us);
    obs::TraceScopeGuard trace_scope(scope);
    obs::TraceSpan span("pool", "task");
    span.Arg("queue_us", queue_us).Arg("stolen", stolen);
    inner();
  };
  {
    MutexLock lock(queue_mu_);
    tasks_.push_back(std::move(wrapped));
  }
  queue_cv_.NotifyOne();
}

bool ThreadPool::TryRunOne() {
  Task task;
  {
    MutexLock lock(queue_mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
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
    {
      MutexLock lock(queue_mu_);
      while (!shutdown_ && tasks_.empty()) queue_cv_.Wait(queue_mu_);
      if (tasks_.empty()) return;  // shut down and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace monsoon::parallel
