#include "util/thread_pool.h"

#include <algorithm>
#include <memory>

#include "util/mutex.h"

namespace hcore {

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  task_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) task_cv_.Wait(lock);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++active_;
    }
    task();
    {
      MutexLock lock(mu_);
      --active_;
      if (tasks_.empty() && active_ == 0) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    tasks_.push(std::move(task));
  }
  task_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (!tasks_.empty() || active_ != 0) done_cv_.Wait(lock);
}

void ThreadPool::ParallelFor(uint64_t begin, uint64_t end, uint64_t grain,
                             const std::function<void(uint64_t)>& body) {
  if (begin >= end) return;
  grain = std::max<uint64_t>(1, grain);
  const uint64_t total = end - begin;
  const int workers = num_threads();
  if (workers <= 1 || total <= grain) {
    for (uint64_t i = begin; i < end; ++i) body(i);
    return;
  }
  auto cursor = std::make_shared<std::atomic<uint64_t>>(begin);
  const int launched = static_cast<int>(
      std::min<uint64_t>(workers, (total + grain - 1) / grain));
  for (int t = 0; t < launched; ++t) {
    Submit([cursor, end, grain, &body] {
      for (;;) {
        uint64_t lo = cursor->fetch_add(grain);
        if (lo >= end) return;
        uint64_t hi = std::min(end, lo + grain);
        for (uint64_t i = lo; i < hi; ++i) body(i);
      }
    });
  }
  Wait();
}

void ThreadPool::ForEachWorker(int workers, const std::function<void(int)>& body) {
  workers = std::min(std::max(1, workers), num_threads());
  if (workers <= 1) {
    body(0);
    return;
  }
  for (int t = 0; t < workers; ++t) {
    Submit([&body, t] { body(t); });
  }
  Wait();
}

void MaybeParallelFor(ThreadPool* pool, uint64_t begin, uint64_t end,
                      uint64_t grain,
                      const std::function<void(uint64_t)>& body) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (uint64_t i = begin; i < end; ++i) body(i);
    return;
  }
  pool->ParallelFor(begin, end, grain, body);
}

}  // namespace hcore
