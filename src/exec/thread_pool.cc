#include "exec/thread_pool.h"

namespace factlog::exec {

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::TryPopOwn(size_t worker_index, Task* out) {
  Worker& w = *workers_[worker_index];
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.deque.empty()) return false;
  *out = w.deque.back();  // LIFO: most recently pushed, cache-warm
  w.deque.pop_back();
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::TryPopDetached(std::function<void()>* out) {
  std::lock_guard<std::mutex> lock(detached_mu_);
  if (detached_.empty()) return false;
  *out = std::move(detached_.front());  // FIFO: the oldest submission
  detached_.pop_front();
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::TrySteal(size_t thief_index, Task* out) {
  size_t n = workers_.size();
  if (n == 0) return false;
  size_t start = next_victim_.fetch_add(1, std::memory_order_relaxed) % n;
  for (size_t k = 0; k < n; ++k) {
    size_t victim = (start + k) % n;
    if (victim == thief_index) continue;
    Worker& w = *workers_[victim];
    std::lock_guard<std::mutex> lock(w.mu);
    if (w.deque.empty()) continue;
    *out = w.deque.front();  // FIFO end: steal the oldest task
    w.deque.pop_front();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    stolen_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::RunTask(const Task& task) {
  (*task.batch->fn)(task.index);
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (task.batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task: set done and notify while holding the batch mutex. The
    // caller re-acquires the mutex before returning, so it cannot destroy
    // the batch until this block has released it.
    std::lock_guard<std::mutex> lock(task.batch->mu);
    task.batch->done = true;
    task.batch->done_cv.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  Task task;
  std::function<void()> detached;
  for (;;) {
    if (TryPopOwn(worker_index, &task) || TrySteal(worker_index, &task)) {
      RunTask(task);
      continue;
    }
    if (TryPopDetached(&detached)) {
      detached();
      detached = nullptr;  // release the task's captures before sleeping
      executed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  if (workers_.empty()) {
    fn();
    executed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(detached_mu_);
    detached_.push_back(std::move(fn));
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
  }
  wake_cv_.notify_one();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    executed_.fetch_add(n, std::memory_order_relaxed);
    return;
  }

  Batch batch;
  batch.fn = &fn;
  batch.remaining.store(n, std::memory_order_relaxed);

  // Publish the count before enqueuing: a worker popping an early task
  // would otherwise wrap pending_ below zero and spin-wake every sleeper.
  pending_.fetch_add(n, std::memory_order_release);
  // Round-robin the tasks across the worker deques.
  for (size_t start = 0; start < n; start += workers_.size()) {
    for (size_t w = 0; w < workers_.size() && start + w < n; ++w) {
      Worker& worker = *workers_[w];
      std::lock_guard<std::mutex> lock(worker.mu);
      worker.deque.push_back(Task{&batch, start + w});
    }
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
  }
  wake_cv_.notify_all();

  // Participate: steal (our own batch's tasks or anyone's) until every task
  // of this batch has finished.
  Task task;
  while (batch.remaining.load(std::memory_order_acquire) > 0) {
    if (TrySteal(workers_.size(), &task)) {
      RunTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(batch.mu);
    batch.done_cv.wait(lock, [&batch] { return batch.done; });
    break;
  }
  // Final handshake: wait for the last completer to have set done under the
  // batch mutex, so destroying the stack-allocated batch is safe.
  std::unique_lock<std::mutex> lock(batch.mu);
  batch.done_cv.wait(lock, [&batch] { return batch.done; });
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.executed = executed_.load(std::memory_order_relaxed);
  s.stolen = stolen_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace factlog::exec
