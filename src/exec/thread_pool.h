// A work-stealing thread pool with a blocking ParallelFor primitive.
//
// The execution subsystem's parallelism is deliberately simple and
// TSan-clean: each worker owns a mutex-guarded deque, pops its own work LIFO
// (cache-warm) and steals FIFO from victims (oldest, largest-granularity
// tasks first). ParallelFor submits one task per index, round-robined across
// the worker deques, and the *calling* thread participates by stealing while
// it waits — so nested ParallelFor calls cannot deadlock and a pool of width
// 0 degrades to a plain sequential loop. Detached tasks (Submit) wait in one
// shared FIFO queue that idle workers drain oldest first, after the batch
// tasks, which have a blocked caller.
//
// Tasks must not throw. The pool is created once and reused; see
// api::EngineOptions::num_threads.

#ifndef FACTLOG_EXEC_THREAD_POOL_H_
#define FACTLOG_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace factlog::exec {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 is valid: ParallelFor then runs every
  /// index inline on the calling thread.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, n), distributed across the workers, and
  /// blocks until all calls return. The calling thread executes tasks too.
  /// fn must be safe to call concurrently from multiple threads.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Enqueues a detached task: runs once on some worker, nobody waits for it
  /// here (the serving front end tracks completion itself). Detached tasks
  /// start in submission order, each when a worker has no batch task to run
  /// (the serving queue's oldest request goes first). Runs inline when
  /// the pool has no workers. Tasks still queued when the pool is destroyed
  /// are discarded unrun — callers that need every task to finish must drain
  /// before destruction (serve::Server::Stop does).
  void Submit(std::function<void()> fn);

  /// Lifetime counters (approximate while tasks are in flight).
  struct Stats {
    uint64_t executed = 0;  // tasks run, by workers and callers alike
    uint64_t stolen = 0;    // tasks taken from another worker's deque
  };
  Stats stats() const;

 private:
  // One ParallelFor invocation. Lives on the caller's stack: tasks hold a
  // pointer, and ParallelFor does not return until the last completer has
  // set `done` under `mu` — the caller must not trust the atomic counter
  // alone, or it could destroy the batch while that completer is still
  // inside the notify.
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    std::atomic<size_t> remaining{0};
    std::mutex mu;
    std::condition_variable done_cv;
    bool done = false;  // guarded by mu; set by the last completer
  };

  struct Task {
    Batch* batch = nullptr;
    size_t index = 0;
  };

  struct Worker {
    std::mutex mu;
    std::deque<Task> deque;
  };

  void WorkerLoop(size_t worker_index);
  bool TryPopOwn(size_t worker_index, Task* out);
  bool TrySteal(size_t thief_index, Task* out);
  bool TryPopDetached(std::function<void()>* out);
  void RunTask(const Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex detached_mu_;
  std::deque<std::function<void()>> detached_;  // Submit's tasks, oldest first
  std::vector<std::thread> threads_;

  // Sleep/wake machinery: pending_ counts tasks sitting in queues. Enqueuers
  // bump it, then take wake_mu_ briefly before notifying, which closes the
  // classic lost-wakeup window against the predicate re-check in WorkerLoop.
  std::atomic<size_t> pending_{0};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};

  std::atomic<size_t> next_victim_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> stolen_{0};
};

}  // namespace factlog::exec

#endif  // FACTLOG_EXEC_THREAD_POOL_H_
