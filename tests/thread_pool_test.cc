// Unit tests for the work-stealing thread pool.

#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

namespace factlog::exec {
namespace {

TEST(ThreadPoolTest, ZeroWidthPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_GE(pool.stats().executed, kN);
}

TEST(ThreadPoolTest, ConcurrentSumMatchesSequential) {
  ThreadPool pool(8);
  constexpr size_t kN = 5'000;
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(kN, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50u * 64u);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 4u * 8u);
}

TEST(ThreadPoolTest, SingleIndexRunsOnCaller) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, UnevenTaskDurationsComplete) {
  // Front-loaded long tasks force stealing to finish in reasonable time.
  ThreadPool pool(4);
  std::atomic<uint64_t> work{0};
  pool.ParallelFor(32, [&](size_t i) {
    uint64_t spin = (i < 4) ? 200'000 : 100;
    uint64_t acc = 0;
    for (uint64_t k = 0; k < spin; ++k) acc += k * k;
    work.fetch_add(acc == 0 ? 1 : 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(work.load(), 32u);
}

TEST(ThreadPoolTest, DetachedTasksRunOldestFirst) {
  // One worker, held busy by a gated task while A, B and C queue up behind
  // it: once the gate opens they must run in submission order.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false, open = false;
  std::string order;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  for (char name : {'A', 'B', 'C'}) {
    pool.Submit([&, name] {
      std::lock_guard<std::mutex> lock(mu);
      order += name;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  open = true;
  cv.notify_all();
  cv.wait(lock, [&] { return order.size() == 3; });
  EXPECT_EQ(order, "ABC");
}

}  // namespace
}  // namespace factlog::exec
