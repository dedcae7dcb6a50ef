// ThreadPool tests: deterministic per-index results, exception
// propagation, pool reuse across many ParallelFor rounds, nested calls
// (the selector-over-model-over-feature shape), Submit futures, and a
// fresh pool's first call running on every worker.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"

namespace rpe {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ResultsLandInIndexOrder) {
  ThreadPool pool(4);
  std::vector<size_t> out(5000, 0);
  pool.ParallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ZeroAndOneIndexRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(10, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](size_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing round and keeps working.
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> out(64, -1);
    pool.ParallelFor(out.size(),
                     [&](size_t i) { out[i] = round + static_cast<int>(i); });
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], round + static_cast<int>(i));
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::vector<std::vector<int>> out(8, std::vector<int>(32, 0));
  pool.ParallelFor(out.size(), [&](size_t i) {
    pool.ParallelFor(out[i].size(),
                     [&, i](size_t j) { out[i][j] = static_cast<int>(i * j); });
  });
  for (size_t i = 0; i < out.size(); ++i) {
    for (size_t j = 0; j < out[i].size(); ++j) {
      EXPECT_EQ(out[i][j], static_cast<int>(i * j));
    }
  }
}

TEST(ThreadPoolTest, FirstParallelForOnAFreshPoolRunsOnEveryWorker) {
  // ParallelFor hands indices only to workers already waiting for work.
  // A 4-way rendezvous completes only if the first call on a new pool
  // runs its 4 indices on 4 threads at once; a serial index would wait
  // out the deadline instead.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  size_t met = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pool.ParallelFor(4, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    if (++arrived == 4) cv.notify_all();
    if (cv.wait_until(lock, deadline, [&] { return arrived == 4; })) ++met;
  });
  EXPECT_EQ(met, 4u);
}

TEST(ThreadPoolTest, SubmitReturnsFutureResult) {
  ThreadPool pool(2);
  auto a = pool.Submit([] { return 21 * 2; });
  auto b = pool.Submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int> sum{0};
  ThreadPool::Global().ParallelFor(16,
                                   [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 120);
}

}  // namespace
}  // namespace rpe
