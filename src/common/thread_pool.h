// Shared work-queue thread pool for training-time parallelism. The core
// primitive is a caller-participating ParallelFor: the calling thread
// always drains the index range itself alongside the workers, so nested
// ParallelFor calls (selector-level over model-level over feature-level)
// can never deadlock — in the worst case the caller simply runs every
// index inline. Results are deterministic as long as each index writes
// only its own output slot and any reduction happens in index order on
// the caller afterwards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace rpe {

class ThreadPool {
 public:
  /// \param num_threads total concurrency including the calling thread;
  ///   the pool spawns num_threads - 1 workers. 0 = hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the participating caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run fn(i) for every i in [0, n). Blocks until all indices complete;
  /// the caller participates. If any invocation throws, the first
  /// exception (in completion order) is rethrown after the range drains.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Enqueue a single task; the returned future carries its result.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    Enqueue([task] { (*task)(); });
    return result;
  }

  /// Process-wide pool. Size comes from RPE_NUM_THREADS when set, else
  /// hardware concurrency. Created on first use.
  static ThreadPool& Global();
  /// Replace the global pool (e.g. the CLI --threads flag). Must not race
  /// with concurrent use of the old pool.
  static void SetGlobalThreads(int num_threads);

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable ready_cv_;  ///< signalled when every worker waits
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  size_t idle_ = 0;  ///< workers currently waiting for a task (under mu_)
  std::vector<std::thread> workers_;
};

}  // namespace rpe
