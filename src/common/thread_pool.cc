#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <memory>

namespace rpe {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int EnvThreads() {
  const char* env = std::getenv("RPE_NUM_THREADS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 0;
}

/// Shared state of one ParallelFor call. Tasks (and the caller) claim
/// indices from `next` until the range is exhausted; `done` counts
/// completed indices so the caller knows when the whole range drained,
/// including indices claimed by workers.
struct ForJob {
  explicit ForJob(size_t total, const std::function<void(size_t)>& body)
      : n(total), fn(body) {}

  void Drain() {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }

  const size_t n;
  const std::function<void(size_t)>& fn;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int total = ResolveThreads(num_threads);
  // ParallelFor hands work only to waiting workers, so return once every
  // worker waits: otherwise the first call on a new pool runs serially.
  // Workers read workers_.size() under mu_, so spawn them under it too.
  std::unique_lock<std::mutex> lock(mu_);
  workers_.reserve(static_cast<size_t>(total > 0 ? total - 1 : 0));
  for (int i = 0; i + 1 < total; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  ready_cv_.wait(lock, [this] { return idle_ == workers_.size(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (++idle_ == workers_.size()) ready_cv_.notify_one();
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) return;  // shutdown with nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<ForJob>(n, fn);
  // Enqueue helpers only for workers that are actually waiting: the
  // caller drains the whole range itself anyway, and a nested
  // ParallelFor issued from a busy pool (every worker occupied by an
  // outer task) would otherwise flood the queue with closures nobody can
  // pop until long after the range is exhausted.
  size_t helpers = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    helpers = std::min({workers_.size(), n - 1, idle_});
    for (size_t i = 0; i < helpers; ++i) {
      // Keep the job alive in the closure: a helper may run after the
      // caller has already returned (it then finds the range exhausted).
      queue_.push_back([job] { job->Drain(); });
    }
  }
  for (size_t i = 0; i < helpers; ++i) cv_.notify_one();
  job->Drain();
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&job] { return job->done.load() == job->n; });
  }
  if (job->error) std::rethrow_exception(job->error);
}

namespace {
std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
std::mutex& GlobalMutex() {
  static std::mutex mu;
  return mu;
}
}  // namespace

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  auto& slot = GlobalSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(EnvThreads());
  return *slot;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  GlobalSlot() = std::make_unique<ThreadPool>(num_threads);
}

}  // namespace rpe
