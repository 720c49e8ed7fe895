// Fixed-size work-stealing-free thread pool with a blocking task queue.
//
// Used by the SUPER-EGO CPU baseline and by host-side preprocessing
// (grid build, workload quantification). Follows the CppCoreGuidelines
// concurrency rules: RAII lifetime (join on destruction), no detached
// threads, exceptions propagated to the waiter via futures.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace gsj {

class ThreadPool {
 public:
  /// Spawns `nthreads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t nthreads = 0);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Worker tag of the calling thread: 0..size-1 inside a pool worker,
  /// -1 on any other thread (main, detached). Used by the observability
  /// layer to attribute trace spans and metric shards to workers.
  [[nodiscard]] static int current_worker() noexcept;

  /// Enqueues a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lk(mu_);
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs `fn(i)` for i in [0, n), chunked across the pool, and blocks
  /// until all chunks finish, even when one throws; then rethrows the
  /// first exception in chunk order. `fn` must be safe to call
  /// concurrently.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs `fn(begin, end)` over contiguous chunks of [0, n), with
  /// parallel_for's wait and rethrow. Lower dispatch overhead than the
  /// per-index overload.
  void parallel_for_chunks(
      std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop(int worker_index);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace gsj
