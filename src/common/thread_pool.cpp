#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace gsj {

namespace {
thread_local int t_worker_index = -1;
}  // namespace

int ThreadPool::current_worker() noexcept { return t_worker_index; }

ThreadPool::ThreadPool(std::size_t nthreads) {
  if (nthreads == 0) {
    nthreads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<int>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int worker_index) {
  t_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  // Over-decompose 4x for dynamic balance; each chunk at least 1 element.
  const std::size_t nchunks = std::min(n, size() * 4);
  const std::size_t chunk = (n + nchunks - 1) / nchunks;
  std::vector<std::future<void>> futs;
  futs.reserve(nchunks);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, n);
    futs.push_back(submit([&fn, begin, end] { fn(begin, end); }));
  }
  // Every chunk must finish before `fn` (in the caller's frame) goes out
  // of scope: wait on all of them, then rethrow the first exception in
  // chunk order.
  std::exception_ptr first;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace gsj
