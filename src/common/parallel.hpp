// Deterministic parallel algorithms on top of ThreadPool.
//
// parallel_stable_sort produces *exactly* std::stable_sort's output for
// any comparator: chunks are stable-sorted in parallel, then merged
// pairwise with std::merge (which takes from the left run on ties, so
// stability — and therefore the unique stable order — is preserved).
// Sequential and parallel runs are thus interchangeable wherever
// determinism matters (grid build, SORTBYWL, the work-queue order D').
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace gsj {

/// Runs `fn(begin, end)` over contiguous chunks of [0, n): on `pool`
/// (parallel_for_chunks) when it has more than one worker and n > 1,
/// else inline as fn(0, n).
template <typename Fn>
void for_chunks(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool != nullptr && pool->size() > 1 && n > 1) {
    pool->parallel_for_chunks(n, fn);
  } else {
    fn(std::size_t{0}, n);
  }
}

/// Stable sort of `v` by `comp`, parallelized over `pool`. Falls back
/// to a plain std::stable_sort when `pool` is null, single-worker, or
/// the input is below `min_parallel` elements. Output is bit-identical
/// across all of these paths.
template <typename T, typename Comp>
void parallel_stable_sort(std::vector<T>& v, Comp comp, ThreadPool* pool,
                          std::size_t min_parallel = std::size_t{1} << 14) {
  const std::size_t n = v.size();
  if (pool == nullptr || pool->size() <= 1 || n < min_parallel) {
    std::stable_sort(v.begin(), v.end(), comp);
    return;
  }

  // Power-of-two chunk count ~2x the workers for balance.
  std::size_t nchunks = 1;
  while (nchunks < 2 * pool->size()) nchunks <<= 1;
  const std::size_t len = (n + nchunks - 1) / nchunks;
  auto bound = [&](std::size_t chunk) { return std::min(chunk * len, n); };

  pool->parallel_for(nchunks, [&](std::size_t c) {
    std::stable_sort(v.begin() + static_cast<std::ptrdiff_t>(bound(c)),
                     v.begin() + static_cast<std::ptrdiff_t>(bound(c + 1)),
                     comp);
  });

  std::vector<T> buf(n);
  T* src = v.data();
  T* dst = buf.data();
  for (std::size_t width = 1; width < nchunks; width <<= 1) {
    const std::size_t nmerges = (nchunks + 2 * width - 1) / (2 * width);
    pool->parallel_for(nmerges, [&](std::size_t m) {
      const std::size_t lo = bound(2 * width * m);
      const std::size_t mid = bound(std::min(2 * width * m + width, nchunks));
      const std::size_t hi = bound(std::min(2 * width * (m + 1), nchunks));
      std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo, comp);
    });
    std::swap(src, dst);
  }
  if (src != v.data()) std::copy(src, src + n, v.data());
}

}  // namespace gsj
