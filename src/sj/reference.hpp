// CPU reference self-joins used as correctness oracles and for host-side
// result-size estimation, and the pair collector every parallel CPU
// comparator join runs on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "data/dataset.hpp"
#include "grid/grid_index.hpp"
#include "sj/result_set.hpp"

namespace gsj {

/// O(n^2) brute-force self-join: all ordered pairs (a, b), self pairs
/// included, with dist <= epsilon. Canonicalized. Test-sized inputs only.
[[nodiscard]] ResultSet brute_force_join(const Dataset& ds, double epsilon);

/// Grid-accelerated sequential CPU self-join over an existing index.
/// Same ordered-pair semantics as brute_force_join; canonicalized when
/// `store_pairs`.
[[nodiscard]] ResultSet cpu_grid_join(const GridIndex& grid,
                                      bool store_pairs = true);

/// For each id in `queries` (indexing `points`), the number of the
/// grid's points within epsilon of that point, computed through the
/// grid: the exact ε-neighborhood size (self included) when `points`
/// is grid.dataset(), the R×S count when it is a probe set. This is
/// the batch estimator's probe.
[[nodiscard]] std::vector<std::uint64_t> neighbor_counts(
    const GridIndex& grid, const Dataset& points,
    std::span<const PointId> queries);

/// Multithreaded CPU grid join: the host-side analogue of
/// GPUCALCGLOBAL (one task per cell range, thread-local buffers merged
/// at the end). A second CPU baseline besides SUPER-EGO. `nthreads = 0`
/// uses hardware concurrency.
[[nodiscard]] ResultSet cpu_grid_join_parallel(const GridIndex& grid,
                                               std::size_t nthreads = 0,
                                               bool store_pairs = true);

/// The CPU comparators' one pair collector: runs `fn(begin, end, out)`
/// on `pool` over contiguous chunks of [0, n), 8 per worker. Each chunk
/// emits into its own ResultSet, and the chunks are absorbed in chunk
/// order (then canonicalized when `store_pairs`), so the answer does
/// not depend on the thread count.
template <typename Fn>
[[nodiscard]] ResultSet collect_pairs(ThreadPool& pool, std::size_t n,
                                      bool store_pairs, Fn&& fn) {
  const std::size_t nchunks = std::max<std::size_t>(1, pool.size() * 8);
  const std::size_t chunk = (n + nchunks - 1) / nchunks;
  std::vector<ResultSet> parts(nchunks, ResultSet(store_pairs));
  pool.parallel_for(nchunks, [&](std::size_t t) {
    // Chunk-local, then moved: emitting into parts[t] in place would
    // share cache lines between neighbouring chunks' counters.
    ResultSet local(store_pairs);
    const std::size_t begin = std::min(t * chunk, n);
    fn(begin, std::min(begin + chunk, n), local);
    parts[t] = std::move(local);
  });
  ResultSet rs(store_pairs);
  for (ResultSet& part : parts) rs.absorb(std::move(part));
  if (store_pairs) rs.canonicalize();
  return rs;
}

}  // namespace gsj
