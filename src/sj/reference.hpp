// CPU reference self-joins used as correctness oracles and for host-side
// result-size estimation.
#pragma once

#include <cstdint>
#include <vector>

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

}  // namespace gsj
