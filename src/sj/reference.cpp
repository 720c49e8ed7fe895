#include "sj/reference.hpp"

#include <array>

namespace gsj {

ResultSet brute_force_join(const Dataset& ds, double epsilon) {
  ResultSet rs(/*store_pairs=*/true);
  const double eps2 = epsilon * epsilon;
  const auto n = static_cast<PointId>(ds.size());
  for (PointId a = 0; a < n; ++a) {
    for (PointId b = 0; b < n; ++b) {
      if (ds.dist2(a, b) <= eps2) rs.emit(a, b);
    }
  }
  rs.canonicalize();
  return rs;
}

namespace {

// Calls hit(q, c) for every pair within ε whose first point lies in
// cells [begin, end).
template <typename Hit>
void for_each_hit(const GridIndex& grid, std::size_t begin, std::size_t end,
                  Hit&& hit) {
  const Dataset& ds = grid.dataset();
  const double eps2 = grid.epsilon() * grid.epsilon();
  const auto cells = grid.cells();
  for (std::size_t ci = begin; ci < end; ++ci) {
    const auto origin_pts = grid.cell_points(ci);
    grid.for_each_adjacent_to(
        grid.decode(cells[ci].linear_id),
        [&](std::size_t nidx, const CellCoords&, std::uint64_t) {
          const auto cand = grid.cell_points(nidx);
          for (const PointId q : origin_pts) {
            for (const PointId c : cand) {
              if (ds.dist2(q, c) <= eps2) hit(q, c);
            }
          }
        });
  }
}

// Joins cells [begin, end) into `rs`. Count-only hits go to a local counter: a
// per-hit emit() here (a counter in memory and a store-mode test on
// every hit) made the count-only join 12–15% slower.
void join_cells(const GridIndex& grid, std::size_t begin, std::size_t end,
                ResultSet& rs) {
  if (rs.stores_pairs()) {
    for_each_hit(grid, begin, end,
                 [&rs](PointId q, PointId c) { rs.emit(q, c); });
    return;
  }
  std::uint64_t hits = 0;
  for_each_hit(grid, begin, end, [&hits](PointId, PointId) { ++hits; });
  rs.add_count(hits);
}

}  // namespace

ResultSet cpu_grid_join(const GridIndex& grid, bool store_pairs) {
  ResultSet rs(store_pairs);
  join_cells(grid, 0, grid.cells().size(), rs);
  if (store_pairs) rs.canonicalize();
  return rs;
}

ResultSet cpu_grid_join_parallel(const GridIndex& grid, std::size_t nthreads,
                                 bool store_pairs) {
  ThreadPool pool(nthreads);
  return collect_pairs(pool, grid.cells().size(), store_pairs,
                       [&grid](std::size_t begin, std::size_t end,
                               ResultSet& rs) {
                         join_cells(grid, begin, end, rs);
                       });
}

std::vector<std::uint64_t> neighbor_counts(const GridIndex& grid,
                                           const Dataset& points,
                                           std::span<const PointId> queries) {
  const auto dims = static_cast<std::size_t>(grid.dims());
  std::array<double, kMaxDims> qc{};
  std::vector<std::uint64_t> out(queries.size(), 0);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      qc[d] = points.coord(queries[i], static_cast<int>(d));
    }
    std::uint64_t cnt = 0;
    grid.for_each_in_range({qc.data(), dims}, grid.epsilon(),
                           [&cnt](PointId, double) { ++cnt; });
    out[i] = cnt;
  }
  return out;
}

}  // namespace gsj
