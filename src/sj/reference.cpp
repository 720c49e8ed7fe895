#include "sj/reference.hpp"

#include <array>

#include "common/thread_pool.hpp"

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

ResultSet cpu_grid_join(const GridIndex& grid, bool store_pairs) {
  const Dataset& ds = grid.dataset();
  const double eps2 = grid.epsilon() * grid.epsilon();
  ResultSet rs(store_pairs);
  const auto cells = grid.cells();
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const auto origin_pts = grid.cell_points(ci);
    grid.for_each_adjacent_to(
        grid.decode(cells[ci].linear_id),
        [&](std::size_t nidx, const CellCoords&, std::uint64_t) {
          const auto cand = grid.cell_points(nidx);
          for (const PointId q : origin_pts) {
            for (const PointId c : cand) {
              if (ds.dist2(q, c) <= eps2) rs.emit(q, c);
            }
          }
        });
  }
  if (store_pairs) rs.canonicalize();
  return rs;
}

ResultSet cpu_grid_join_parallel(const GridIndex& grid, std::size_t nthreads,
                                 bool store_pairs) {
  const Dataset& ds = grid.dataset();
  const double eps2 = grid.epsilon() * grid.epsilon();
  const auto cells = grid.cells();

  ThreadPool pool(nthreads);
  struct Local {
    std::vector<ResultPair> pairs;
    std::uint64_t count = 0;
  };
  const std::size_t nchunks = std::min<std::size_t>(
      cells.size(), std::max<std::size_t>(1, pool.size() * 8));
  std::vector<Local> locals(nchunks);
  const std::size_t chunk = (cells.size() + nchunks - 1) / nchunks;

  pool.parallel_for(nchunks, [&](std::size_t t) {
    Local& loc = locals[t];
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(begin + chunk, cells.size());
    for (std::size_t ci = begin; ci < end; ++ci) {
      const auto origin_pts = grid.cell_points(ci);
      grid.for_each_adjacent_to(
          grid.decode(cells[ci].linear_id),
          [&](std::size_t nidx, const CellCoords&, std::uint64_t) {
            const auto cand = grid.cell_points(nidx);
            for (const PointId q : origin_pts) {
              for (const PointId c : cand) {
                if (ds.dist2(q, c) <= eps2) {
                  ++loc.count;
                  if (store_pairs) loc.pairs.emplace_back(q, c);
                }
              }
            }
          });
    }
  });

  ResultSet rs(store_pairs);
  for (auto& loc : locals) {
    if (store_pairs) {
      for (const auto& p : loc.pairs) rs.emit(p.first, p.second);
    } else {
      rs.add_count(loc.count);
    }
  }
  if (store_pairs) rs.canonicalize();
  return rs;
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
