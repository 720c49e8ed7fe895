#include "sj/neighbor_table.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"

namespace gsj {

NeighborTable::NeighborTable(const ResultSet& results, std::size_t n) {
  GSJ_CHECK_MSG(results.stores_pairs(),
                "NeighborTable requires a pair-storing ResultSet");
  offsets_.assign(n + 1, 0);
  for (const auto& [a, b] : results.pairs()) {
    GSJ_CHECK(a < n && b < n);
    ++offsets_[a + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets_[i] += offsets_[i - 1];
  flat_.resize(results.pairs().size());
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [a, b] : results.pairs()) flat_[cursor[a]++] = b;
  for (std::size_t p = 0; p < n; ++p) {
    std::sort(flat_.begin() + static_cast<std::ptrdiff_t>(offsets_[p]),
              flat_.begin() + static_cast<std::ptrdiff_t>(offsets_[p + 1]));
  }
}

std::vector<PointId> range_query(const GridIndex& grid, PointId q) {
  GSJ_CHECK(q < grid.dataset().size());
  std::array<double, kMaxDims> at{};
  for (int d = 0; d < grid.dims(); ++d) {
    at[static_cast<std::size_t>(d)] = grid.dataset().coord(q, d);
  }
  return range_query(grid, {at.data(), static_cast<std::size_t>(grid.dims())});
}

std::vector<PointId> range_query(const GridIndex& grid,
                                 std::span<const double> center) {
  GSJ_CHECK(static_cast<int>(center.size()) == grid.dims());
  std::vector<PointId> out;
  grid.for_each_in_range(center, grid.epsilon(),
                         [&out](PointId c, double) { out.push_back(c); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace gsj
