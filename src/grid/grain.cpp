#include "grid/grain.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gsj {

std::vector<std::uint64_t> grain_cell_weights(
    const GridIndex& grid, std::span<const std::uint64_t> point_workloads) {
  const std::span<const GridCell> cells = grid.cells();
  const std::span<const PointId> pids = grid.point_ids();
  std::vector<std::uint64_t> weights(cells.size(), 0);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::uint64_t w = 0;
    for (std::uint32_t i = cells[c].begin; i < cells[c].end; ++i) {
      w += point_workloads[pids[i]] + 1;
    }
    weights[c] = w;
  }
  return weights;
}

namespace {

/// The greedy prefix cut behind both partitioners: items [0, n) of
/// weight `weight(i)` accumulate into the current grain until it
/// reaches its ideal cumulative share, then a new grain starts. Returns
/// grains whose [cell_begin, cell_end) is the item range and whose
/// workload is its summed weight; the callers map item ranges to cells
/// or probe ids.
template <typename Weight>
std::vector<WorkGrain> prefix_cut(std::size_t n, std::size_t max_grains,
                                  Weight weight) {
  std::vector<WorkGrain> grains;
  if (n == 0) return grains;
  const std::size_t ngrains = std::min(max_grains, n);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += weight(i);

  grains.reserve(ngrains);
  std::uint64_t consumed = 0;
  std::size_t i = 0;
  for (std::size_t g = 0; g < ngrains && i < n; ++g) {
    WorkGrain grain;
    grain.cell_begin = i;
    // Ideal cumulative share after this grain; the remaining-weight /
    // remaining-grains form keeps late grains from starving when early
    // items are heavy (a huge first cell eats most of the total).
    const std::size_t grains_left = ngrains - g;
    const std::uint64_t target =
        consumed + (total - consumed + grains_left - 1) / grains_left;
    // Every grain takes at least one item; later grains must still get
    // one item each, so this grain may extend at most to
    // n - (grains_left - 1).
    const std::size_t hard_end = n - (grains_left - 1);
    do {
      consumed += weight(i);
      ++i;
    } while (i < hard_end && consumed < target);
    grain.cell_end = i;
    for (std::size_t j = grain.cell_begin; j < grain.cell_end; ++j) {
      grain.workload += weight(j);
    }
    grains.push_back(grain);
  }
  // Tail items left by the hard_end clamp fold into the last grain.
  WorkGrain& last = grains.back();
  for (; i < n; ++i) last.workload += weight(i);
  last.cell_end = n;
  return grains;
}

}  // namespace

std::vector<WorkGrain> partition_grains(
    const GridIndex& grid, std::span<const std::uint64_t> cell_weights,
    std::size_t max_grains) {
  const std::span<const GridCell> cells = grid.cells();
  GSJ_CHECK_MSG(max_grains >= 1, "max_grains must be >= 1");
  GSJ_CHECK_MSG(cell_weights.empty() || cell_weights.size() == cells.size(),
                "cell_weights size " << cell_weights.size()
                                     << " != cell count " << cells.size());
  std::vector<WorkGrain> grains =
      prefix_cut(cells.size(), max_grains, [&](std::size_t c) {
        return cell_weights.empty()
                   ? static_cast<std::uint64_t>(cells[c].size())
                   : cell_weights[c];
      });
  for (WorkGrain& g : grains) {
    g.point_begin = cells[g.cell_begin].begin;
    g.point_end = cells[g.cell_end - 1].end;
  }
  return grains;
}

std::vector<WorkGrain> partition_probe_grains(
    std::size_t n_probe, std::span<const std::uint64_t> point_workloads,
    std::size_t max_grains) {
  GSJ_CHECK_MSG(max_grains >= 1, "max_grains must be >= 1");
  GSJ_CHECK_MSG(point_workloads.empty() || point_workloads.size() == n_probe,
                "point_workloads size " << point_workloads.size()
                                        << " != probe size " << n_probe);
  // Points play the role of cells; the grains carry probe-id bounds.
  std::vector<WorkGrain> grains =
      prefix_cut(n_probe, max_grains, [&](std::size_t p) -> std::uint64_t {
        return point_workloads.empty() ? 1 : point_workloads[p] + 1;
      });
  for (WorkGrain& g : grains) {
    g.point_begin = static_cast<std::uint32_t>(g.cell_begin);
    g.point_end = static_cast<std::uint32_t>(g.cell_end);
    g.cell_begin = g.cell_end = 0;
  }
  return grains;
}

}  // namespace gsj
