#include "grid/workload.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"

namespace gsj {

namespace {

/// Points of the non-empty cells `slots` accepts around cell `cell_idx`,
/// the cell itself excluded: the adjacent part of its workload.
std::uint64_t accepted_neighbor_points(const GridIndex& grid,
                                       const SlotTable& slots,
                                       std::size_t cell_idx) {
  const auto cells = grid.cells();
  const SlotTable::Origin o =
      slots.origin(grid.decode(cells[cell_idx].linear_id));
  std::array<std::uint64_t, SlotTable::kMaxWords> accepted;
  for (std::uint32_t w = 0; w < slots.words(); ++w) {
    accepted[w] = slots.accepted(o, w) & ~slots.centre_bit(w);
  }
  // A row of three slots (three consecutive ids) per occupancy read.
  std::uint64_t total = 0;
  for (std::uint32_t i = slots.next_in(accepted.data(), 0); i < slots.size();
       i = slots.next_in(accepted.data(), i - i % 3 + 3)) {
    const std::uint32_t row = i - i % 3;
    const GridIndex::Occupancy occ = grid.occupancy(o.id + slots[row].delta, 3);
    const std::uint64_t m = mask_run(accepted.data(), row, 3);
    std::size_t ci = occ.cell;
    for (std::uint64_t b = occ.bits; b != 0; b &= b - 1, ++ci) {
      if (((m >> std::countr_zero(b)) & 1) != 0) total += cells[ci].size();
    }
  }
  return total;
}

/// Workload of the single cell `cell_idx` (an index into grid.cells()):
/// its own size plus its accepted neighbors'.
std::uint64_t cell_workload_at(const GridIndex& grid, const SlotTable& slots,
                               std::size_t cell_idx) {
  return grid.cells()[cell_idx].size() +
         accepted_neighbor_points(grid, slots, cell_idx);
}

}  // namespace

std::vector<std::uint64_t> cell_workloads(const GridIndex& grid,
                                          CellPattern pattern,
                                          ThreadPool* pool) {
  const auto cells = grid.cells();
  const SlotTable slots(grid, pattern);
  std::vector<std::uint64_t> wl(cells.size(), 0);
  const auto quantify = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t ci = lo; ci < hi; ++ci) {
      wl[ci] = cell_workload_at(grid, slots, ci);
    }
  };
  for_chunks(pool, cells.size(), quantify);
  return wl;
}

std::vector<std::uint64_t> point_workloads(const GridIndex& grid,
                                           CellPattern pattern,
                                           ThreadPool* pool) {
  const auto cw = cell_workloads(grid, pattern, pool);
  std::vector<std::uint64_t> pw(grid.dataset().size());
  const auto scatter = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t p = lo; p < hi; ++p) {
      pw[p] = cw[grid.cell_of_point(static_cast<PointId>(p))];
    }
  };
  for_chunks(pool, pw.size(), scatter);
  return pw;
}

std::vector<std::uint64_t> probe_point_workloads(const GridIndex& grid,
                                                 const Dataset& probe,
                                                 ThreadPool* pool) {
  GSJ_CHECK(probe.dims() == grid.dims());
  const auto cells = grid.cells();
  std::vector<std::uint64_t> pw(probe.size(), 0);
  const auto quantify = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t q = lo; q < hi; ++q) {
      CellCoords oc;
      for (int d = 0; d < grid.dims(); ++d) {
        oc[d] = grid.probe_cell_coord(probe.coord(q, d), d);
      }
      std::uint64_t w = 0;
      grid.for_each_adjacent_to(
          oc, [&](std::size_t nidx, const CellCoords&, std::uint64_t) {
            w += cells[nidx].size();
          });
      pw[q] = w;
    }
  };
  for_chunks(pool, pw.size(), quantify);
  return pw;
}

std::vector<PointId> sort_by_workload(const GridIndex& grid,
                                      CellPattern pattern, ThreadPool* pool) {
  const auto pw = point_workloads(grid, pattern, pool);
  std::vector<PointId> order(pw.size());
  std::iota(order.begin(), order.end(), PointId{0});
  parallel_stable_sort(
      order, [&pw](PointId a, PointId b) { return pw[a] > pw[b]; }, pool);
  return order;
}

WorkloadPatchResult patch_workloads(const GridIndex& grid,
                                    CellPattern pattern,
                                    std::span<const std::uint64_t> dirty_cell_ids,
                                    std::span<const std::uint64_t> old_point_workloads,
                                    std::span<const PointId> old_order) {
  const auto cells = grid.cells();
  const std::size_t n = grid.dataset().size();
  WorkloadPatchResult out;

  // Cells whose workload can have changed: the dirty cells plus one
  // adjacency shell (a dirty cell's size feeds its neighbors' sums).
  std::vector<std::uint8_t> cell_affected(cells.size(), 0);
  for (const std::uint64_t id : dirty_cell_ids) {
    grid.for_each_adjacent_to(
        grid.decode(id),
        [&](std::size_t nidx, const CellCoords&, std::uint64_t) {
          cell_affected[nidx] = 1;
        });
  }

  // Per-cell workloads: re-quantify the affected, recover the rest
  // from the old per-point table via any member (an unaffected cell's
  // membership — and every member's id — is unchanged).
  const SlotTable slots(grid, pattern);
  std::vector<std::uint64_t> cw(cells.size());
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    if (cell_affected[ci] != 0) {
      cw[ci] = cell_workload_at(grid, slots, ci);
      ++out.recomputed_cells;
    } else {
      cw[ci] = old_point_workloads[grid.cell_points(ci).front()];
    }
  }

  out.point_workloads.resize(n);
  std::vector<std::uint8_t> point_affected(n, 0);
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    for (const PointId p : grid.cell_points(ci)) {
      out.point_workloads[p] = cw[ci];
      if (cell_affected[ci] != 0) point_affected[p] = 1;
    }
  }

  if (!old_order.empty()) {
    const auto& pw = out.point_workloads;
    // sort_by_workload's order is the strict total order
    // (workload desc, id asc) — stable sort over ascending ids. Both
    // runs below are sorted under it, so the merge reproduces the
    // from-scratch sort exactly.
    const auto before = [&pw](PointId a, PointId b) {
      return pw[a] != pw[b] ? pw[a] > pw[b] : a < b;
    };
    std::vector<PointId> changed;
    for (std::size_t p = 0; p < n; ++p) {
      if (point_affected[p] != 0) changed.push_back(static_cast<PointId>(p));
    }
    std::sort(changed.begin(), changed.end(), before);
    std::vector<PointId> keep;
    keep.reserve(n - changed.size());
    for (const PointId p : old_order) {
      // Entries naming ids that shrank away or whose point/workload
      // changed are re-inserted from `changed`; an id can only appear
      // here with a stale identity if its cell is dirty, which marks
      // it affected.
      if (p < n && point_affected[p] == 0) keep.push_back(p);
    }
    GSJ_CHECK(keep.size() + changed.size() == n);
    out.order.resize(n);
    std::merge(keep.begin(), keep.end(), changed.begin(), changed.end(),
               out.order.begin(), before);
  }
  return out;
}

std::uint64_t total_candidate_evaluations(const GridIndex& grid,
                                          CellPattern pattern) {
  const auto cells = grid.cells();
  const SlotTable slots(grid, pattern);
  std::uint64_t total = 0;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const std::uint64_t sz = cells[ci].size();
    // Own cell: FULL compares every point to every point (self
    // included); unidirectional patterns compare each unordered pair
    // once.
    total += pattern == CellPattern::Full ? sz * sz : sz * (sz - 1) / 2;
    total += sz * accepted_neighbor_points(grid, slots, ci);
  }
  return total;
}

}  // namespace gsj
