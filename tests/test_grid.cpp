// Unit tests: epsilon grid index — cell assignment, linear id
// encode/decode, non-empty-cell lookup (find_cell and the forward
// seek_cell), window walks against brute-force lookups, the ε-range
// query against a brute-force scan, point ranks, and the adjacency
// SlotTable against the bounds check and pattern_accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/generators.hpp"
#include "grid/cell_access.hpp"
#include "grid/grid_index.hpp"

namespace gsj {
namespace {

Dataset grid_2d_fixture() {
  // 6 points with epsilon 1. The grid origin is the data min corner
  // (0.5, 0.4), so cell coords below are relative to that corner.
  Dataset ds(2);
  ds.push_back({{0.5, 0.5}});   // cell (0,0)
  ds.push_back({{0.6, 0.4}});   // cell (0,0)
  ds.push_back({{1.5, 0.5}});   // cell (1,0)
  ds.push_back({{0.5, 1.5}});   // cell (0,1)
  ds.push_back({{2.5, 2.5}});   // cell (2,2)
  ds.push_back({{2.7, 2.7}});   // cell (2,2)
  return ds;
}

/// True when `cc` lies inside the grid bounds.
bool in_grid(const GridIndex& g, const CellCoords& cc) {
  for (int d = 0; d < g.dims(); ++d) {
    if (cc[d] < 0 || cc[d] >= g.cells_per_dim(d)) return false;
  }
  return true;
}

TEST(GridIndex, NonEmptyCellsOnly) {
  const Dataset ds = grid_2d_fixture();
  const GridIndex g(ds, 1.0);
  EXPECT_EQ(g.cells().size(), 4u);  // (0,0), (1,0), (0,1), (2,2)
  // Space complexity O(|D|): every point appears exactly once.
  EXPECT_EQ(g.point_ids().size(), ds.size());
  std::set<PointId> seen(g.point_ids().begin(), g.point_ids().end());
  EXPECT_EQ(seen.size(), ds.size());
}

TEST(GridIndex, CellsSortedByLinearId) {
  const Dataset ds = grid_2d_fixture();
  const GridIndex g(ds, 1.0);
  for (std::size_t i = 1; i < g.cells().size(); ++i) {
    EXPECT_LT(g.cells()[i - 1].linear_id, g.cells()[i].linear_id);
  }
}

TEST(GridIndex, EncodeDecodeRoundTrip) {
  const Dataset ds = gen_uniform(2000, 4, 3);
  const GridIndex g(ds, 7.0);
  for (const auto& cell : g.cells()) {
    const CellCoords cc = g.decode(cell.linear_id);
    EXPECT_EQ(g.encode(cc), cell.linear_id);
    EXPECT_TRUE(in_grid(g, cc));
  }
}

TEST(GridIndex, FindCellHitsAndMisses) {
  const Dataset ds = grid_2d_fixture();
  const GridIndex g(ds, 1.0);
  for (std::size_t i = 0; i < g.cells().size(); ++i) {
    EXPECT_EQ(g.find_cell(g.cells()[i].linear_id), i);
  }
  // Cell (1,1) is empty.
  CellCoords empty;
  empty[0] = 1;
  empty[1] = 1;
  EXPECT_EQ(g.find_cell(g.encode(empty)), GridIndex::npos);
}

TEST(GridIndex, PointCellAndRankConsistent) {
  const Dataset ds = gen_exponential(3000, 3, 17);
  const GridIndex g(ds, 0.05);
  for (PointId p = 0; p < ds.size(); ++p) {
    const std::size_t ci = g.cell_of_point(p);
    const auto& cell = g.cells()[ci];
    const std::uint32_t rank = g.grid_rank(p);
    ASSERT_GE(rank, cell.begin);
    ASSERT_LT(rank, cell.end);
    EXPECT_EQ(g.point_ids()[rank], p);
  }
}

TEST(GridIndex, CellPointsBelongToCell) {
  const Dataset ds = gen_uniform(2000, 2, 5);
  const GridIndex g(ds, 10.0);
  for (std::size_t ci = 0; ci < g.cells().size(); ++ci) {
    const CellCoords cc = g.decode(g.cells()[ci].linear_id);
    for (const PointId p : g.cell_points(ci)) {
      const CellCoords pc = g.coords_of_point(p);
      for (int d = 0; d < g.dims(); ++d) EXPECT_EQ(pc[d], cc[d]);
    }
  }
}

TEST(GridIndex, AdjacencyFindsAllNeighbors) {
  const Dataset ds = grid_2d_fixture();
  const GridIndex g(ds, 1.0);
  // Around cell (0,0): non-empty adjacent cells are (1,0) and (0,1);
  // with origin included, also (0,0) itself. (1,1) is empty.
  ASSERT_NE(g.find_cell(0), GridIndex::npos);
  std::set<std::uint64_t> ids;
  g.for_each_adjacent_to(g.decode(0), [&](std::size_t idx, const CellCoords&,
                                          std::uint64_t id) {
    EXPECT_EQ(g.cells()[idx].linear_id, id);
    ids.insert(id);
  });
  EXPECT_EQ(ids, (std::set<std::uint64_t>{0, g.stride(0), g.stride(1)}));
}

TEST(GridIndex, AdjacencyRespectsBounds) {
  // A corner cell must only report in-bounds neighbors; verified by the
  // enumeration not throwing and all coords being valid.
  const Dataset ds = gen_uniform(500, 3, 10);
  const GridIndex g(ds, 25.0);
  for (const GridCell& cell : g.cells()) {
    g.for_each_adjacent_to(
        g.decode(cell.linear_id),
        [&](std::size_t, const CellCoords& cc, std::uint64_t) {
          EXPECT_TRUE(in_grid(g, cc));
        });
  }
}

TEST(GridIndex, AdjacencyVolumeIsPow3) {
  const Dataset ds2 = gen_uniform(100, 2, 1);
  EXPECT_EQ(GridIndex(ds2, 10.0).adjacency_volume(), 9u);
  const Dataset ds6 = gen_uniform(100, 6, 1);
  EXPECT_EQ(GridIndex(ds6, 10.0).adjacency_volume(), 729u);
}

TEST(GridIndex, RejectsBadArguments) {
  const Dataset ds = gen_uniform(10, 2, 1);
  EXPECT_THROW(GridIndex(ds, 0.0), CheckError);
  EXPECT_THROW(GridIndex(ds, -1.0), CheckError);
  const Dataset empty(2);
  EXPECT_THROW(GridIndex(empty, 1.0), CheckError);
}

TEST(GridIndex, TinyEpsilonOverflowGuard) {
  const Dataset ds = gen_uniform(100, 6, 2);
  EXPECT_THROW(GridIndex(ds, 1e-9), CheckError);
}

TEST(GridIndex, BoundaryPointFoldsIntoLastCell) {
  Dataset ds(1);
  ds.push_back({{0.0}});
  ds.push_back({{10.0}});  // exactly max
  const GridIndex g(ds, 2.5);
  // extent 10 / 2.5 = 4 -> 5 cells; max point goes to cell 4.
  EXPECT_EQ(g.cells_per_dim(0), 5);
  EXPECT_EQ(g.coords_of_point(1)[0], 4);
}

/// Uniform points in the box [0, extent[d]] with both corners present,
/// so cells_per_dim(d) is exactly floor(extent[d] / epsilon) + 1.
Dataset box_dataset(const std::vector<double>& extent, std::size_t n,
                    std::uint64_t seed) {
  const int dims = static_cast<int>(extent.size());
  Dataset ds(dims);
  std::vector<double> row(extent.size(), 0.0);
  ds.push_back(row);
  ds.push_back(extent);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < extent.size(); ++d) {
      row[d] = rng.uniform(0.0, extent[d]);
    }
    ds.push_back(row);
  }
  return ds;
}

/// Every cell coordinate vector with coordinate d in
/// [-lo_pad, cells_per_dim(d) - 1 + hi_pad], in lexicographic order:
/// the grid's cells, padded with out-of-grid (probe) coordinates.
std::vector<CellCoords> all_coords(const GridIndex& g, int lo_pad,
                                   int hi_pad) {
  std::vector<CellCoords> out;
  CellCoords cc;
  for (int d = 0; d < g.dims(); ++d) cc[d] = -lo_pad;
  for (;;) {
    out.push_back(cc);
    int d = g.dims() - 1;
    while (d >= 0 && ++cc[d] > g.cells_per_dim(d) - 1 + hi_pad) {
      cc[d] = -lo_pad;
      --d;
    }
    if (d < 0) return out;
  }
}

/// One walk callback: (cell index, the dims() coordinates, linear id).
using Visit = std::tuple<std::size_t, std::vector<std::int32_t>, std::uint64_t>;

Visit visit(const GridIndex& g, std::size_t idx, const CellCoords& cc,
            std::uint64_t id) {
  return {idx, std::vector<std::int32_t>(cc.c.begin(), cc.c.begin() + g.dims()),
          id};
}

TEST(GridIndex, SeekCellMatchesFindCellOnAscendingIds) {
  const Dataset ds = gen_uniform(3000, 3, 41, 0.0, 20.0);
  const GridIndex g(ds, 1.0);  // 20^3 cells, ~30% non-empty
  const auto cells = g.cells();
  const std::uint64_t first = cells.front().linear_id;
  const std::uint64_t last = cells.back().linear_id;
  Xoshiro256 rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    // Ids from below the first cell to above the last, half of them
    // non-empty cells, with repeats.
    std::vector<std::uint64_t> ids;
    const std::size_t len = 1 + rng.uniform_index(300);
    for (std::size_t i = 0; i < len; ++i) {
      if (rng.uniform_index(2) == 0) {
        ids.push_back(cells[rng.uniform_index(cells.size())].linear_id);
      } else {
        ids.push_back(rng.uniform_index(last + 20));
      }
      if (rng.uniform_index(8) == 0) ids.push_back(ids.back());
    }
    if (trial % 4 == 0) ids.push_back(first > 0 ? first - 1 : 0);
    if (trial % 4 == 1) ids.push_back(last + 1 + rng.uniform_index(100));
    std::sort(ids.begin(), ids.end());
    std::uint32_t cursor = 0;
    for (const std::uint64_t id : ids) {
      const std::uint32_t before = cursor;
      EXPECT_EQ(g.seek_cell(cursor, id), g.find_cell(id)) << "id " << id;
      EXPECT_GE(cursor, before) << "cursor moved backwards";
      // The cursor rests on the first cell with an id >= the target.
      ASSERT_LE(cursor, cells.size());
      if (cursor < cells.size()) {
        EXPECT_GE(cells[cursor].linear_id, id);
      }
      if (cursor > 0) {
        EXPECT_LT(cells[cursor - 1].linear_id, id);
      }
    }
  }
  // A cursor already at the end stays there and finds nothing.
  std::uint32_t at_end = static_cast<std::uint32_t>(cells.size());
  EXPECT_EQ(g.seek_cell(at_end, last + 1), GridIndex::npos);
  EXPECT_EQ(g.seek_cell(at_end, last + 1000), GridIndex::npos);
  EXPECT_EQ(at_end, cells.size());
  // Every cell, in order, from one cursor; then the same id again.
  std::uint32_t cursor = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(g.seek_cell(cursor, cells[i].linear_id), i);
    EXPECT_EQ(g.seek_cell(cursor, cells[i].linear_id), i);
  }
}

TEST(GridIndex, AdjacentToVisitsWhatFindCellVisits) {
  // Shapes with one- and two-cell dimensions as well as wider ones.
  for (const std::vector<double>& extent :
       {std::vector<double>{4.5, 3.5, 6.5}, std::vector<double>{0.5, 1.5, 7.5},
        std::vector<double>{2.5, 0.2, 1.2, 3.5}}) {
    const Dataset ds = box_dataset(extent, 60, 47);
    const GridIndex g(ds, 1.0);
    const int n = g.dims();
    // In-grid origins (empty cells included) and banded probe origins.
    for (const CellCoords& oc : all_coords(g, 2, 2)) {
      std::vector<Visit> brute;
      std::uint32_t slots = 1;
      for (int d = 0; d < n; ++d) slots *= 3;
      for (std::uint32_t slot = 0; slot < slots; ++slot) {
        CellCoords nc;
        bool inb = true;
        std::uint32_t rem = slot;
        for (int d = n - 1; d >= 0; --d) {
          nc[d] = oc[d] + static_cast<std::int32_t>(rem % 3) - 1;
          rem /= 3;
          inb = inb && nc[d] >= 0 && nc[d] < g.cells_per_dim(d);
        }
        if (!inb) continue;
        const std::size_t idx = g.find_cell(g.encode(nc));
        if (idx != GridIndex::npos) {
          brute.push_back(visit(g, idx, nc, g.encode(nc)));
        }
      }
      std::vector<Visit> walked;
      g.for_each_adjacent_to(
          oc, [&](std::size_t idx, const CellCoords& nc, std::uint64_t id) {
            walked.push_back(visit(g, idx, nc, id));
          });
      EXPECT_EQ(walked, brute);
    }
  }
}

TEST(GridIndex, WithinVisitsWhatFindCellVisits) {
  const Dataset ds = box_dataset({6.5, 5.5, 4.5}, 120, 53);
  const GridIndex g(ds, 1.0);
  Xoshiro256 rng(59);
  std::vector<double> loc(3);
  for (int shells = 1; shells <= 3; ++shells) {
    for (int trial = 0; trial < 300; ++trial) {
      // Locations from well outside the bounding box to inside it.
      for (std::size_t d = 0; d < 3; ++d) loc[d] = rng.uniform(-5.0, 12.0);
      std::vector<Visit> brute;
      for (const CellCoords& cc : all_coords(g, 0, 0)) {
        bool near = true;
        for (int d = 0; d < 3; ++d) {
          const auto base = static_cast<std::int64_t>(
              std::floor(loc[static_cast<std::size_t>(d)]));
          near = near && std::abs(cc[d] - base) <= shells;
        }
        if (!near) continue;
        const std::size_t idx = g.find_cell(g.encode(cc));
        if (idx != GridIndex::npos) {
          brute.push_back(visit(g, idx, cc, g.encode(cc)));
        }
      }
      std::vector<Visit> walked;
      g.for_each_within(loc, shells, [&](std::size_t idx, const CellCoords& cc,
                                         std::uint64_t id) {
        walked.push_back(visit(g, idx, cc, id));
      });
      EXPECT_EQ(walked, brute) << "shells " << shells << " at (" << loc[0]
                               << ", " << loc[1] << ", " << loc[2] << ")";
    }
  }
}

TEST(GridIndex, InRangeMatchesBruteForce) {
  for (const int dims : {2, 6}) {
    SCOPED_TRACE(dims);
    const Dataset ds = gen_uniform(dims == 2 ? 800 : 2000,
                                   dims, 67, 0.0, 10.0);
    const double cell = dims == 2 ? 1.0 : 3.0;
    const GridIndex g(ds, cell);
    Xoshiro256 rng(71);
    std::vector<double> loc(static_cast<std::size_t>(dims));
    std::size_t hits = 0;
    for (const double ratio : {0.6, 1.0, 2.0, 2.5}) {
      const double eps = ratio * cell;
      for (int trial = 0; trial < 60; ++trial) {
        // Even trials inside the bounding box, odd ones anywhere from
        // well outside it on either side to inside it.
        for (double& x : loc) {
          x = trial % 2 == 0 ? rng.uniform(0.0, 10.0) : rng.uniform(-6.0, 16.0);
        }
        std::vector<std::pair<PointId, double>> brute;
        for (PointId p = 0; p < ds.size(); ++p) {
          double s = 0.0;
          for (int d = 0; d < dims; ++d) {
            const double diff = loc[static_cast<std::size_t>(d)] - ds.coord(p, d);
            s += diff * diff;
          }
          if (s <= eps * eps) brute.emplace_back(p, s);
        }
        std::vector<std::pair<PointId, double>> got;
        g.for_each_in_range(loc, eps, [&](PointId p, double d2) {
          got.emplace_back(p, d2);
        });
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, brute) << "eps " << eps << ", trial " << trial;
        hits += brute.size();
      }
    }
    EXPECT_GT(hits, 0u);
  }
}

TEST(SlotTable, MatchesBoundsCheckAndPatternAccepts) {
  for (const std::vector<double>& extent :
       {std::vector<double>{4.5, 3.5, 5.5},
        std::vector<double>{0.5, 1.5, 6.5}}) {
    const Dataset ds = box_dataset(extent, 40, 61);
    const GridIndex g(ds, 1.0);
    for (const CellPattern pattern :
         {CellPattern::Full, CellPattern::Unicomp, CellPattern::LidUnicomp}) {
      SCOPED_TRACE(to_string(pattern));
      const SlotTable table(g, pattern);
      ASSERT_EQ(table.size(), 27u);
      EXPECT_EQ(table.centre(), 13u);
      // Every in-grid cell, and every banded probe coordinate around
      // the grid (bounds and ids only: R×S ignores the pattern).
      for (const CellCoords& oc : all_coords(g, 2, 2)) {
        const bool inside = in_grid(g, oc);
        const SlotTable::Origin o = table.origin(oc);
        for (std::uint32_t i = 0; i < table.size(); ++i) {
          CellCoords nc;
          std::uint32_t rem = i;
          for (int d = 2; d >= 0; --d) {
            nc[d] = oc[d] + static_cast<std::int32_t>(rem % 3) - 1;
            rem /= 3;
          }
          const bool inb = in_grid(g, nc);
          ASSERT_EQ(SlotTable::in_bounds(table[i], o), inb) << "slot " << i;
          if (!inb) continue;
          EXPECT_EQ(o.id + table[i].delta, g.encode(nc)) << "slot " << i;
          if (inside) {
            EXPECT_EQ(SlotTable::accepts(table[i], o),
                      pattern_accepts(pattern, 3, oc, nc, g.encode(oc),
                                      g.encode(nc)))
                << "slot " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gsj
