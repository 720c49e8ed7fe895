// Unit tests: epsilon grid index — cell assignment, linear id
// encode/decode, non-empty-cell lookup (find_cell, and the occupancy
// table against it, after repair too), memory accounting, window walks
// against brute-force lookups, the ε-range query against a brute-force
// scan, point ranks, and the adjacency SlotTable against the bounds
// check and pattern_accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
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

/// occupancy(first, n) against find_cell, bit by bit and cell by cell,
/// for n = 1 .. 64 when `all_lengths` and otherwise for the one-id and
/// three-id (row) reads the walks make.
void expect_occupancy_matches(const GridIndex& g, std::uint64_t first,
                              bool all_lengths) {
  const std::uint32_t span = all_lengths ? 64 : 3;
  std::array<std::size_t, 64> idx{};
  for (std::uint32_t i = 0; i < span; ++i) idx[i] = g.find_cell(first + i);
  for (std::uint32_t n = 1; n <= span; ++n) {
    if (!all_lengths && n == 2) continue;
    const GridIndex::Occupancy occ = g.occupancy(first, n);
    std::uint32_t rank = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
      const bool hit = i < n && idx[i] != GridIndex::npos;
      ASSERT_EQ((occ.bits >> i) & 1, hit ? 1u : 0u)
          << "first " << first << ", n " << n << ", bit " << i;
      if (hit) {
        ASSERT_EQ(occ.cell + rank, idx[i])
            << "first " << first << ", n " << n << ", bit " << i;
        ++rank;
      }
    }
  }
}

/// Every read of `g`'s occupancy that a walk can make, against
/// find_cell: one- and three-id reads from every id of the grid and the
/// block past it, reads of every length from block offsets 0 and 61–63,
/// and reads that wrap past id 2^64 − 1 to block 0.
void expect_occupancy_matches_everywhere(const GridIndex& g) {
  std::uint64_t ids = 1;
  for (int d = 0; d < g.dims(); ++d) {
    ids *= static_cast<std::uint64_t>(g.cells_per_dim(d));
  }
  std::vector<std::uint64_t> firsts;
  if (ids <= (std::uint64_t{1} << 20)) {
    for (std::uint64_t id = 0; id < ids + 64; ++id) firsts.push_back(id);
  } else {
    // Too many ids to visit: every id of each non-empty cell's block and
    // of the blocks on either side of it.
    for (const GridCell& c : g.cells()) {
      const std::uint64_t b = c.linear_id / 64;
      for (std::uint64_t id = (b == 0 ? 0 : b - 1) * 64; id < (b + 2) * 64; ++id) {
        firsts.push_back(id);
      }
    }
    std::sort(firsts.begin(), firsts.end());
    firsts.erase(std::unique(firsts.begin(), firsts.end()), firsts.end());
  }
  for (std::uint64_t off = 0; off < 64; ++off) firsts.push_back(-64 + off);
  for (const std::uint64_t first : firsts) {
    const std::uint64_t off = first % 64;
    expect_occupancy_matches(g, first, off == 0 || off >= 61);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(GridIndex, OccupancyMatchesFindCell) {
  // 1-D, about 40% of 1,000 cells non-empty.
  expect_occupancy_matches_everywhere(
      GridIndex(gen_uniform(500, 1, 7, 0.0, 1000.0), 1.0));
  // 20^3 cells, about 30% non-empty.
  expect_occupancy_matches_everywhere(
      GridIndex(gen_uniform(3000, 3, 41, 0.0, 20.0), 1.0));
  // 6 cells per dimension: the sparse-6d shape.
  const Dataset six = box_dataset(std::vector<double>(6, 5.5), 10000, 43);
  const GridIndex g6(six, 1.0);
  ASSERT_EQ(g6.cells_per_dim(0), 6);
  expect_occupancy_matches_everywhere(g6);
  // 8-D, 4 cells per dimension.
  expect_occupancy_matches_everywhere(
      GridIndex(box_dataset(std::vector<double>(8, 3.5), 3000, 47), 1.0));
  // 200 consecutive non-empty ids: every read inside the run crosses
  // full blocks.
  Dataset run(1);
  for (int i = 0; i < 200; ++i) {
    const double x = i + 0.5;
    run.push_back({&x, 1});
  }
  const GridIndex grun(run, 1.0);
  ASSERT_EQ(grun.cells().size(), 200u);
  EXPECT_EQ(grun.occupancy(64, 64).bits, ~std::uint64_t{0});
  EXPECT_EQ(grun.occupancy(61, 64).cell, 61u);
  expect_occupancy_matches_everywhere(grun);
  // 50^6 ≈ 1.6·10^10 ids, a few hundred cells: block numbers past 2^32.
  const Dataset sparse = box_dataset(std::vector<double>(6, 49.5), 300, 53);
  const GridIndex gs(sparse, 1.0);
  ASSERT_GT(gs.cells().back().linear_id, std::uint64_t{1} << 32);
  expect_occupancy_matches_everywhere(gs);
}

TEST(GridIndex, RepairedOccupancyMatchesRebuild) {
  // 1-D, 300 cells (blocks 0..4); the corner points keep the shape.
  Dataset ds(1);
  for (const double x : {0.5, 299.5, 3.5, 4.5, 70.5, 200.5, 201.5, 250.5}) {
    ds.push_back({&x, 1});
  }
  GridIndex g(ds, 1.0);
  // Empty block 3 (ids 192..255) and fill block 2 (128..191).
  const double to[] = {130.5, 140.5, 191.5};
  ds.move_point(5, {&to[0], 1});
  ds.move_point(6, {&to[1], 1});
  ds.erase(7);
  (void)ds.insert({&to[2], 1});
  ASSERT_TRUE(g.repair().repaired);
  const GridIndex fresh(ds, 1.0);
  ASSERT_EQ(g.content_key(), fresh.content_key());
  EXPECT_EQ(g.occupancy(192, 64).bits, 0u);
  EXPECT_NE(g.occupancy(128, 64).bits, 0u);
  for (std::uint64_t id = 0; id < 320; ++id) {
    for (const std::uint32_t n : {1u, 3u, 64u}) {
      const GridIndex::Occupancy a = g.occupancy(id, n);
      const GridIndex::Occupancy b = fresh.occupancy(id, n);
      ASSERT_EQ(a.bits, b.bits) << "id " << id << ", n " << n;
      if (a.bits != 0) {
        ASSERT_EQ(a.cell, b.cell) << "id " << id << ", n " << n;
      }
    }
  }
  expect_occupancy_matches_everywhere(g);

  // Churn windows of moves, erases and inserts on the sparse 6-D
  // shape: every repair's lookups equal a rebuild's.
  Dataset six = box_dataset(std::vector<double>(6, 5.5), 400, 59);
  GridIndex g6(six, 1.0);
  Xoshiro256 rng(61);
  std::vector<double> p(6);
  for (int window = 0; window < 6; ++window) {
    SCOPED_TRACE(window);
    for (int m = 0; m < 40; ++m) {
      // Points 0 and 1 are the box's corners: churn leaves them be.
      const auto victim = static_cast<PointId>(2 + rng.uniform_index(six.size() - 2));
      for (double& x : p) x = rng.uniform(0.0, 5.5);
      switch (rng.uniform_index(3)) {
        case 0: six.move_point(victim, p); break;
        case 1: if (six.size() > 50) six.erase(victim); break;
        default: (void)six.insert(p); break;
      }
    }
    ASSERT_TRUE(g6.repair().repaired);
    const GridIndex rebuilt(six, 1.0);
    ASSERT_EQ(g6.content_key(), rebuilt.content_key());
    EXPECT_EQ(g6.memory_bytes(), rebuilt.memory_bytes());
    for (std::uint64_t id = 0; id < 46656 + 64; ++id) {
      const GridIndex::Occupancy a = g6.occupancy(id, 3);
      const GridIndex::Occupancy b = rebuilt.occupancy(id, 3);
      ASSERT_EQ(a.bits, b.bits) << "id " << id;
      if (a.bits != 0) {
        ASSERT_EQ(a.cell, b.cell) << "id " << id;
      }
    }
  }
}

TEST(GridIndex, MemoryBytesCountsEveryArrayAndTheTable) {
  for (const auto& [ds, eps] :
       {std::pair{gen_uniform(3000, 3, 41, 0.0, 20.0), 1.0},
        std::pair{box_dataset(std::vector<double>(6, 49.5), 300, 53), 1.0},
        std::pair{gen_exponential(5000, 2, 3), 0.01}}) {
    const GridIndex g(ds, eps);
    std::set<std::uint64_t> blocks;
    for (const GridCell& c : g.cells()) blocks.insert(c.linear_id / 64);
    // The table keeps at most half its slots taken: O(non-empty cells).
    const std::size_t table = std::bit_ceil(2 * blocks.size());
    EXPECT_EQ(g.memory_bytes(),
              g.cells().size() * sizeof(GridCell) +
                  ds.size() * (sizeof(PointId) + 2 * sizeof(std::uint32_t)) +
                  table * sizeof(GridIndex::OccupancyBlock));
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
