// Property tests: cell access patterns (§II-C4, §III-B).
//
// Core invariant: for every unordered pair of adjacent cells, the
// unidirectional patterns (UNICOMP, LID-UNICOMP) accept exactly one
// direction; FULL accepts both. This is what guarantees the patterns
// produce the complete, duplicate-free result.
#include <gtest/gtest.h>

#include <vector>

#include "data/dataset.hpp"
#include "grid/cell_access.hpp"
#include "grid/grid_index.hpp"

namespace gsj {
namespace {

/// Dense grid fixture: one point per cell center of a `side^dims` box,
/// epsilon 1, so every cell is non-empty and coordinates == indices.
Dataset dense_grid(int dims, int side) {
  Dataset ds(dims);
  std::vector<double> p(static_cast<std::size_t>(dims), 0.0);
  std::vector<int> idx(static_cast<std::size_t>(dims), 0);
  for (;;) {
    for (int d = 0; d < dims; ++d) {
      p[static_cast<std::size_t>(d)] = idx[static_cast<std::size_t>(d)] + 0.5;
    }
    ds.push_back(p);
    int d = dims - 1;
    while (d >= 0 && ++idx[static_cast<std::size_t>(d)] == side) {
      idx[static_cast<std::size_t>(d)] = 0;
      --d;
    }
    if (d < 0) break;
  }
  return ds;
}

/// Identifier-safe pattern name for parameterized test labels.
std::string pattern_ident(CellPattern p) {
  switch (p) {
    case CellPattern::Full: return "Full";
    case CellPattern::Unicomp: return "Unicomp";
    case CellPattern::LidUnicomp: return "LidUnicomp";
  }
  return "Unknown";
}

class PatternCoverage : public ::testing::TestWithParam<std::tuple<CellPattern, int>> {};

TEST_P(PatternCoverage, EachAdjacentPairCoveredExactlyOnce) {
  const auto [pattern, dims] = GetParam();
  const int side = dims <= 2 ? 6 : (dims == 3 ? 5 : 4);
  const Dataset ds = dense_grid(dims, side);
  const GridIndex g(ds, 1.0);
  ASSERT_EQ(g.cells().size(), ds.size());  // all cells non-empty

  const int expected_per_pair = pattern == CellPattern::Full ? 2 : 1;
  for (std::size_t ci = 0; ci < g.cells().size(); ++ci) {
    const CellCoords oc = g.decode(g.cells()[ci].linear_id);
    const std::uint64_t oid = g.cells()[ci].linear_id;
    g.for_each_adjacent_to(
        oc, [&](std::size_t nidx, const CellCoords& nc, std::uint64_t nid) {
          if (nid == oid) return;  // the origin itself
          const bool fwd = pattern_accepts(pattern, dims, oc, nc, oid, nid);
          const CellCoords oc2 = g.decode(g.cells()[nidx].linear_id);
          const bool bwd = pattern_accepts(pattern, dims, oc2, oc, nid, oid);
          EXPECT_EQ(static_cast<int>(fwd) + static_cast<int>(bwd),
                    expected_per_pair)
              << to_string(pattern) << " dims=" << dims << " oid=" << oid
              << " nid=" << nid;
        });
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatternsAllDims, PatternCoverage,
    ::testing::Combine(::testing::Values(CellPattern::Full,
                                         CellPattern::Unicomp,
                                         CellPattern::LidUnicomp),
                       ::testing::Values(1, 2, 3, 4)),
    [](const auto& param) {
      return pattern_ident(std::get<0>(param.param)) + "_" +
             std::to_string(std::get<1>(param.param)) + "D";
    });

TEST(PatternFanout, Unicomp2DMatchesPaperFigure2) {
  // Figure 2: cells compare to 0 (even,even), 2 (odd x), 6 (odd y) or
  // 8 (odd,odd) neighbors.
  auto fan = [](int x, int y) {
    CellCoords c;
    c[0] = x;
    c[1] = y;
    return pattern_fanout(CellPattern::Unicomp, 2, c);
  };
  EXPECT_EQ(fan(0, 0), 0u);
  EXPECT_EQ(fan(1, 0), 2u);
  EXPECT_EQ(fan(0, 1), 6u);
  EXPECT_EQ(fan(1, 1), 8u);
}

TEST(PatternFanout, LidUnicompIsUniformHalf) {
  // Figure 5: every inner cell compares to (3^n - 1)/2 neighbors.
  for (int dims = 1; dims <= 6; ++dims) {
    std::uint64_t pow3 = 1;
    for (int d = 0; d < dims; ++d) pow3 *= 3;
    for (int parity = 0; parity < 2; ++parity) {
      CellCoords c;
      for (int d = 0; d < dims; ++d) c[d] = 4 + parity;
      EXPECT_EQ(pattern_fanout(CellPattern::LidUnicomp, dims, c),
                (pow3 - 1) / 2);
    }
  }
}

TEST(PatternFanout, FullIsAllNeighbors) {
  CellCoords c;
  EXPECT_EQ(pattern_fanout(CellPattern::Full, 2, c), 8u);
  EXPECT_EQ(pattern_fanout(CellPattern::Full, 6, c), 728u);
}

TEST(PatternFanout, UnicompAveragesHalfOfFull) {
  // Across the 2^n parity classes, UNICOMP's mean fanout equals
  // LID-UNICOMP's uniform fanout — same total work, different balance.
  for (int dims = 1; dims <= 5; ++dims) {
    std::uint64_t sum = 0;
    const int classes = 1 << dims;
    for (int mask = 0; mask < classes; ++mask) {
      CellCoords c;
      for (int d = 0; d < dims; ++d) c[d] = (mask >> d) & 1;
      sum += pattern_fanout(CellPattern::Unicomp, dims, c);
    }
    std::uint64_t pow3 = 1;
    for (int d = 0; d < dims; ++d) pow3 *= 3;
    EXPECT_EQ(sum, static_cast<std::uint64_t>(classes) * (pow3 - 1) / 2);
  }
}

TEST(PatternFanout, UnicompVarianceExceedsLidUnicomp) {
  // The motivation for LID-UNICOMP (§III-B): UNICOMP's per-cell fanout
  // varies with coordinate parity while LID-UNICOMP's does not.
  const int dims = 2;
  std::uint64_t mn = ~0ull, mx = 0;
  for (int mask = 0; mask < 4; ++mask) {
    CellCoords c;
    for (int d = 0; d < dims; ++d) c[d] = (mask >> d) & 1;
    const auto f = pattern_fanout(CellPattern::Unicomp, dims, c);
    mn = std::min(mn, f);
    mx = std::max(mx, f);
  }
  EXPECT_EQ(mn, 0u);
  EXPECT_EQ(mx, 8u);
}

TEST(Pattern, ToString) {
  EXPECT_EQ(to_string(CellPattern::Full), "FULL");
  EXPECT_EQ(to_string(CellPattern::Unicomp), "UNICOMP");
  EXPECT_EQ(to_string(CellPattern::LidUnicomp), "LID-UNICOMP");
  EXPECT_FALSE(is_unidirectional(CellPattern::Full));
  EXPECT_TRUE(is_unidirectional(CellPattern::Unicomp));
  EXPECT_TRUE(is_unidirectional(CellPattern::LidUnicomp));
}

}  // namespace
}  // namespace gsj
