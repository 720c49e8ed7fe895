// Unit/property tests: the related-work baselines (k-d tree and
// Morton-curve joins) — structural invariants and exactness against
// brute force.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baselines/kdtree.hpp"
#include "baselines/morton.hpp"
#include "baselines/rtree.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/generators.hpp"
#include "sj/reference.hpp"

namespace gsj {
namespace {

// ---------------------------------------------------------------------------
// k-d tree.

TEST(KdTree, BalancedDepth) {
  const Dataset ds = gen_uniform(4096, 2, 71, 0.0, 100.0);
  const KdTree tree(ds, /*leaf_size=*/16);
  // 4096/16 = 256 leaves -> depth ~ 9; allow slack for uneven splits.
  EXPECT_LE(tree.depth(), 14u);
  EXPECT_GE(tree.depth(), 8u);
}

TEST(KdTree, RangeQueryMatchesBruteForce) {
  const Dataset ds = gen_exponential(1200, 3, 72);
  const double eps = 0.05;
  const KdTree tree(ds);
  const ResultSet truth = brute_force_join(ds, eps);
  std::vector<std::vector<PointId>> want(ds.size());
  for (const auto& [a, b] : truth.pairs()) want[a].push_back(b);
  Xoshiro256 rng(1);
  for (int i = 0; i < 60; ++i) {
    const auto q = static_cast<PointId>(rng.uniform_index(ds.size()));
    EXPECT_EQ(tree.range_query(q, eps), want[q]) << "q=" << q;
  }
}

TEST(KdTree, ArbitraryCenterQuery) {
  const Dataset ds = gen_uniform(800, 2, 73, 0.0, 10.0);
  const KdTree tree(ds);
  const double center[] = {5.0, 5.0};
  const auto got = tree.range_query(center, 1.0);
  std::vector<PointId> want;
  for (PointId p = 0; p < ds.size(); ++p) {
    const double dx = ds.coord(p, 0) - 5.0;
    const double dy = ds.coord(p, 1) - 5.0;
    if (dx * dx + dy * dy <= 1.0) want.push_back(p);
  }
  EXPECT_EQ(got, want);
}

TEST(KdTree, PruningBeatsLinearScan) {
  const Dataset ds = gen_uniform(20000, 2, 74, 0.0, 100.0);
  const KdTree tree(ds);
  (void)tree.range_query(PointId{0}, 1.0);
  // One query must touch far fewer than all points.
  EXPECT_LT(tree.distance_calcs(), 2000u);
}

TEST(KdTree, Validates) {
  const Dataset empty(2);
  EXPECT_THROW(KdTree{empty}, CheckError);
  const Dataset ds = gen_uniform(10, 2, 75);
  const KdTree tree(ds);
  EXPECT_THROW((void)tree.range_query(PointId{0}, 0.0), CheckError);
}

class KdJoinExactness
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(KdJoinExactness, MatchesBruteForce) {
  const auto& [dist, dims] = GetParam();
  const Dataset ds = dist == "expo"
                         ? gen_exponential(700, dims, 76 + dims)
                         : gen_uniform(700, dims, 76 + dims, 0.0, 10.0);
  const double eps = dist == "expo" ? 0.01 * dims : 0.4 * dims;
  const auto out = kdtree_self_join(ds, eps, /*nthreads=*/2,
                                    /*store_pairs=*/true, /*leaf_size=*/8);
  const ResultSet truth = brute_force_join(ds, eps);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
  EXPECT_EQ(out.stats.result_pairs, truth.count());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdJoinExactness,
    ::testing::Combine(::testing::Values("unif", "expo"),
                       ::testing::Values(2, 3, 5)),
    [](const auto& param) {
      return std::get<0>(param.param) + "_" +
             std::to_string(std::get<1>(param.param)) + "D";
    });

// ---------------------------------------------------------------------------
// R-tree.

TEST(RTree, StructureIsPackedAndShallow) {
  const Dataset ds = gen_uniform(4096, 2, 95, 0.0, 100.0);
  const RTree tree(ds, /*node_capacity=*/16);
  // 256 leaves + 16 internals + root = 273 nodes, height 3.
  EXPECT_EQ(tree.height(), 3u);
  EXPECT_EQ(tree.node_count(), 256u + 16u + 1u);
}

TEST(RTree, RangeQueryMatchesBruteForce) {
  const Dataset ds = gen_exponential(1200, 3, 96);
  const double eps = 0.05;
  const RTree tree(ds);
  const ResultSet truth = brute_force_join(ds, eps);
  std::vector<std::vector<PointId>> want(ds.size());
  for (const auto& [a, b] : truth.pairs()) want[a].push_back(b);
  Xoshiro256 rng(2);
  for (int i = 0; i < 60; ++i) {
    const auto q = static_cast<PointId>(rng.uniform_index(ds.size()));
    EXPECT_EQ(tree.range_query(q, eps), want[q]) << "q=" << q;
  }
}

TEST(RTree, PruningBeatsLinearScan) {
  const Dataset ds = gen_uniform(20000, 2, 97, 0.0, 100.0);
  const RTree tree(ds);
  (void)tree.range_query(PointId{0}, 1.0);
  EXPECT_LT(tree.distance_calcs(), 2000u);
}

TEST(RTree, PruningDegradesWithDimensionality) {
  // The curse-of-dimensionality effect the paper's §II-B1 describes: at
  // fixed selectivity (query ball of constant relative volume), the
  // distance evaluations *per delivered result* grow with dims because
  // bounding boxes overlap the ball ever more loosely.
  double prev_ratio = 0.0;
  for (const int dims : {2, 4, 6}) {
    const Dataset ds = gen_uniform(8000, dims, 98, 0.0, 10.0);
    const RTree tree(ds);
    // eps chosen so (eps/10)^dims is constant: ~1% of the unit volume.
    const double eps = 10.0 * std::pow(0.01, 1.0 / dims);
    std::uint64_t results = 0;
    for (PointId q = 0; q < 50; ++q) {
      results += tree.range_query(q, eps).size();
    }
    ASSERT_GT(results, 0u);
    const double ratio = static_cast<double>(tree.distance_calcs()) /
                         static_cast<double>(results);
    EXPECT_GT(ratio, prev_ratio) << "dims=" << dims;
    prev_ratio = ratio;
  }
}

TEST(RTree, Validates) {
  const Dataset empty(2);
  EXPECT_THROW(RTree{empty}, CheckError);
}

class RtJoinExactness
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(RtJoinExactness, MatchesBruteForce) {
  const auto& [dist, dims] = GetParam();
  const Dataset ds = dist == "expo"
                         ? gen_exponential(700, dims, 99 + dims)
                         : gen_uniform(700, dims, 99 + dims, 0.0, 10.0);
  const double eps = dist == "expo" ? 0.01 * dims : 0.4 * dims;
  const auto out = rtree_self_join(ds, eps, /*nthreads=*/2,
                                   /*store_pairs=*/true, /*node_capacity=*/8);
  const ResultSet truth = brute_force_join(ds, eps);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtJoinExactness,
    ::testing::Combine(::testing::Values("unif", "expo"),
                       ::testing::Values(2, 3, 5)),
    [](const auto& param) {
      return std::get<0>(param.param) + "_" +
             std::to_string(std::get<1>(param.param)) + "D";
    });

// ---------------------------------------------------------------------------
// Morton curve.

TEST(Morton, EncodeDecodeRoundTrip) {
  Xoshiro256 rng(81);
  for (int dims = 1; dims <= 6; ++dims) {
    const int bits = 64 / dims >= 10 ? 10 : 64 / dims;
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::uint32_t> cells(static_cast<std::size_t>(dims));
      for (auto& c : cells) {
        c = static_cast<std::uint32_t>(
            rng.uniform_index(std::uint64_t{1} << bits));
      }
      const std::uint64_t code = morton_encode(cells, bits);
      EXPECT_EQ(morton_decode(code, dims, bits), cells);
    }
  }
}

TEST(Morton, CodeOrderIsZOrderIn2D) {
  // The 2x2 block order of a Z curve: (0,0) (1,0) (0,1) (1,1).
  auto code = [](std::uint32_t x, std::uint32_t y) {
    const std::uint32_t c[] = {x, y};
    return morton_encode(c, 4);
  };
  EXPECT_LT(code(0, 0), code(1, 0));
  EXPECT_LT(code(1, 0), code(0, 1));
  EXPECT_LT(code(0, 1), code(1, 1));
  EXPECT_LT(code(1, 1), code(2, 0));  // next block
}

TEST(Morton, EncodeValidatesWidth) {
  const std::uint32_t c[] = {1, 1, 1, 1, 1, 1, 1};
  EXPECT_THROW((void)morton_encode(c, 10), CheckError);  // 7*10 > 64
}

class MortonJoinExactness
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MortonJoinExactness, MatchesBruteForce) {
  const auto& [dist, dims] = GetParam();
  const Dataset ds = dist == "expo"
                         ? gen_exponential(700, dims, 86 + dims)
                         : gen_uniform(700, dims, 86 + dims, 0.0, 10.0);
  const double eps = dist == "expo" ? 0.01 * dims : 0.4 * dims;
  const auto out =
      morton_self_join(ds, eps, /*nthreads=*/2, /*store_pairs=*/true);
  const ResultSet truth = brute_force_join(ds, eps);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MortonJoinExactness,
    ::testing::Combine(::testing::Values("unif", "expo"),
                       ::testing::Values(2, 3, 5)),
    [](const auto& param) {
      return std::get<0>(param.param) + "_" +
             std::to_string(std::get<1>(param.param)) + "D";
    });

TEST(MortonJoin, CountOnlyMatchesStored) {
  const Dataset ds = gen_uniform(900, 2, 90, 0.0, 10.0);
  const auto counted = morton_self_join(ds, 0.5, 1, false);
  const auto stored = morton_self_join(ds, 0.5, 1, true);
  EXPECT_EQ(counted.results.count(), stored.results.count());
  EXPECT_GT(counted.stats.distance_calcs, 0u);
}

TEST(MortonJoin, RejectsMoreCellsThanItsCodeHolds) {
  // 2^32 + 1 ε-cells in one dimension: the last point's cell index does
  // not fit the 32-bit cell coordinate. Wrapped to cell 0, it lost its
  // pair with the middle point (0.75ε away): 3 pairs, not the 5 of
  // brute_force_join.
  const double eps = 1e-3;
  Dataset ds(1);
  ds.push_back({{0.0}});
  ds.push_back({{(4294967296.0 - 0.5) * eps}});
  ds.push_back({{(4294967296.0 + 0.25) * eps}});
  ASSERT_EQ(brute_force_join(ds, eps).count(), 5u);
  EXPECT_THROW((void)morton_self_join(ds, eps, 1, true), CheckError);
}

TEST(MortonJoin, AgreesWithKdTreeAndGrid) {
  const Dataset ds = gen_sw_like(2000, true, 91);
  const double eps = 2.0;
  const auto morton = morton_self_join(ds, eps, 2, false);
  const auto kd = kdtree_self_join(ds, eps, 2, false);
  const GridIndex grid(ds, eps);
  const ResultSet gj = cpu_grid_join(grid, false);
  EXPECT_EQ(morton.results.count(), kd.results.count());
  EXPECT_EQ(morton.results.count(), gj.count());
}

}  // namespace
}  // namespace gsj
