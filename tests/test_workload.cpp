// Unit/property tests: workload quantification and SORTBYWL ordering
// (§III-C).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/stats.hpp"
#include "data/generators.hpp"
#include "grid/cell_access.hpp"
#include "grid/workload.hpp"

namespace gsj {
namespace {

TEST(Workload, CellWorkloadCountsCandidates) {
  // Two cells, 3 and 2 points, adjacent; under FULL each cell sees the
  // other plus itself.
  Dataset ds(1);
  for (double x : {0.1, 0.2, 0.3}) ds.push_back({&x, 1});
  for (double x : {1.1, 1.2}) ds.push_back({&x, 1});
  const GridIndex g(ds, 1.0);
  ASSERT_EQ(g.cells().size(), 2u);
  const auto wl = cell_workloads(g, CellPattern::Full);
  EXPECT_EQ(wl[0], 5u);  // 3 own + 2 neighbor
  EXPECT_EQ(wl[1], 5u);  // 2 own + 3 neighbor
}

TEST(Workload, CellWorkloadsMatchBruteForce) {
  // Each cell's own size plus the sizes of the non-empty cells of its
  // 3^n window that pattern_accepts, found by binary search.
  struct Case {
    const char* name;
    Dataset ds;
    double eps;
  };
  const Case cases[] = {
      {"6-D, 6 cells per dimension", gen_uniform(3000, 6, 5, 0.0, 6.0), 1.0},
      {"Expo2D", gen_exponential(4000, 2, 9), 0.01},
      {"1-D", gen_uniform(300, 1, 3, 0.0, 100.0), 1.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const GridIndex g(c.ds, c.eps);
    const int n = g.dims();
    ASSERT_GT(g.cells().size(), 1u);
    for (const CellPattern pattern :
         {CellPattern::Full, CellPattern::Unicomp, CellPattern::LidUnicomp}) {
      SCOPED_TRACE(to_string(pattern));
      const auto wl = cell_workloads(g, pattern);
      ASSERT_EQ(wl.size(), g.cells().size());
      for (std::size_t ci = 0; ci < g.cells().size(); ++ci) {
        const std::uint64_t oid = g.cells()[ci].linear_id;
        const CellCoords oc = g.decode(oid);
        std::uint64_t expect = g.cells()[ci].size();
        const auto slots = static_cast<std::uint32_t>(g.adjacency_volume());
        for (std::uint32_t slot = 0; slot < slots; ++slot) {
          CellCoords nc;
          bool inside = true;
          std::uint32_t rem = slot;
          for (int d = n - 1; d >= 0; --d) {
            nc[d] = oc[d] + static_cast<std::int32_t>(rem % 3) - 1;
            rem /= 3;
            inside = inside && nc[d] >= 0 && nc[d] < g.cells_per_dim(d);
          }
          if (!inside) continue;
          const std::uint64_t nid = g.encode(nc);
          const std::size_t idx = g.find_cell(nid);
          if (nid == oid || idx == GridIndex::npos) continue;
          if (pattern_accepts(pattern, n, oc, nc, oid, nid)) {
            expect += g.cells()[idx].size();
          }
        }
        ASSERT_EQ(wl[ci], expect) << "cell " << ci;
      }
    }
  }
}

TEST(Workload, PointWorkloadMatchesOwningCell) {
  const Dataset ds = gen_exponential(2000, 2, 4);
  const GridIndex g(ds, 0.05);
  const auto cw = cell_workloads(g, CellPattern::LidUnicomp);
  const auto pw = point_workloads(g, CellPattern::LidUnicomp);
  for (PointId p = 0; p < ds.size(); ++p) {
    EXPECT_EQ(pw[p], cw[g.cell_of_point(p)]);
  }
}

TEST(Workload, SortByWorkloadIsNonIncreasing) {
  const Dataset ds = gen_exponential(5000, 2, 6);
  const GridIndex g(ds, 0.05);
  const auto pw = point_workloads(g, CellPattern::Full);
  const auto order = sort_by_workload(g, CellPattern::Full);
  ASSERT_EQ(order.size(), ds.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(pw[order[i - 1]], pw[order[i]]);
  }
  // It must be a permutation.
  auto sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], static_cast<PointId>(i));
  }
}

TEST(Workload, ExponentialDataIsHeavilySkewed) {
  // The premise of §III-C: per-point workloads on exponential data are
  // far more dispersed than on uniform data (relative to their means).
  const Dataset expo = gen_exponential(20000, 2, 9);
  const Dataset unif = gen_uniform(20000, 2, 9);
  const GridIndex ge(expo, 0.005);
  const GridIndex gu(unif, 1.0);
  const auto we = point_workloads(ge, CellPattern::Full);
  const auto wu = point_workloads(gu, CellPattern::Full);
  const double cv_e = summarize(std::span<const std::uint64_t>(we)).cv();
  const double cv_u = summarize(std::span<const std::uint64_t>(wu)).cv();
  EXPECT_GT(cv_e, 2.0 * cv_u);
}

TEST(Workload, TotalEvaluationsHalvedByUnidirectionalPatterns) {
  const Dataset ds = gen_uniform(5000, 2, 14);
  const GridIndex g(ds, 2.0);
  const auto full = total_candidate_evaluations(g, CellPattern::Full);
  const auto uni = total_candidate_evaluations(g, CellPattern::Unicomp);
  const auto lid = total_candidate_evaluations(g, CellPattern::LidUnicomp);
  // "both cell access patterns reduce the number of distance
  // calculations by a factor of roughly two" (§IV-C).
  EXPECT_LT(static_cast<double>(uni), 0.6 * static_cast<double>(full));
  EXPECT_LT(static_cast<double>(lid), 0.6 * static_cast<double>(full));
  EXPECT_GT(static_cast<double>(uni), 0.4 * static_cast<double>(full));
  EXPECT_GT(static_cast<double>(lid), 0.4 * static_cast<double>(full));
}

TEST(Workload, LidUnicompBalancesPerCellWork) {
  // On uniform data the per-cell workload variance under LID-UNICOMP
  // must be well below UNICOMP's (the paper's Figure 2 vs Figure 5).
  const Dataset ds = gen_uniform(20000, 2, 15);
  const GridIndex g(ds, 2.0);
  const auto wu = cell_workloads(g, CellPattern::Unicomp);
  const auto wl = cell_workloads(g, CellPattern::LidUnicomp);
  const auto su = summarize(std::span<const std::uint64_t>(wu));
  const auto sl = summarize(std::span<const std::uint64_t>(wl));
  EXPECT_LT(sl.cv(), 0.7 * su.cv());
}

}  // namespace
}  // namespace gsj
