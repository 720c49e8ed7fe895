// Unit tests of the SelfJoinKernel at the simulator interface level:
// lane initialization, cooperative-group broadcast, step costs, and the
// interaction between patterns and the k-split.
#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "data/generators.hpp"
#include "sj/kernels.hpp"

namespace gsj {
namespace {

struct Fixture {
  Dataset ds;
  GridIndex grid;
  simt::DeviceConfig device;
  ResultSet results{true};
  std::vector<PointId> ids;
  std::vector<double> columns;

  explicit Fixture(std::size_t n = 200, double eps = 0.6)
      : ds(gen_uniform(n, 2, 61, 0.0, 5.0)),
        grid(ds, eps),
        columns(scan_columns(grid)) {
    ids.resize(n);
    std::iota(ids.begin(), ids.end(), PointId{0});
  }

  KernelParams params(CellPattern pattern, Assignment assign, int k) {
    KernelParams p;
    p.grid = &grid;
    p.pattern = pattern;
    p.assignment = assign;
    p.k = k;
    p.points = ids;
    p.device = &device;
    p.results = &results;
    p.columns = columns;
    return p;
  }
};

TEST(Kernel, ValidatesParams) {
  Fixture fx;
  KernelParams p = fx.params(CellPattern::Full, Assignment::Static, 1);
  p.grid = nullptr;
  EXPECT_THROW(SelfJoinKernel{p}, CheckError);
  p = fx.params(CellPattern::Full, Assignment::Static, 3);  // 3 !| 32
  EXPECT_THROW(SelfJoinKernel{p}, CheckError);
  // A 2-D launch reads its candidates from the run's scan columns: x
  // then y, 2·n doubles.
  p = fx.params(CellPattern::Full, Assignment::Static, 1);
  ASSERT_EQ(p.columns.size(), 2 * fx.ds.size());
  p.columns = {};
  EXPECT_THROW(SelfJoinKernel{p}, CheckError);
  p.columns = std::span<const double>(fx.columns).first(2 * fx.ds.size() - 1);
  EXPECT_THROW(SelfJoinKernel{p}, CheckError);
}

TEST(Kernel, StaticInitBindsStridedPoints) {
  Fixture fx;
  SelfJoinKernel k(fx.params(CellPattern::Full, Assignment::Static, 1));
  SelfJoinKernel::LaneState s;
  simt::WarpScratch scratch{};
  for (const std::uint64_t tid : {0ull, 5ull, 31ull, 63ull}) {
    simt::LaneCtx ctx{tid, static_cast<int>(tid % 32), tid / 32};
    const auto r = k.init_lane(s, ctx, scratch);
    EXPECT_TRUE(r.active);
    EXPECT_EQ(s.q, fx.ids[tid]);
    EXPECT_EQ(s.group_rank, 0u);
  }
}

TEST(Kernel, StaticInitWithKSplitsGroups) {
  Fixture fx;
  SelfJoinKernel k(fx.params(CellPattern::Full, Assignment::Static, 4));
  SelfJoinKernel::LaneState s;
  simt::WarpScratch scratch{};
  for (int lane = 0; lane < 8; ++lane) {
    simt::LaneCtx ctx{static_cast<std::uint64_t>(lane), lane, 0};
    (void)k.init_lane(s, ctx, scratch);
    EXPECT_EQ(s.q, fx.ids[static_cast<std::size_t>(lane / 4)]);
    EXPECT_EQ(s.group_rank, static_cast<std::uint32_t>(lane % 4));
  }
}

TEST(Kernel, WorkQueueLeaderGrabsAndBroadcasts) {
  Fixture fx;
  SelfJoinKernel k(fx.params(CellPattern::Full, Assignment::WorkQueue, 8));
  SelfJoinKernel::LaneState s;
  simt::WarpScratch scratch{};
  // Lanes initialize in order; leaders are lanes 0, 8, 16, 24.
  std::vector<PointId> bound;
  for (int lane = 0; lane < 32; ++lane) {
    simt::LaneCtx ctx{static_cast<std::uint64_t>(lane), lane, 0};
    const auto r = k.init_lane(s, ctx, scratch);
    EXPECT_TRUE(r.active);
    bound.push_back(s.q);
    // Leader init must cost more (the atomic).
    if (lane % 8 == 0) {
      EXPECT_GT(r.cost, fx.device.cost_atomic);
    }
  }
  // Groups of 8 lanes share one queue index from the kernel's own
  // counter, which starts at 0 in every launch: 0, 1, 2, 3.
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(bound[lane], fx.ids[lane / 8]);
  }
  EXPECT_EQ(k.atomics_executed(), 4u);
}

TEST(Kernel, LaneRunsToCompletionAndCountsEmits) {
  Fixture fx(100, 1.0);
  SelfJoinKernel k(fx.params(CellPattern::Full, Assignment::Static, 1));
  SelfJoinKernel::LaneState s;
  simt::WarpScratch scratch{};
  simt::LaneCtx ctx{0, 0, 0};
  (void)k.init_lane(s, ctx, scratch);
  std::uint64_t steps = 0;
  while (true) {
    const auto r = k.step(s);
    ++steps;
    ASSERT_LT(steps, 100000u) << "lane did not terminate";
    if (!r.active) break;
  }
  // The lane emitted exactly point 0's neighbor pairs.
  std::uint64_t expected = 0;
  for (PointId c = 0; c < fx.ds.size(); ++c) {
    expected += fx.ds.dist2(0, c) <= 1.0;
  }
  EXPECT_EQ(k.results_emitted(), expected);
  EXPECT_EQ(fx.results.count(), expected);
}

TEST(Kernel, KLanesPartitionCandidatesExactly) {
  Fixture fx(150, 1.0);
  const int kk = 4;
  SelfJoinKernel k(fx.params(CellPattern::LidUnicomp, Assignment::Static, kk));
  simt::WarpScratch scratch{};
  // Run the 4 lanes of point 0's group to completion.
  for (int lane = 0; lane < kk; ++lane) {
    SelfJoinKernel::LaneState s;
    simt::LaneCtx ctx{static_cast<std::uint64_t>(lane), lane, 0};
    (void)k.init_lane(s, ctx, scratch);
    while (k.step(s).active) {
    }
  }
  // Together they emitted exactly the unidirectional share of point 0:
  // both orders of every pair {0, c} whose canonical evaluator is 0,
  // plus the self pair. Cross-check against a k=1 run.
  const std::uint64_t with_k = k.results_emitted();
  Fixture fy(150, 1.0);
  SelfJoinKernel k1(fy.params(CellPattern::LidUnicomp, Assignment::Static, 1));
  SelfJoinKernel::LaneState s1;
  simt::LaneCtx ctx1{0, 0, 0};
  (void)k1.init_lane(s1, ctx1, scratch);
  while (k1.step(s1).active) {
  }
  EXPECT_EQ(with_k, k1.results_emitted());
}

TEST(Kernel, StepCostsComeFromDeviceTable) {
  Fixture fx(50, 1.0);
  fx.device.cost_dist_base = 100;
  fx.device.cost_dist_per_dim = 10;
  SelfJoinKernel k(fx.params(CellPattern::Full, Assignment::Static, 1));
  SelfJoinKernel::LaneState s;
  simt::WarpScratch scratch{};
  simt::LaneCtx ctx{0, 0, 0};
  (void)k.init_lane(s, ctx, scratch);
  // Walk until the first scanning step and check its cost.
  bool saw_scan_cost = false;
  for (int i = 0; i < 1000; ++i) {
    const auto r = k.step(s);
    if (r.cost >= 120) {  // 100 + 2 dims * 10
      saw_scan_cost = true;
      break;
    }
    if (!r.active) break;
  }
  EXPECT_TRUE(saw_scan_cost);
}

}  // namespace
}  // namespace gsj
