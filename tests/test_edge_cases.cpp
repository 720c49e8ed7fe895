// Edge-case tests across the stack: degenerate datasets, boundary
// epsilon semantics, extreme configurations, tiny devices.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.hpp"
#include "data/generators.hpp"
#include "sj/reference.hpp"
#include "sj/selfjoin.hpp"
#include "superego/super_ego.hpp"

namespace gsj {
namespace {

TEST(EdgeCases, SinglePointDataset) {
  Dataset ds(4);
  ds.push_back({{1.0, 2.0, 3.0, 4.0}});
  SelfJoinConfig cfg = SelfJoinConfig::gpu_calc_global(1.0);
  cfg.store_pairs = true;
  const auto out = self_join(ds, cfg);
  ASSERT_EQ(out.results.count(), 1u);
  EXPECT_EQ(out.results.pairs()[0], (ResultPair{0, 0}));
}

TEST(EdgeCases, AllPointsIdentical) {
  Dataset ds(2, 100);  // 100 zero points
  for (auto mk : {&SelfJoinConfig::gpu_calc_global, &SelfJoinConfig::unicomp,
                  &SelfJoinConfig::lid_unicomp, &SelfJoinConfig::combined}) {
    SelfJoinConfig cfg = mk(0.5);
    cfg.store_pairs = true;
    const auto out = self_join(ds, cfg);
    EXPECT_EQ(out.results.count(), 100u * 100u) << cfg.name();
  }
}

TEST(EdgeCases, EpsilonLargerThanDomainIsFullCross) {
  const Dataset ds = gen_uniform(200, 3, 31, 0.0, 1.0);
  // sqrt(3) covers the whole unit cube.
  SelfJoinConfig cfg = SelfJoinConfig::combined(2.0);
  const auto out = self_join(ds, cfg);
  EXPECT_EQ(out.results.count(), 200u * 200u);
}

TEST(EdgeCases, PairsAtExactlyEpsilonIncluded) {
  // dist(p, q) <= eps is inclusive (paper's problem statement).
  Dataset ds(1);
  ds.push_back({{0.0}});
  ds.push_back({{1.0}});
  for (auto mk : {&SelfJoinConfig::gpu_calc_global, &SelfJoinConfig::unicomp,
                  &SelfJoinConfig::lid_unicomp}) {
    SelfJoinConfig cfg = mk(1.0);
    cfg.store_pairs = true;
    const auto out = self_join(ds, cfg);
    EXPECT_EQ(out.results.count(), 4u) << cfg.name();
  }
  SuperEgoConfig ecfg;
  ecfg.epsilon = 1.0;
  EXPECT_EQ(super_ego_join(ds, ecfg).stats.result_pairs, 4u);
}

TEST(EdgeCases, PairsJustBeyondEpsilonExcluded) {
  Dataset ds(1);
  ds.push_back({{0.0}});
  ds.push_back({{1.0 + 1e-9}});
  SelfJoinConfig cfg = SelfJoinConfig::gpu_calc_global(1.0);
  const auto out = self_join(ds, cfg);
  EXPECT_EQ(out.results.count(), 2u);  // only the two self pairs
}

TEST(EdgeCases, OneDimensionalData) {
  const Dataset ds = gen_uniform(500, 1, 32, 0.0, 50.0);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.5);
  cfg.store_pairs = true;
  const auto out = self_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, 0.5);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

TEST(EdgeCases, EightDimensionalData) {
  const Dataset ds = gen_uniform(300, 8, 33, 0.0, 5.0);
  SelfJoinConfig cfg = SelfJoinConfig::lid_unicomp(2.0);
  cfg.store_pairs = true;
  const auto out = self_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, 2.0);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

TEST(EdgeCases, NegativeCoordinates) {
  const Dataset ds = gen_uniform(400, 2, 34, -50.0, -10.0);
  SelfJoinConfig cfg = SelfJoinConfig::combined(2.0);
  cfg.store_pairs = true;
  const auto out = self_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, 2.0);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

TEST(EdgeCases, TinyDeviceOneSlot) {
  const Dataset ds = gen_uniform(500, 2, 35, 0.0, 10.0);
  SelfJoinConfig cfg = SelfJoinConfig::work_queue_cfg(0.5, 2);
  cfg.device.num_sms = 1;
  cfg.device.resident_warps_per_sm = 1;
  cfg.store_pairs = true;
  const auto out = self_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, 0.5);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

TEST(EdgeCases, KEqualsWarpSize) {
  const Dataset ds = gen_exponential(600, 2, 36);
  SelfJoinConfig cfg = SelfJoinConfig::work_queue_cfg(0.02, 32);
  cfg.store_pairs = true;
  const auto out = self_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, 0.02);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

TEST(EdgeCases, BatchingDisabledSingleLaunch) {
  const Dataset ds = gen_exponential(2000, 2, 37);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.batching.buffer_pairs = std::numeric_limits<std::uint64_t>::max();
  const auto out = self_join(ds, cfg);
  EXPECT_EQ(out.stats.num_batches, 1u);
  EXPECT_EQ(out.stats.kernel.launches, 1u);
}

TEST(EdgeCases, ResultsInvariantToDispatchWindow) {
  const Dataset ds = gen_exponential(1500, 2, 38);
  std::uint64_t base_count = 0;
  for (const int window : {1, 16, 100000}) {
    SelfJoinConfig cfg = SelfJoinConfig::combined(0.03);
    cfg.device.dispatch_window = window;
    const auto out = self_join(ds, cfg);
    if (base_count == 0) {
      base_count = out.results.count();
    } else {
      EXPECT_EQ(out.results.count(), base_count) << "window " << window;
    }
  }
}

TEST(EdgeCases, ResultsInvariantToSchedulerSeed) {
  const Dataset ds = gen_exponential(1500, 2, 39);
  SelfJoinConfig a = SelfJoinConfig::work_queue_cfg(0.03, 4);
  SelfJoinConfig b = a;
  b.device.scheduler_seed = 0xabcdef;
  a.store_pairs = b.store_pairs = true;
  const auto ra = self_join(ds, a);
  const auto rb = self_join(ds, b);
  EXPECT_EQ(ra.results.pairs(), rb.results.pairs());
}

TEST(EdgeCases, ClusteredPlusOutlierData) {
  // A far outlier must not break grid bounds or patterns.
  Dataset ds = gen_uniform(300, 2, 40, 0.0, 1.0);
  ds.push_back({{5000.0, 5000.0}});
  SelfJoinConfig cfg = SelfJoinConfig::lid_unicomp(0.1);
  cfg.store_pairs = true;
  const auto out = self_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, 0.1);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

TEST(EdgeCases, SuperEgoTinyGrainAndBase) {
  const Dataset ds = gen_uniform(300, 2, 41, 0.0, 10.0);
  SuperEgoConfig cfg;
  cfg.epsilon = 1.0;
  cfg.base_case = 1;
  cfg.parallel_grain = 1;
  cfg.store_pairs = true;
  const auto out = super_ego_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, 1.0);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

TEST(EdgeCases, StatsSelfPairEmissionCostsNothingExtra) {
  // Self pairs are emitted without a distance calculation; the count of
  // emitted results still matches exactly.
  Dataset ds(2, 50);  // all identical
  SelfJoinConfig cfg = SelfJoinConfig::unicomp(1.0);
  const auto out = self_join(ds, cfg);
  EXPECT_EQ(out.stats.kernel.results_emitted, 2500u);
}

}  // namespace
}  // namespace gsj
