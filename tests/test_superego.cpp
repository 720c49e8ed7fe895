// Unit/property tests: SUPER-EGO CPU baseline — exactness against brute
// force across distributions/dims/thread counts, pruning effectiveness,
// config validation.
#include <gtest/gtest.h>

#include <tuple>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/generators.hpp"
#include "sj/reference.hpp"
#include "sj/selfjoin.hpp"
#include "superego/super_ego.hpp"

namespace gsj {
namespace {

using EgoCase = std::tuple<std::string, int, std::size_t>;

class SuperEgoExactness : public ::testing::TestWithParam<EgoCase> {};

TEST_P(SuperEgoExactness, MatchesBruteForce) {
  const auto& [dist, dims, nthreads] = GetParam();
  const Dataset ds = dist == "expo"
                         ? gen_exponential(700, dims, 31 + dims)
                         : gen_uniform(700, dims, 31 + dims, 0.0, 10.0);
  const double eps = dist == "expo" ? 0.01 * dims : 0.4 * dims;
  SuperEgoConfig cfg;
  cfg.epsilon = eps;
  cfg.nthreads = nthreads;
  cfg.store_pairs = true;
  cfg.base_case = 16;
  cfg.parallel_grain = 100;
  const SuperEgoOutput out = super_ego_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, eps);
  ASSERT_EQ(out.results.count(), truth.count());
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SuperEgoExactness,
    ::testing::Combine(::testing::Values("unif", "expo"),
                       ::testing::Values(2, 3, 6),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& param) {
      return std::get<0>(param.param) + "_" +
             std::to_string(std::get<1>(param.param)) + "D_t" +
             std::to_string(std::get<2>(param.param));
    });

TEST(SuperEgo, DimensionReorderingPreservesResult) {
  // Anisotropic data: one long dimension, one short.
  Dataset ds(2);
  Xoshiro256 rng(77);
  for (int i = 0; i < 500; ++i) {
    ds.push_back({{rng.uniform(0.0, 100.0), rng.uniform(0.0, 1.0)}});
  }
  for (const bool reorder : {false, true}) {
    SuperEgoConfig cfg;
    cfg.epsilon = 0.5;
    cfg.reorder_dims = reorder;
    cfg.store_pairs = true;
    const auto out = super_ego_join(ds, cfg);
    const ResultSet truth = brute_force_join(ds, 0.5);
    EXPECT_EQ(out.results.pairs(), truth.pairs()) << "reorder=" << reorder;
  }
}

TEST(SuperEgo, PruningCutsDistanceCalcs) {
  const Dataset ds = gen_uniform(4000, 2, 55, 0.0, 100.0);
  SuperEgoConfig cfg;
  cfg.epsilon = 1.0;
  cfg.base_case = 16;
  cfg.parallel_grain = 1024;
  const auto out = super_ego_join(ds, cfg);
  // Without pruning: n^2 = 16e6 evaluations. EGO must cut >90%.
  EXPECT_LT(out.stats.distance_calcs, 1'600'000u);
  EXPECT_GT(out.stats.pruned_pairs, 0u);
}

TEST(SuperEgo, CountOnlyModeMatches) {
  const Dataset ds = gen_exponential(900, 2, 56);
  SuperEgoConfig cfg;
  cfg.epsilon = 0.02;
  cfg.store_pairs = false;
  const auto counted = super_ego_join(ds, cfg);
  cfg.store_pairs = true;
  const auto stored = super_ego_join(ds, cfg);
  EXPECT_EQ(counted.results.count(), stored.results.count());
  EXPECT_EQ(counted.stats.result_pairs, stored.stats.result_pairs);
}

TEST(SuperEgo, SingletonDataset) {
  Dataset ds(3);
  ds.push_back({{1.0, 2.0, 3.0}});
  SuperEgoConfig cfg;
  cfg.epsilon = 1.0;
  cfg.store_pairs = true;
  const auto out = super_ego_join(ds, cfg);
  ASSERT_EQ(out.results.count(), 1u);  // just the self pair
  EXPECT_EQ(out.results.pairs()[0], (ResultPair{0, 0}));
}

TEST(SuperEgo, DuplicatePointsAllPaired) {
  Dataset ds(2);
  for (int i = 0; i < 5; ++i) ds.push_back({{1.0, 1.0}});
  SuperEgoConfig cfg;
  cfg.epsilon = 0.1;
  cfg.store_pairs = true;
  const auto out = super_ego_join(ds, cfg);
  EXPECT_EQ(out.results.count(), 25u);  // complete 5x5 block
}

TEST(SuperEgo, ValidatesConfig) {
  const Dataset ds = gen_uniform(10, 2, 1);
  SuperEgoConfig cfg;
  cfg.epsilon = 0.0;
  EXPECT_THROW(super_ego_join(ds, cfg), CheckError);
  cfg.epsilon = 1.0;
  cfg.base_case = 128;
  cfg.parallel_grain = 64;  // grain < base_case
  EXPECT_THROW(super_ego_join(ds, cfg), CheckError);
  const Dataset empty(2);
  SuperEgoConfig ok;
  EXPECT_THROW(super_ego_join(empty, ok), CheckError);
}

TEST(SuperEgo, AgreesWithGpuJoinCount) {
  // Cross-system integration: CPU baseline and simulated GPU join agree.
  const Dataset ds = gen_sw_like(3000, true, 58);
  const double eps = 2.0;
  SuperEgoConfig ecfg;
  ecfg.epsilon = eps;
  const auto ego = super_ego_join(ds, ecfg);
  const auto gpu = self_join(ds, SelfJoinConfig::combined(eps));
  EXPECT_EQ(ego.results.count(), gpu.results.count());
}

}  // namespace
}  // namespace gsj
