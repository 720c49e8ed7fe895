// Integration/property tests: the simulated GPU self-join.
//
// The central property: EVERY kernel variant (pattern x assignment x
// sorting x k x batching) returns exactly the brute-force ordered pair
// set. Plus behavioural properties the paper claims: WEE ordering,
// batching safety, work-queue consumption order.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>

#include "common/check.hpp"
#include "data/generators.hpp"
#include "sj/reference.hpp"
#include "sj/selfjoin.hpp"

namespace gsj {
namespace {

Dataset make_test_data(const std::string& dist, std::size_t n, int dims,
                       std::uint64_t seed) {
  return dist == "expo" ? gen_exponential(n, dims, seed)
                        : gen_uniform(n, dims, seed, 0.0, 10.0);
}

double test_epsilon(const std::string& dist, int dims) {
  // Chosen so points have a handful of neighbors on average.
  return dist == "expo" ? 0.01 * dims : 0.4 * dims;
}

void expect_equals_brute_force(const Dataset& ds, SelfJoinConfig cfg) {
  cfg.store_pairs = true;
  const SelfJoinOutput out = self_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, cfg.epsilon);
  ASSERT_EQ(out.results.count(), truth.count()) << cfg.name();
  EXPECT_EQ(out.results.pairs(), truth.pairs()) << cfg.name();
}

// ---------------------------------------------------------------------------
// Exactness sweep: all variants x distributions x dims.

using VariantCase = std::tuple<std::string, std::string, int>;

class SelfJoinExactness : public ::testing::TestWithParam<VariantCase> {};

SelfJoinConfig config_by_name(const std::string& variant, double eps) {
  if (variant == "gpucalcglobal") return SelfJoinConfig::gpu_calc_global(eps);
  if (variant == "unicomp") return SelfJoinConfig::unicomp(eps);
  if (variant == "lidunicomp") return SelfJoinConfig::lid_unicomp(eps);
  if (variant == "sortbywl") return SelfJoinConfig::sort_by_wl(eps);
  if (variant == "workqueue") return SelfJoinConfig::work_queue_cfg(eps);
  if (variant == "k8") {
    auto c = SelfJoinConfig::gpu_calc_global(eps);
    c.k = 8;
    return c;
  }
  if (variant == "unicomp_k4") {
    auto c = SelfJoinConfig::unicomp(eps);
    c.k = 4;
    return c;
  }
  if (variant == "wq_lid_k8") return SelfJoinConfig::combined(eps);
  if (variant == "wq_unicomp_k2") {
    return SelfJoinConfig::work_queue_cfg(eps, 2, CellPattern::Unicomp);
  }
  GSJ_CHECK_MSG(false, "unknown variant " << variant);
  return {};
}

TEST_P(SelfJoinExactness, MatchesBruteForce) {
  const auto& [variant, dist, dims] = GetParam();
  const Dataset ds = make_test_data(dist, 600, dims, 42 + dims);
  expect_equals_brute_force(
      ds, config_by_name(variant, test_epsilon(dist, dims)));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SelfJoinExactness,
    ::testing::Combine(
        ::testing::Values("gpucalcglobal", "unicomp", "lidunicomp",
                          "sortbywl", "workqueue", "k8", "unicomp_k4",
                          "wq_lid_k8", "wq_unicomp_k2"),
        ::testing::Values("unif", "expo"), ::testing::Values(2, 3, 6)),
    [](const auto& param) {
      return std::get<0>(param.param) + "_" + std::get<1>(param.param) + "_" +
             std::to_string(std::get<2>(param.param)) + "D";
    });

// ---------------------------------------------------------------------------
// Batched exactness: force multiple batches and verify the union.

TEST(SelfJoinBatched, StridedMultiBatchExact) {
  const Dataset ds = gen_uniform(1500, 2, 7, 0.0, 10.0);
  SelfJoinConfig cfg = SelfJoinConfig::gpu_calc_global(1.0);
  cfg.batching.buffer_pairs = 5'000;  // forces several batches
  cfg.store_pairs = true;
  const SelfJoinOutput out = self_join(ds, cfg);
  EXPECT_GT(out.stats.num_batches, 1u);
  const ResultSet truth = brute_force_join(ds, 1.0);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

TEST(SelfJoinBatched, WorkQueueMultiBatchExact) {
  const Dataset ds = gen_exponential(1500, 2, 8);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.02);
  cfg.batching.buffer_pairs = 5'000;
  cfg.store_pairs = true;
  const SelfJoinOutput out = self_join(ds, cfg);
  EXPECT_GT(out.stats.num_batches, 1u);
  const ResultSet truth = brute_force_join(ds, 0.02);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

TEST(SelfJoinBatched, NoBufferOverflow) {
  for (const bool wq : {false, true}) {
    const Dataset ds = gen_exponential(3000, 2, 9);
    SelfJoinConfig cfg = wq ? SelfJoinConfig::work_queue_cfg(0.03)
                            : SelfJoinConfig::gpu_calc_global(0.03);
    cfg.batching.buffer_pairs = 20'000;
    const SelfJoinOutput out = self_join(ds, cfg);
    EXPECT_FALSE(out.stats.buffer_overflowed) << "wq=" << wq;
    EXPECT_LE(out.stats.max_batch_pairs, cfg.batching.buffer_pairs);
  }
}

// ---------------------------------------------------------------------------
// Behavioural properties.

TEST(SelfJoinBehaviour, CountOnlyMatchesStoredCount) {
  const Dataset ds = gen_uniform(800, 3, 10, 0.0, 10.0);
  SelfJoinConfig cfg = SelfJoinConfig::lid_unicomp(1.0);
  cfg.store_pairs = false;
  const auto counted = self_join(ds, cfg);
  cfg.store_pairs = true;
  const auto stored = self_join(ds, cfg);
  EXPECT_EQ(counted.results.count(), stored.results.count());
  EXPECT_TRUE(counted.results.pairs().empty());
}

TEST(SelfJoinBehaviour, UnidirectionalPatternsHalveLaneWork) {
  const Dataset ds = gen_uniform(4000, 2, 11, 0.0, 10.0);
  const auto full = self_join(ds, SelfJoinConfig::gpu_calc_global(0.8));
  const auto lid = self_join(ds, SelfJoinConfig::lid_unicomp(0.8));
  // Same result, roughly half the lane-steps (distance calcs).
  EXPECT_EQ(full.results.count(), lid.results.count());
  EXPECT_LT(static_cast<double>(lid.stats.kernel.active_lane_steps),
            0.7 * static_cast<double>(full.stats.kernel.active_lane_steps));
}

TEST(SelfJoinBehaviour, WorkQueueRaisesWeeOnSkewedData) {
  const Dataset ds = gen_exponential(20000, 2, 12);
  const auto base = self_join(ds, SelfJoinConfig::gpu_calc_global(0.02));
  const auto wq = self_join(ds, SelfJoinConfig::work_queue_cfg(0.02, 8));
  EXPECT_GT(wq.stats.wee_percent(), base.stats.wee_percent());
  EXPECT_LT(wq.stats.kernel_seconds, base.stats.kernel_seconds);
}

TEST(SelfJoinBehaviour, GranularityRaisesWeeOnSkewedData) {
  const Dataset ds = gen_exponential(20000, 2, 13);
  auto cfg1 = SelfJoinConfig::gpu_calc_global(0.02);
  auto cfg8 = cfg1;
  cfg8.k = 8;
  const auto k1 = self_join(ds, cfg1);
  const auto k8 = self_join(ds, cfg8);
  EXPECT_GT(k8.stats.wee_percent(), k1.stats.wee_percent());
}

TEST(SelfJoinBehaviour, WorkQueueUsesAtomicsOncePerGroup) {
  const Dataset ds = gen_uniform(1000, 2, 14, 0.0, 10.0);
  SelfJoinConfig cfg = SelfJoinConfig::work_queue_cfg(0.5, 4);
  const auto out = self_join(ds, cfg);
  // One fetch_add per cooperative group == one per query point.
  EXPECT_EQ(out.stats.kernel.atomics_executed, ds.size());
}

TEST(SelfJoinBehaviour, SelfPairsAlwaysPresent) {
  const Dataset ds = gen_uniform(300, 2, 15, 0.0, 10.0);
  using Maker = SelfJoinConfig (*)(double);
  for (Maker mk : {Maker{&SelfJoinConfig::gpu_calc_global},
                   Maker{&SelfJoinConfig::unicomp},
                   Maker{&SelfJoinConfig::lid_unicomp}}) {
    SelfJoinConfig cfg = mk(0.3);
    cfg.store_pairs = true;
    const auto out = self_join(ds, cfg);
    std::size_t selfpairs = 0;
    for (const auto& [a, b] : out.results.pairs()) selfpairs += a == b;
    EXPECT_EQ(selfpairs, ds.size());
  }
}

TEST(SelfJoinBehaviour, StatsAreCoherent) {
  const Dataset ds = gen_uniform(2000, 3, 16, 0.0, 10.0);
  const auto out = self_join(ds, SelfJoinConfig::gpu_calc_global(0.7));
  EXPECT_EQ(out.stats.result_pairs, out.results.count());
  EXPECT_EQ(out.stats.kernel.results_emitted, out.results.count());
  EXPECT_GT(out.stats.kernel_seconds, 0.0);
  EXPECT_GE(out.stats.total_seconds, out.stats.kernel_seconds);
  EXPECT_GT(out.stats.wee_percent(), 0.0);
  EXPECT_LE(out.stats.wee_percent(), 100.0);
  EXPECT_EQ(out.stats.kernel.launches, out.stats.num_batches);
}

TEST(SelfJoinConfigT, ValidatesArguments) {
  const Dataset ds = gen_uniform(100, 2, 17);
  EXPECT_THROW(self_join(ds, SelfJoinConfig::gpu_calc_global(0.0)),
               CheckError);
  SelfJoinConfig bad_k = SelfJoinConfig::gpu_calc_global(1.0);
  bad_k.k = 5;  // does not divide 32
  EXPECT_THROW(self_join(ds, bad_k), CheckError);
  const Dataset empty(2);
  EXPECT_THROW(self_join(empty, SelfJoinConfig::gpu_calc_global(1.0)),
               CheckError);
}

TEST(SelfJoinConfigT, NamesAreDescriptive) {
  EXPECT_EQ(SelfJoinConfig::gpu_calc_global(1).name(), "GPUCALCGLOBAL");
  EXPECT_EQ(SelfJoinConfig::unicomp(1).name(), "GPUCALCGLOBAL+UNICOMP");
  EXPECT_EQ(SelfJoinConfig::sort_by_wl(1).name(), "SORTBYWL");
  EXPECT_EQ(SelfJoinConfig::combined(1).name(), "WORKQUEUE+LID-UNICOMP+k8");
}

TEST(Reference, ParallelGridJoinAgrees) {
  const Dataset ds = gen_exponential(900, 2, 20);
  const double eps = 0.03;
  const GridIndex g(ds, eps);
  const ResultSet bf = brute_force_join(ds, eps);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ResultSet pj = cpu_grid_join_parallel(g, threads, true);
    EXPECT_EQ(bf.pairs(), pj.pairs()) << "threads=" << threads;
    const ResultSet counted = cpu_grid_join_parallel(g, threads, false);
    EXPECT_EQ(counted.count(), bf.count());
  }
}

TEST(SelfJoinBehaviour, PerBatchStatsAreCoherent) {
  const Dataset ds = gen_exponential(3000, 2, 21);
  SelfJoinConfig cfg = SelfJoinConfig::work_queue_cfg(0.03, 4);
  cfg.batching.buffer_pairs = 30'000;
  const auto out = self_join(ds, cfg);
  ASSERT_EQ(out.stats.batches.size(), out.stats.num_batches);
  std::uint64_t points = 0, pairs = 0;
  for (const auto& b : out.stats.batches) {
    points += b.query_points;
    pairs += b.result_pairs;
    EXPECT_GE(b.kernel_seconds, 0.0);
    EXPECT_GE(b.wee_percent, 0.0);
    EXPECT_LE(b.wee_percent, 100.0);
  }
  EXPECT_EQ(points, ds.size());
  EXPECT_EQ(pairs, out.stats.result_pairs);
}

TEST(Reference, BruteForceAndGridJoinAgree) {
  const Dataset ds = gen_exponential(700, 3, 18);
  const double eps = 0.05;
  const GridIndex g(ds, eps);
  const ResultSet bf = brute_force_join(ds, eps);
  ResultSet gj = cpu_grid_join(g, true);
  EXPECT_EQ(bf.pairs(), gj.pairs());
}

TEST(Reference, NeighborCountsMatchBruteForce) {
  const Dataset ds = gen_uniform(400, 2, 19, 0.0, 10.0);
  const double eps = 0.8;
  const GridIndex g(ds, eps);
  std::vector<PointId> all(ds.size());
  std::iota(all.begin(), all.end(), PointId{0});
  const auto counts = neighbor_counts(g, ds, all);
  const ResultSet bf = brute_force_join(ds, eps);
  std::vector<std::uint64_t> truth(ds.size(), 0);
  for (const auto& [a, b] : bf.pairs()) truth[a]++;
  for (PointId p = 0; p < ds.size(); ++p) EXPECT_EQ(counts[p], truth[p]);
}

}  // namespace
}  // namespace gsj
