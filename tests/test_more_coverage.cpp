// Additional coverage: exactness on hotspot (SW-like) data across
// variant combinations, sparse-grid edge cases, simulator corner
// behaviours, and small utility edges not covered elsewhere.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <tuple>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "data/generators.hpp"
#include "grid/grid_index.hpp"
#include "simt/launch.hpp"
#include "sj/reference.hpp"
#include "sj/selfjoin.hpp"
#include "superego/super_ego.hpp"

namespace gsj {
namespace {

// ---------------------------------------------------------------------------
// Hotspot-data exactness across combinations not in the main sweep.

using ComboCase = std::tuple<int, int, bool>;  // pattern idx, k, work_queue

class HotspotExactness : public ::testing::TestWithParam<ComboCase> {};

TEST_P(HotspotExactness, MatchesBruteForce) {
  const auto& [pat, k, wq] = GetParam();
  const Dataset ds = gen_sw_like(800, /*with_tec=*/true, 123);
  const double eps = 3.0;
  SelfJoinConfig cfg;
  cfg.epsilon = eps;
  cfg.pattern = static_cast<CellPattern>(pat);
  cfg.k = k;
  cfg.work_queue = wq;
  cfg.sort_by_workload = !wq;
  cfg.store_pairs = true;
  cfg.batching.buffer_pairs = 4'000;  // force several batches
  const auto out = self_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, eps);
  EXPECT_EQ(out.results.pairs(), truth.pairs()) << cfg.name();
}

// Name generator lives outside the macro: brace-enclosed initializers
// inside macro arguments are split at their commas by the preprocessor.
std::string combo_case_name(const ::testing::TestParamInfo<ComboCase>& info) {
  static constexpr const char* kPats[] = {"Full", "Unicomp", "LidUnicomp"};
  return std::string(kPats[std::get<0>(info.param)]) + "_k" +
         std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_wq" : "_sorted");
}

INSTANTIATE_TEST_SUITE_P(
    Combos, HotspotExactness,
    ::testing::Combine(::testing::Values(0, 1, 2),        // Full/Uni/Lid
                       ::testing::Values(1, 2, 16),       // k
                       ::testing::Values(false, true)),   // queue
    combo_case_name);

// ---------------------------------------------------------------------------
// Sparse/extreme grids.

TEST(SparseGrid, TwoDistantClusters) {
  // Linear-id space is huge and almost entirely empty; only two small
  // groups of non-empty cells exist.
  Dataset ds(2);
  Xoshiro256 rng(77);
  for (int i = 0; i < 200; ++i) {
    ds.push_back({{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
  }
  for (int i = 0; i < 200; ++i) {
    ds.push_back({{rng.uniform(9000.0, 9001.0), rng.uniform(9000.0, 9001.0)}});
  }
  const double eps = 0.2;
  const GridIndex g(ds, eps);
  EXPECT_LT(g.cells().size(), 100u);  // only non-empty cells materialized
  SelfJoinConfig cfg = SelfJoinConfig::combined(eps);
  cfg.store_pairs = true;
  const auto out = self_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, eps);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
  // No cross-cluster pairs.
  for (const auto& [a, b] : out.results.pairs()) {
    EXPECT_EQ(a < 200, b < 200);
  }
}

TEST(SparseGrid, SevenAndEightDims) {
  for (const int dims : {7, 8}) {
    const Dataset ds = gen_uniform(250, dims, 130 + dims, 0.0, 4.0);
    const double eps = 1.5;
    SelfJoinConfig cfg = SelfJoinConfig::lid_unicomp(eps);
    cfg.store_pairs = true;
    const auto out = self_join(ds, cfg);
    const ResultSet truth = brute_force_join(ds, eps);
    EXPECT_EQ(out.results.pairs(), truth.pairs()) << "dims=" << dims;
  }
}

// ---------------------------------------------------------------------------
// Simulator corners.

struct NoWorkKernel {
  struct LaneState {};
  simt::InitResult init_lane(LaneState&, const simt::LaneCtx&,
                             simt::WarpScratch&) {
    return {false, 1};  // every lane inactive at init
  }
  simt::StepResult step(LaneState&) { return {false, 1}; }
};

TEST(SimtCorners, AllLanesInactiveAtInit) {
  NoWorkKernel k;
  simt::DeviceConfig d;
  d.num_sms = 1;
  d.resident_warps_per_sm = 2;
  const auto st = simt::launch(d, 100, k);
  EXPECT_EQ(st.warp_steps, 0u);
  EXPECT_EQ(st.active_lane_steps, 0u);
  EXPECT_EQ(st.warps_launched, 4u);
  // Init cost (warp launch overhead + per-lane init) still accrues.
  EXPECT_GT(st.makespan_cycles, 0u);
}

struct SingleStepKernel {
  struct LaneState {};
  simt::InitResult init_lane(LaneState&, const simt::LaneCtx&,
                             simt::WarpScratch&) {
    return {true, 0};
  }
  simt::StepResult step(LaneState&) { return {false, 5}; }
};

TEST(SimtCorners, FinalStepCostCounted) {
  SingleStepKernel k;
  simt::DeviceConfig d;
  d.num_sms = 1;
  d.resident_warps_per_sm = 1;
  d.cost_warp_launch = 0;
  const auto st = simt::launch(d, 32, k);
  // One step of cost 5 executed by the whole warp.
  EXPECT_EQ(st.warp_steps, 1u);
  EXPECT_EQ(st.active_lane_steps, 32u);
  EXPECT_EQ(st.makespan_cycles, 5u);
  EXPECT_DOUBLE_EQ(st.warp_execution_efficiency(32), 1.0);
}

// ---------------------------------------------------------------------------
// Utility edges.

TEST(UtilityEdges, CliEmptyEqualsValue) {
  const char* argv[] = {"prog", "--name="};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get("name", "default"), "");
}

TEST(UtilityEdges, CliNegativeNumbers) {
  const char* argv[] = {"prog", "--x", "-3.5"};
  Cli cli(3, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), -3.5);
}

TEST(UtilityEdges, SummarySinglePoint) {
  const std::vector<double> xs{42.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.median, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(UtilityEdges, SuperEgoWithoutReorderOn6D) {
  const Dataset ds = gen_exponential(400, 6, 140);
  SuperEgoConfig cfg;
  cfg.epsilon = 0.06;
  cfg.reorder_dims = false;
  cfg.store_pairs = true;
  const auto out = super_ego_join(ds, cfg);
  const ResultSet truth = brute_force_join(ds, 0.06);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

}  // namespace
}  // namespace gsj
