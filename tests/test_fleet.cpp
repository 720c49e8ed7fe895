// Multi-device fleet tests (docs/SIMULATOR.md §fleet): grain
// partitioning invariants, the KernelStats merge compositions, the
// config validators, fleet-vs-single-device bit-identity, the
// adaptive-vs-static rebalancer comparison, the fleet observability
// surfaces (stats, sj.fleet.* / svc.fleet.* metrics, snapshot rows),
// golden modeled stats, and overflow recovery and cancellation on a
// fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "grid/grain.hpp"
#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "simt/fleet.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"
#include "support/oracle.hpp"

namespace gsj {
namespace {

using testsupport::all_variants;
using testsupport::make_adversarial_case;

/// A skewed-cluster dataset: a few dense piles on a sparse background —
/// the load shape §IV's variants (and the fleet's rebalancer) target.
Dataset make_skewed_clusters(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Dataset ds(2);
  const double centers[][2] = {{0.1, 0.1}, {0.12, 0.11}, {0.85, 0.2}};
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.7) {
      const auto& c = centers[rng.uniform_index(3)];
      p[0] = c[0] + rng.uniform(-0.02, 0.02);
      p[1] = c[1] + rng.uniform(-0.02, 0.02);
    } else {
      p[0] = rng.uniform(0.0, 1.0);
      p[1] = rng.uniform(0.0, 1.0);
    }
    ds.push_back(p);
  }
  return ds;
}

SelfJoinConfig fleet_cfg(const SelfJoinConfig& base, int devices,
                         bool adaptive = true) {
  SelfJoinConfig cfg = base;
  cfg.fleet.num_devices = devices;
  cfg.fleet.adaptive = adaptive;
  return cfg;
}

/// A heterogeneous 4-device fleet: a big/fast device down to a small/
/// slow one (SM count and clock both vary).
void make_hetero4(SelfJoinConfig& cfg) {
  cfg.fleet.num_devices = 4;
  cfg.fleet.devices.assign(4, cfg.device);
  const int sms[] = {56, 28, 14, 7};
  const double ghz[] = {1.3, 1.0, 0.8, 0.6};
  for (int d = 0; d < 4; ++d) {
    cfg.fleet.devices[static_cast<std::size_t>(d)].num_sms = sms[d];
    cfg.fleet.devices[static_cast<std::size_t>(d)].clock_ghz = ghz[d];
  }
}

// ---------------------------------------------------------------------------
// Grain partitioning (grid/grain.hpp).

TEST(Grain, PartitionCoversEveryCellExactlyOnce) {
  const Dataset ds = make_skewed_clusters(1500, 11);
  const GridIndex grid(ds, 0.03, nullptr);
  const std::vector<std::uint64_t> pw =
      point_workloads(grid, CellPattern::Full, nullptr);
  const std::vector<std::uint64_t> weights = grain_cell_weights(grid, pw);
  for (const std::size_t max_grains : {1u, 2u, 3u, 5u, 8u, 64u, 100000u}) {
    for (const bool weighted : {false, true}) {
      const auto grains = partition_grains(
          grid, weighted ? std::span<const std::uint64_t>(weights)
                         : std::span<const std::uint64_t>{},
          max_grains);
      ASSERT_FALSE(grains.empty());
      EXPECT_LE(grains.size(), std::min(max_grains, grid.cells().size()));
      // Contiguous cover of the cell array, grain point ranges matching
      // the underlying cell ranges, workloads summing to the total.
      std::size_t cell_cursor = 0;
      std::uint64_t total_weight = 0;
      for (const WorkGrain& g : grains) {
        EXPECT_EQ(g.cell_begin, cell_cursor);
        ASSERT_GT(g.cell_end, g.cell_begin);  // never an empty grain
        EXPECT_EQ(g.point_begin, grid.cells()[g.cell_begin].begin);
        EXPECT_EQ(g.point_end, grid.cells()[g.cell_end - 1].end);
        cell_cursor = g.cell_end;
        total_weight += g.workload;
      }
      EXPECT_EQ(cell_cursor, grid.cells().size());
      const std::uint64_t want =
          weighted ? std::accumulate(weights.begin(), weights.end(),
                                     std::uint64_t{0})
                   : grid.point_ids().size();
      EXPECT_EQ(total_weight, want);
    }
  }
}

TEST(Grain, CellWeightsAreWorkloadPlusOnePerPoint) {
  const Dataset ds = make_skewed_clusters(400, 3);
  const GridIndex grid(ds, 0.05, nullptr);
  const std::vector<std::uint64_t> pw =
      point_workloads(grid, CellPattern::Full, nullptr);
  const std::vector<std::uint64_t> weights = grain_cell_weights(grid, pw);
  ASSERT_EQ(weights.size(), grid.cells().size());
  for (std::size_t c = 0; c < grid.cells().size(); ++c) {
    std::uint64_t want = 0;
    for (const PointId p : grid.cell_points(c)) want += pw[p] + 1;
    EXPECT_EQ(weights[c], want) << "cell " << c;
  }
}

TEST(Grain, SingleHugeCellBecomesItsOwnGrain) {
  // One pile of duplicates (one cell with ~all the weight) plus a few
  // scattered points: the pile must not drag neighbours into its grain.
  Dataset ds(2);
  const double pile[] = {0.5, 0.5};
  for (int i = 0; i < 200; ++i) ds.push_back(pile);
  std::vector<double> p(2);
  for (int i = 0; i < 8; ++i) {
    p[0] = 10.0 + i;
    p[1] = 10.0;
    ds.push_back(p);
  }
  const GridIndex grid(ds, 0.1, nullptr);
  const std::vector<std::uint64_t> pw =
      point_workloads(grid, CellPattern::Full, nullptr);
  const std::vector<std::uint64_t> weights = grain_cell_weights(grid, pw);
  const auto grains = partition_grains(grid, weights, 4);
  // The pile's cell is the heaviest grain; it holds exactly one cell.
  const auto heaviest = std::max_element(
      grains.begin(), grains.end(),
      [](const WorkGrain& a, const WorkGrain& b) {
        return a.workload < b.workload;
      });
  EXPECT_EQ(heaviest->cells(), 1u);
  EXPECT_EQ(heaviest->points(), 200u);
}

// ---------------------------------------------------------------------------
// KernelStats composition: sequential merge sums makespans (batches on
// one device queue behind each other); merge_concurrent takes the max
// (devices overlap in time) while summing every throughput counter.

TEST(Fleet, MergeVsMergeConcurrentPinned) {
  simt::KernelStats a;
  a.launches = 2;
  a.warps_launched = 10;
  a.warp_steps = 100;
  a.active_lane_steps = 3100;
  a.busy_cycles = 900;
  a.makespan_cycles = 120;
  a.tail_idle_cycles = 30;
  a.atomics_executed = 7;
  a.results_emitted = 40;
  simt::KernelStats b;
  b.launches = 1;
  b.warps_launched = 4;
  b.warp_steps = 50;
  b.active_lane_steps = 1500;
  b.busy_cycles = 500;
  b.makespan_cycles = 200;
  b.tail_idle_cycles = 10;
  b.atomics_executed = 3;
  b.results_emitted = 25;

  simt::KernelStats seq = a;
  seq.merge(b);
  EXPECT_EQ(seq.makespan_cycles, 320u);  // queued: 120 + 200

  simt::KernelStats con = a;
  con.merge_concurrent(b);
  EXPECT_EQ(con.makespan_cycles, 200u);  // overlapped: max(120, 200)

  // Every other field sums identically under both compositions.
  EXPECT_EQ(con.launches, seq.launches);
  EXPECT_EQ(con.warps_launched, seq.warps_launched);
  EXPECT_EQ(con.warp_steps, seq.warp_steps);
  EXPECT_EQ(con.active_lane_steps, seq.active_lane_steps);
  EXPECT_EQ(con.busy_cycles, seq.busy_cycles);
  EXPECT_EQ(con.tail_idle_cycles, seq.tail_idle_cycles);
  EXPECT_EQ(con.atomics_executed, seq.atomics_executed);
  EXPECT_EQ(con.results_emitted, seq.results_emitted);
  EXPECT_EQ(seq.busy_cycles, 1400u);
  EXPECT_EQ(seq.launches, 3u);
}

// ---------------------------------------------------------------------------
// Config validators.

TEST(Fleet, DeviceConfigValidateRejectsEdgeCases) {
  simt::DeviceConfig ok;
  EXPECT_NO_THROW(ok.validate());

  simt::DeviceConfig d = ok;
  d.warp_size = 0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.warp_size = 33;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.num_sms = 0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.resident_warps_per_sm = 0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.issue_width = 0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.dispatch_window = 0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.clock_ghz = 0.0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.clock_ghz = -1.0;
  EXPECT_THROW(d.validate(), CheckError);
  d = ok;
  d.clock_ghz = std::numeric_limits<double>::infinity();
  EXPECT_THROW(d.validate(), CheckError);
}

TEST(Fleet, LaunchEntryValidatesDeviceConfig) {
  // The validator runs at launch entry, so a malformed device config
  // fails any join up front — not deep inside the simulator.
  Dataset ds(2);
  const double p[] = {0.0, 0.0};
  ds.push_back(p);
  SelfJoinConfig cfg = SelfJoinConfig::gpu_calc_global(0.1);
  cfg.device.clock_ghz = 0.0;
  EXPECT_THROW((void)self_join(ds, cfg), CheckError);
}

TEST(Fleet, FleetConfigValidateRejectsEdgeCases) {
  const simt::DeviceConfig base;
  simt::FleetConfig fc;
  EXPECT_NO_THROW(fc.validate(base));
  EXPECT_FALSE(fc.active());

  fc.num_devices = 0;
  EXPECT_THROW(fc.validate(base), CheckError);
  fc.num_devices = 2;
  fc.grains_per_device = 0;
  EXPECT_THROW(fc.validate(base), CheckError);
  fc.grains_per_device = 8;
  EXPECT_NO_THROW(fc.validate(base));
  EXPECT_TRUE(fc.active());

  // Override count must match num_devices.
  fc.devices.assign(3, base);
  EXPECT_THROW(fc.validate(base), CheckError);
  fc.devices.assign(2, base);
  EXPECT_NO_THROW(fc.validate(base));

  // Heterogeneity never extends to warp shape.
  fc.devices[1].warp_size = 16;
  EXPECT_THROW(fc.validate(base), CheckError);
  fc.devices[1].warp_size = base.warp_size;
  fc.devices[1].num_sms = 0;  // overrides are validated too
  EXPECT_THROW(fc.validate(base), CheckError);
}

TEST(Fleet, ResolveCopiesHostKnobsFromBase) {
  simt::DeviceConfig base;
  base.host.num_threads = 3;
  simt::FleetConfig fc;
  fc.num_devices = 2;
  fc.devices.assign(2, simt::DeviceConfig{});
  fc.devices[1].num_sms = 7;
  fc.devices[0].host.num_threads = 99;  // must be ignored
  const auto resolved = fc.resolve(base);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].host.num_threads, 3);
  EXPECT_EQ(resolved[1].host.num_threads, 3);
  EXPECT_EQ(resolved[1].num_sms, 7);

  fc.devices.clear();  // homogeneous: copies of base
  const auto homo = fc.resolve(base);
  ASSERT_EQ(homo.size(), 2u);
  EXPECT_EQ(homo[0].num_sms, base.num_sms);
}

// ---------------------------------------------------------------------------
// Bit-identity: every variant, homogeneous and heterogeneous fleets,
// against the single-device run and the brute-force oracle.

void fleet_matches_single(int devices, bool hetero, bool adaptive) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto c = make_adversarial_case(seed);
    for (auto& [name, base] : all_variants(c.epsilon)) {
      base.store_pairs = true;
      const SelfJoinOutput single = self_join(c.dataset, base);
      SelfJoinConfig cfg = fleet_cfg(base, devices, adaptive);
      if (hetero) make_hetero4(cfg);
      const SelfJoinOutput out = self_join(c.dataset, cfg);
      ASSERT_EQ(out.results.pairs(), single.results.pairs())
          << name << " devices=" << devices << " " << c.describe();
      EXPECT_EQ(out.stats.result_pairs, single.stats.result_pairs)
          << name << " " << c.describe();
      EXPECT_TRUE(out.stats.fleet.ran()) << name;
      EXPECT_EQ(out.stats.fleet.devices.size(),
                static_cast<std::size_t>(devices))
          << name;
    }
  }
}

TEST(Fleet, TwoDevicesBitIdenticalToSingle) {
  fleet_matches_single(2, /*hetero=*/false, /*adaptive=*/true);
}

TEST(Fleet, FourDevicesBitIdenticalToSingle) {
  fleet_matches_single(4, /*hetero=*/false, /*adaptive=*/true);
}

TEST(Fleet, HeterogeneousFourDevicesBitIdenticalToSingle) {
  fleet_matches_single(4, /*hetero=*/true, /*adaptive=*/true);
}

TEST(Fleet, StaticShardingBitIdenticalToSingle) {
  fleet_matches_single(4, /*hetero=*/false, /*adaptive=*/false);
}

TEST(Fleet, CountOnlyModeMatchesStoredPairs) {
  const auto c = make_adversarial_case(9);
  SelfJoinConfig cfg = fleet_cfg(SelfJoinConfig::combined(c.epsilon), 4);
  cfg.store_pairs = true;
  const std::uint64_t want = self_join(c.dataset, cfg).stats.result_pairs;
  cfg.store_pairs = false;
  const SelfJoinOutput counted = self_join(c.dataset, cfg);
  EXPECT_EQ(counted.stats.result_pairs, want);
  EXPECT_EQ(counted.results.count(), want);
  EXPECT_FALSE(counted.results.stores_pairs());
}

TEST(Fleet, DeterministicAcrossRuns) {
  const Dataset ds = make_skewed_clusters(800, 5);
  SelfJoinConfig cfg = fleet_cfg(SelfJoinConfig::combined(0.04), 4);
  make_hetero4(cfg);
  cfg.store_pairs = true;
  const SelfJoinOutput a = self_join(ds, cfg);
  const SelfJoinOutput b = self_join(ds, cfg);
  EXPECT_EQ(a.results.pairs(), b.results.pairs());
  EXPECT_EQ(a.stats.fleet.makespan_seconds, b.stats.fleet.makespan_seconds);
  EXPECT_EQ(a.stats.fleet.rebalances, b.stats.fleet.rebalances);
  EXPECT_EQ(a.stats.kernel.busy_cycles, b.stats.kernel.busy_cycles);
}

// ---------------------------------------------------------------------------
// Fleet stats coherence and the adaptive-vs-static comparison.

TEST(Fleet, StatsAreInternallyConsistent) {
  const Dataset ds = make_skewed_clusters(2000, 7);
  SelfJoinConfig cfg = fleet_cfg(SelfJoinConfig::combined(0.03), 4);
  const SelfJoinOutput out = self_join(ds, cfg);
  const simt::FleetStats& fs = out.stats.fleet;
  ASSERT_TRUE(fs.ran());
  ASSERT_EQ(fs.devices.size(), 4u);

  double max_busy = 0.0, sum_busy = 0.0, sum_tail = 0.0;
  std::uint64_t grains = 0;
  for (const simt::DeviceLoad& d : fs.devices) {
    max_busy = std::max(max_busy, d.busy_seconds);
    sum_busy += d.busy_seconds;
    sum_tail += d.tail_idle_seconds;
    grains += d.grains;
    EXPECT_NEAR(d.tail_idle_seconds, fs.makespan_seconds - d.busy_seconds,
                1e-12);
  }
  EXPECT_DOUBLE_EQ(fs.makespan_seconds, max_busy);
  EXPECT_NEAR(fs.tail_idle_seconds, sum_tail, 1e-12);
  EXPECT_EQ(grains, fs.num_grains);
  EXPECT_GT(fs.num_grains, 4u);  // adaptive: grains_per_device * devices
  const double mean = sum_busy / 4.0;
  EXPECT_NEAR(fs.imbalance, fs.makespan_seconds / mean, 1e-9);
  EXPECT_GE(fs.imbalance, 1.0);
  // The fleet's kernel seconds are the makespan, not the busy sum.
  EXPECT_DOUBLE_EQ(out.stats.kernel_seconds, fs.makespan_seconds);
  EXPECT_LE(out.stats.kernel_seconds, sum_busy);
  // Slot vectors are device-level now; empty by design on fleet runs.
  EXPECT_TRUE(out.stats.slots.empty());
}

TEST(Fleet, AdaptiveBeatsStaticOnHeterogeneousSkew) {
  // The acceptance benchmark: a skewed-cluster dataset on a
  // heterogeneous 4-device fleet. Static uniform sharding ignores both
  // the data skew and the device speeds; the LPT + measured-rate
  // rebalancer must win on makespan imbalance (and not lose makespan —
  // true once the dataset is large enough that per-launch overheads
  // stop dominating, ~6k points on this shape).
  const Dataset ds = make_skewed_clusters(10000, 13);
  SelfJoinConfig base = SelfJoinConfig::combined(0.03);

  SelfJoinConfig adaptive = base;
  make_hetero4(adaptive);
  SelfJoinConfig static_cfg = adaptive;
  static_cfg.fleet.adaptive = false;

  const SelfJoinOutput a = self_join(ds, adaptive);
  const SelfJoinOutput s = self_join(ds, static_cfg);
  ASSERT_TRUE(a.stats.fleet.ran());
  ASSERT_TRUE(s.stats.fleet.ran());
  EXPECT_EQ(a.stats.result_pairs, s.stats.result_pairs);
  EXPECT_GT(a.stats.fleet.rebalances, 0u);
  EXPECT_EQ(s.stats.fleet.rebalances, 0u);
  EXPECT_LT(a.stats.fleet.imbalance, s.stats.fleet.imbalance);
  EXPECT_LE(a.stats.fleet.makespan_seconds, s.stats.fleet.makespan_seconds);
}

// ---------------------------------------------------------------------------
// Observability: sj.fleet.* metrics, service accounting and snapshot.

TEST(Fleet, MetricsExported) {
  const Dataset ds = make_skewed_clusters(600, 17);
  obs::Registry reg;
  SelfJoinConfig cfg = fleet_cfg(SelfJoinConfig::work_queue_cfg(0.05), 2);
  cfg.metrics = &reg;
  const SelfJoinOutput out = self_join(ds, cfg);
  EXPECT_EQ(reg.gauge("sj.fleet.devices").value(), 2.0);
  EXPECT_EQ(reg.counter("sj.fleet.grains").value(),
            out.stats.fleet.num_grains);
  EXPECT_EQ(reg.counter("sj.fleet.rebalances").value(),
            out.stats.fleet.rebalances);
  EXPECT_DOUBLE_EQ(reg.gauge("sj.fleet.makespan_seconds").value(),
                   out.stats.fleet.makespan_seconds);
  EXPECT_DOUBLE_EQ(reg.gauge("sj.fleet.device_cov").value(),
                   out.stats.fleet.device_cov);
  EXPECT_DOUBLE_EQ(reg.gauge("sj.fleet.imbalance").value(),
                   out.stats.fleet.imbalance);
  // Single-device runs leave the family untouched.
  obs::Registry reg2;
  SelfJoinConfig single = SelfJoinConfig::work_queue_cfg(0.05);
  single.metrics = &reg2;
  (void)self_join(ds, single);
  EXPECT_FALSE(reg2.gauge("sj.fleet.devices").is_set());
}

TEST(Fleet, ServiceAccountsFleetRuns) {
  const Dataset ds = make_skewed_clusters(600, 19);
  obs::Registry reg;
  ServiceConfig scfg;
  scfg.obs.metrics = &reg;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  SelfJoinConfig cfg = fleet_cfg(SelfJoinConfig::combined(0.05), 2);
  const SelfJoinOutput out = svc.run(*sd, cfg);
  ASSERT_TRUE(out.stats.fleet.ran());

  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.fleet_runs, 1u);
  EXPECT_EQ(snap.fleet_rebalances, out.stats.fleet.rebalances);
  EXPECT_DOUBLE_EQ(snap.fleet_device_cov, out.stats.fleet.device_cov);
  EXPECT_DOUBLE_EQ(snap.fleet_imbalance, out.stats.fleet.imbalance);
  ASSERT_EQ(snap.fleet_devices.size(), 2u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(snap.fleet_devices[d].device, static_cast<int>(d));
    EXPECT_EQ(snap.fleet_devices[d].grains,
              out.stats.fleet.devices[d].grains);
    EXPECT_DOUBLE_EQ(snap.fleet_devices[d].busy_seconds,
                     out.stats.fleet.devices[d].busy_seconds);
  }
  EXPECT_EQ(reg.counter("svc.fleet.runs").value(), 1u);
  EXPECT_EQ(reg.counter("svc.fleet.rebalances").value(),
            out.stats.fleet.rebalances);
  EXPECT_DOUBLE_EQ(reg.gauge("svc.fleet.device_cov").value(),
                   out.stats.fleet.device_cov);
  EXPECT_TRUE(
      reg.gauge(obs::labeled("svc.fleet.device_busy_seconds", {{"device", "0"}}))
          .is_set());

  // A second run accumulates; single-device runs do not.
  (void)svc.run(*sd, cfg);
  (void)svc.run(*sd, SelfJoinConfig::combined(0.05));
  EXPECT_EQ(svc.snapshot().fleet_runs, 2u);
  EXPECT_EQ(reg.counter("svc.fleet.runs").value(), 2u);
}

// ---------------------------------------------------------------------------
// Golden modeled stats: batching, overflow recovery and grain placement
// of the fleet driver pinned bit for bit on one skewed case.

/// FNV-1a over the committed batch sequence's (device, query_points,
/// result_pairs, makespan_cycles).
std::uint64_t batch_digest(const std::vector<BatchStats>& batches) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const BatchStats& b : batches) {
    fold(static_cast<std::uint64_t>(b.device));
    fold(b.query_points);
    fold(b.result_pairs);
    fold(b.makespan_cycles);
  }
  return h;
}

TEST(Fleet, GoldenModeledStatsUnchanged) {
  // Recorded from the fleet driver before it shared the single-device
  // batch driver. Small buffers and an undershooting estimator give
  // every grain several batches and the strided variants overflow
  // retries, so chunking, recovery and placement are all pinned.
  struct Golden {
    std::uint64_t num_batches, overflow_retries, rebalances;
    std::uint64_t warps_launched, warp_steps, active_lane_steps, busy_cycles,
        makespan_cycles;
    std::uint64_t makespan_bits;
    std::uint64_t grains[4];
    std::uint64_t digest;
  };
  constexpr Golden kGolden[] = {
      // Self: the six variants in all_variants() order.
      {201, 82, 22, 201, 95503, 576510, 3444445, 1688838,
       0x3f8ff56a742c8eccull, {1, 3, 2, 26}, 0xf02bb6d7b2cc5463ull},
      {191, 70, 23, 201, 84017, 295005, 3024085, 2410864,
       0x3f9732af33b8061dull, {1, 3, 2, 26}, 0xcbbc4b675d20a137ull},
      {221, 102, 21, 222, 66769, 295005, 2400374, 1336929,
       0x3f8a74fff608ca16ull, {2, 3, 2, 25}, 0xf27a8c8f0d1cd096ull},
      {198, 79, 22, 198, 96359, 576510, 3473974, 1688838,
       0x3f8ff56a742c8eccull, {1, 3, 2, 26}, 0x9e2bd719e493f902ull},
      {388, 0, 22, 396, 204940, 576510, 7363984, 3733617,
       0x3f97870c47a673edull, {1, 3, 2, 26}, 0x607672c69194d686ull},
      {234, 0, 22, 417, 15098, 400005, 626873, 169672,
       0x3f549653d8b3fa88ull, {1, 3, 3, 25}, 0x19e788bbb797d1d5ull},
      // R×S: the pattern is forced to Full, so the first three agree.
      {192, 96, 23, 192, 131328, 711356, 4786324, 1651170,
       0x3f90a14bd0ca18a4ull, {11, 9, 7, 5}, 0x3c9f6003cc34fd42ull},
      {192, 96, 23, 192, 131328, 711356, 4786324, 1651170,
       0x3f90a14bd0ca18a4ull, {11, 9, 7, 5}, 0x3c9f6003cc34fd42ull},
      {192, 96, 23, 192, 131328, 711356, 4786324, 1651170,
       0x3f90a14bd0ca18a4ull, {11, 9, 7, 5}, 0x3c9f6003cc34fd42ull},
      {252, 156, 26, 252, 147093, 711356, 5340580, 1882452,
       0x3f9559df6f66c028ull, {11, 9, 7, 5}, 0xb1312f431501148dull},
      {486, 0, 23, 486, 261752, 711356, 9461286, 3274441,
       0x3f95ecf3ab2a5d19ull, {11, 9, 7, 5}, 0x2a20c31bbab835f9ull},
      {486, 0, 23, 651, 44693, 837356, 1888551, 562267,
       0x3f6e190980203aa1ull, {11, 9, 7, 5}, 0x19a8954fe9d868dbull},
      // COMBINED, Self, static sharding.
      {238, 0, 0, 402, 14741, 400005, 615870, 322482,
       0x3f6041cecd7fb25eull, {1, 1, 1, 1}, 0x8e6259d36adfc91cull},
  };
  const Dataset ds = make_skewed_clusters(1500, 23);
  const Dataset probe = make_skewed_clusters(1800, 29);
  struct Case {
    std::string name;
    SelfJoinConfig cfg;
    bool rxs;
  };
  std::vector<Case> cases;
  for (const bool rxs : {false, true}) {
    for (auto& [name, base] : all_variants(0.03)) {
      SelfJoinConfig cfg = base;
      make_hetero4(cfg);
      cfg.store_pairs = true;
      cfg.batching.buffer_pairs = 4000;
      cfg.batching.inject_estimator_skew = 0.5;
      cases.push_back({name, cfg, rxs});
    }
  }
  SelfJoinConfig fixed = cases.back().cfg;
  fixed.fleet.adaptive = false;
  cases.push_back({"COMBINED static", fixed, false});

  ASSERT_EQ(cases.size(), std::size(kGolden));
  std::size_t i = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name + (c.rxs ? " R×S" : " Self"));
    const SelfJoinOutput out =
        c.rxs ? rxs_join(probe, ds, c.cfg) : self_join(ds, c.cfg);
    const SelfJoinStats& st = out.stats;
    ASSERT_TRUE(st.fleet.ran());
    ASSERT_EQ(st.fleet.devices.size(), 4u);
    const Golden& g = kGolden[i++];
    EXPECT_EQ(st.num_batches, g.num_batches);
    EXPECT_EQ(st.overflow_retries, g.overflow_retries);
    EXPECT_EQ(st.fleet.rebalances, g.rebalances);
    EXPECT_EQ(st.kernel.warps_launched, g.warps_launched);
    EXPECT_EQ(st.kernel.warp_steps, g.warp_steps);
    EXPECT_EQ(st.kernel.active_lane_steps, g.active_lane_steps);
    EXPECT_EQ(st.kernel.busy_cycles, g.busy_cycles);
    EXPECT_EQ(st.kernel.makespan_cycles, g.makespan_cycles);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(st.fleet.makespan_seconds),
              g.makespan_bits);
    for (std::size_t d = 0; d < 4; ++d) {
      EXPECT_EQ(st.fleet.devices[d].grains, g.grains[d]) << "device " << d;
    }
    EXPECT_EQ(batch_digest(st.batches), g.digest);
  }
}

// ---------------------------------------------------------------------------
// Overflow recovery and cancellation on a fleet: the single-device
// contracts (docs/ROBUSTNESS.md, docs/SERVICE.md) hold per grain.

TEST(Fleet, OverflowRecoveryMatchesSingleDevice) {
  const Dataset ds = make_skewed_clusters(1500, 31);
  for (SelfJoinConfig base :
       {SelfJoinConfig::sort_by_wl(0.03), SelfJoinConfig::combined(0.03)}) {
    SCOPED_TRACE(base.name());
    base.store_pairs = true;
    const SelfJoinOutput single = self_join(ds, base);

    // Detection capacity far below the planned batches (one unbounded
    // batch per grain at the default buffer) but above any single
    // point's emission: every grain must split until it fits.
    SelfJoinConfig cfg = base;
    make_hetero4(cfg);
    cfg.batching.inject_capacity = 3000;
    const SelfJoinOutput fleet = self_join(ds, cfg);
    ASSERT_TRUE(fleet.stats.fleet.ran());
    EXPECT_EQ(fleet.results.pairs(), single.results.pairs());
    EXPECT_GT(fleet.stats.overflow_retries, 0u);
    EXPECT_TRUE(fleet.stats.buffer_overflowed);
    EXPECT_GT(fleet.stats.wasted.busy_cycles, 0u);
    EXPECT_GT(fleet.stats.wasted.warps_launched, 0u);
    EXPECT_LE(fleet.stats.max_batch_pairs, 3000u);

    // Host threads change wall time only.
    SelfJoinConfig threaded = cfg;
    threaded.device.host.num_threads = 3;
    const SelfJoinOutput t3 = self_join(ds, threaded);
    EXPECT_EQ(t3.results.pairs(), fleet.results.pairs());
    EXPECT_EQ(t3.stats.num_batches, fleet.stats.num_batches);
    EXPECT_EQ(t3.stats.overflow_retries, fleet.stats.overflow_retries);
    EXPECT_EQ(t3.stats.wasted.busy_cycles, fleet.stats.wasted.busy_cycles);
    EXPECT_EQ(t3.stats.kernel.busy_cycles, fleet.stats.kernel.busy_cycles);
    EXPECT_EQ(t3.stats.kernel.makespan_cycles,
              fleet.stats.kernel.makespan_cycles);
    EXPECT_EQ(batch_digest(t3.stats.batches),
              batch_digest(fleet.stats.batches));
    EXPECT_EQ(t3.stats.fleet.makespan_seconds,
              fleet.stats.fleet.makespan_seconds);

    // A capacity one dense point alone overflows is unrecoverable.
    cfg.batching.inject_capacity = 4;
    try {
      (void)self_join(ds, cfg);
      FAIL() << "expected OverflowError";
    } catch (const OverflowError& e) {
      EXPECT_EQ(e.capacity(), 4u);
      EXPECT_EQ(e.batch_points(), 1u);
      EXPECT_GT(e.observed_pairs(), e.capacity());
    }
  }
}

TEST(Fleet, MidFlightCancelReportsCancelled) {
  // test_service.cpp's blocker shape (12,000 6-D points, ~3,400 small
  // batches, seconds uncancelled) on a heterogeneous fleet, so the
  // cancel lands while a grain's batches are executing.
  static const Dataset ds = gen_uniform(12'000, 6, 5, 0.0, 1.0);
  obs::FlightRecorder recorder(256, 1);
  ServiceConfig scfg;
  scfg.obs.recorder = &recorder;
  JoinService svc(scfg);
  JoinRequest r;
  r.config = SelfJoinConfig::combined(0.5);
  r.config.store_pairs = false;
  r.config.batching.buffer_pairs = 50'000;
  make_hetero4(r.config);
  JoinService::Ticket t = svc.submit(svc.attach(ds), r);
  while (!t.started()) std::this_thread::yield();
  t.cancel();
  const JoinResponse resp = t.get();
  EXPECT_EQ(resp.status, JoinStatus::Cancelled);
  EXPECT_TRUE(t.started());
  std::ostringstream dump;
  recorder.dump(dump, resp.request_id);
  EXPECT_NE(dump.str().find(" cancelled "), std::string::npos) << dump.str();
}

TEST(Fleet, WeePercentUsesConfiguredWarpSize) {
  // The satellite bugfix pinned: wee_percent must divide by the run's
  // configured warp size. A warp_size=8 run with every lane active has
  // WEE 100%; the old hardcoded-32 computation reported 25%.
  Dataset ds(2);
  const double p[] = {0.0, 0.0};
  for (int i = 0; i < 64; ++i) ds.push_back(p);
  SelfJoinConfig cfg = SelfJoinConfig::gpu_calc_global(0.1);
  cfg.device.warp_size = 8;
  cfg.k = 1;
  const SelfJoinOutput out = self_join(ds, cfg);
  EXPECT_EQ(out.stats.warp_size, 8);
  EXPECT_GT(out.stats.wee_percent(), 99.0);
  EXPECT_LE(out.stats.wee_percent(), 100.0);
}

}  // namespace
}  // namespace gsj
