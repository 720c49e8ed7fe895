// Incremental data plane (docs/STREAMING.md): the mutation log and
// churn summaries, cell-granular grid repair and workload patching,
// streaming pair deltas, and the engine/service cache-repair paths.
// The correctness bar throughout is bit-identity: a repaired artifact
// must be indistinguishable from one rebuilt from scratch, and a delta
// must equal the literal set difference of brute-force joins.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/churn.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "sj/delta.hpp"
#include "sj/engine.hpp"
#include "sj/reference.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"

namespace gsj {
namespace {

Dataset make_points(std::initializer_list<std::array<double, 2>> pts) {
  Dataset ds(2);
  for (const auto& p : pts) ds.push_back(std::span<const double>(p));
  return ds;
}

/// n 2-d points in tight uniform blobs around `clusters` centers spread
/// across [0.1, 0.9]^2 — dense cells plus empty space between them.
Dataset make_clusters(std::size_t n, std::uint64_t seed, int clusters,
                      double radius) {
  Xoshiro256 rng(seed);
  std::vector<std::array<double, 2>> centers(
      static_cast<std::size_t>(clusters));
  for (auto& c : centers) {
    c = {rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)};
  }
  Dataset ds(2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = centers[rng.uniform_index(centers.size())];
    const std::array<double, 2> p{c[0] + rng.uniform(-radius, radius),
                                  c[1] + rng.uniform(-radius, radius)};
    ds.push_back(std::span<const double>(p));
  }
  return ds;
}

std::vector<ResultPair> oracle_gained(const ResultSet& before,
                                      const ResultSet& after) {
  std::vector<ResultPair> out;
  const auto a = after.pairs();
  const auto b = before.pairs();
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

std::vector<ResultPair> oracle_lost(const ResultSet& before,
                                    const ResultSet& after) {
  std::vector<ResultPair> out;
  const auto a = after.pairs();
  const auto b = before.pairs();
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(out));
  return out;
}

// ---------------------------------------------------------------------------
// Dataset mutation log.

TEST(MutationLog, InsertEraseMoveAreRecordedWithCoordinates) {
  Dataset ds = make_points({{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}});
  const std::uint64_t base = ds.generation();

  const std::array<double, 2> p{3.0, 3.0};
  const PointId added = ds.insert(std::span<const double>(p));
  EXPECT_EQ(added, 3u);
  const std::array<double, 2> q{5.0, 5.0};
  ds.move_point(1, std::span<const double>(q));
  ds.set_coord(0, 1, 9.0);
  ds.erase(2);  // swap-and-pop: old last point (id 3) renamed to 2

  const auto window = ds.mutations_since(base);
  ASSERT_TRUE(window.has_value());
  ASSERT_EQ(window->size(), 4u);

  const std::span<const Mutation> log = *window;
  EXPECT_EQ(log[0].kind, Mutation::Kind::Insert);
  EXPECT_EQ(log[0].id, 3u);
  EXPECT_DOUBLE_EQ(log[0].new_coords[0], 3.0);

  EXPECT_EQ(log[1].kind, Mutation::Kind::Move);
  EXPECT_EQ(log[1].id, 1u);
  EXPECT_DOUBLE_EQ(log[1].old_coords[0], 1.0);
  EXPECT_DOUBLE_EQ(log[1].new_coords[1], 5.0);

  EXPECT_EQ(log[2].kind, Mutation::Kind::Move);  // set_coord logs a Move
  EXPECT_EQ(log[2].id, 0u);
  EXPECT_DOUBLE_EQ(log[2].old_coords[1], 0.0);
  EXPECT_DOUBLE_EQ(log[2].new_coords[1], 9.0);

  EXPECT_EQ(log[3].kind, Mutation::Kind::Erase);
  EXPECT_EQ(log[3].id, 2u);
  EXPECT_EQ(log[3].renamed_from, 3u);
  EXPECT_DOUBLE_EQ(log[3].old_coords[0], 2.0);

  // The renamed point landed in the vacated slot.
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_DOUBLE_EQ(ds.coord(2, 0), 3.0);
  EXPECT_EQ(ds.generation(), base + 4);
}

TEST(MutationLog, EraseOfLastPointRecordsNoRename) {
  Dataset ds = make_points({{0.0, 0.0}, {1.0, 1.0}});
  const std::uint64_t base = ds.generation();
  ds.erase(1);
  const auto window = ds.mutations_since(base);
  ASSERT_TRUE(window.has_value());
  ASSERT_EQ(window->size(), 1u);
  EXPECT_EQ((*window)[0].kind, Mutation::Kind::Erase);
  EXPECT_EQ((*window)[0].renamed_from, kInvalidPointId);
}

TEST(MutationLog, WindowSemantics) {
  Dataset ds = make_points({{0.0, 0.0}});
  // Current generation: empty (not nullopt) window.
  const auto now = ds.mutations_since(ds.generation());
  ASSERT_TRUE(now.has_value());
  EXPECT_TRUE(now->empty());
  // A future generation is unanswerable.
  EXPECT_FALSE(ds.mutations_since(ds.generation() + 1).has_value());
}

TEST(MutationLog, WindowTrimsButKeepsRecentHistory) {
  Dataset ds = make_points({{0.0, 0.0}});
  const std::uint64_t base = ds.generation();
  // Blow past 2 * kLogWindow so the amortized trim provably fired.
  const std::size_t total = 2 * Dataset::kLogWindow + 64;
  for (std::size_t i = 0; i < total; ++i) {
    ds.set_coord(0, 0, static_cast<double>(i));
  }
  EXPECT_FALSE(ds.mutations_since(base).has_value());
  // The most recent kLogWindow mutations are always answerable.
  const std::uint64_t recent = ds.generation() - Dataset::kLogWindow;
  const auto window = ds.mutations_since(recent);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->size(), Dataset::kLogWindow);
}

TEST(MutationLog, FillDimBumpsOnceAndInvalidatesHistory) {
  Dataset ds = gen_uniform(32, 3, /*seed=*/5, 0.0, 1.0);
  const std::uint64_t base = ds.generation();
  auto col = ds.fill_dim(1);
  for (auto& v : col) v *= 2.0;
  EXPECT_EQ(ds.generation(), base + 1);
  // Bulk loads are unrepairable: the pre-existing window is lost...
  EXPECT_FALSE(ds.mutations_since(base).has_value());
  // ...but the dataset is immediately loggable again.
  const auto now = ds.mutations_since(ds.generation());
  ASSERT_TRUE(now.has_value());
  EXPECT_TRUE(now->empty());
}

TEST(MutationLog, WideDatasetsSkipLogging) {
  Dataset ds(Mutation::kCoordCap + 1);
  std::vector<double> p(static_cast<std::size_t>(ds.dims()), 0.5);
  const std::uint64_t base = ds.generation();
  ds.push_back(p);
  EXPECT_EQ(ds.generation(), base + 1);
  EXPECT_FALSE(ds.mutations_since(base).has_value());
}

TEST(MutationLog, ReadOnlyAccessDoesNotBumpGeneration) {
  const Dataset ds = gen_uniform(64, 2, /*seed=*/7, 0.0, 1.0);
  const std::uint64_t base = ds.generation();
  double sink = 0.0;
  for (PointId i = 0; i < ds.size(); ++i) {
    for (int d = 0; d < ds.dims(); ++d) sink += ds.coord(i, d);
  }
  const auto lo = ds.min_corner();
  const auto hi = ds.max_corner();
  sink += lo[0] + hi[0];
  EXPECT_EQ(ds.generation(), base);
  EXPECT_GT(sink, 0.0);
}

TEST(MutationLog, BboxCacheTracksMutationsIncludingBoundaryRemoval) {
  Xoshiro256 rng(101);
  Dataset ds(3);
  std::vector<double> p(3);
  for (int i = 0; i < 48; ++i) {
    for (auto& v : p) v = rng.uniform(-5.0, 5.0);
    ds.push_back(p);
  }
  const auto check_bbox = [&] {
    std::vector<double> lo(3, std::numeric_limits<double>::infinity());
    std::vector<double> hi(3, -std::numeric_limits<double>::infinity());
    for (PointId i = 0; i < ds.size(); ++i) {
      for (int d = 0; d < 3; ++d) {
        lo[static_cast<std::size_t>(d)] =
            std::min(lo[static_cast<std::size_t>(d)], ds.coord(i, d));
        hi[static_cast<std::size_t>(d)] =
            std::max(hi[static_cast<std::size_t>(d)], ds.coord(i, d));
      }
    }
    EXPECT_EQ(ds.min_corner(), lo);
    EXPECT_EQ(ds.max_corner(), hi);
  };
  check_bbox();
  for (int step = 0; step < 300; ++step) {
    const auto op = rng.uniform_index(3);
    if (op == 0 || ds.size() <= 2) {
      for (auto& v : p) v = rng.uniform(-5.0, 5.0);
      ds.push_back(p);
    } else if (op == 1) {
      // Bias deletions toward extremes so the shrink path is exercised.
      PointId victim = static_cast<PointId>(rng.uniform_index(ds.size()));
      for (PointId i = 0; i < ds.size(); ++i) {
        if (ds.coord(i, 0) >= ds.max_corner()[0]) victim = i;
      }
      ds.erase(victim);
    } else {
      const auto i = static_cast<PointId>(rng.uniform_index(ds.size()));
      for (auto& v : p) v = rng.uniform(-8.0, 8.0);
      ds.move_point(i, p);
    }
    check_bbox();
  }
}

// ---------------------------------------------------------------------------
// Churn summaries.

TEST(Churn, PureMoveWindow) {
  Dataset ds = make_points({{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}});
  const std::uint64_t base = ds.generation();
  ds.set_coord(1, 0, 1.5);
  ds.set_coord(1, 0, 1.75);  // two moves of the same point fold to one
  const auto window = ds.mutations_since(base);
  ASSERT_TRUE(window.has_value());
  const ChurnSummary churn = summarize_churn(ds, *window);
  EXPECT_TRUE(churn.pure_moves);
  EXPECT_TRUE(churn.removed.empty());
  ASSERT_EQ(churn.touched.size(), 1u);
  EXPECT_EQ(churn.touched[0].id, 1u);
  EXPECT_EQ(churn.touched[0].pre_id, 1u);
  EXPECT_TRUE(churn.touched[0].existed_before);
  EXPECT_DOUBLE_EQ(churn.touched[0].old_coords[0], 1.0);
}

TEST(Churn, InsertThenEraseNetsToNothing) {
  Dataset ds = make_points({{0.0, 0.0}, {1.0, 1.0}});
  const std::uint64_t base = ds.generation();
  const std::array<double, 2> p{4.0, 4.0};
  const PointId added = ds.insert(std::span<const double>(p));
  ds.erase(added);  // added was last: no rename
  const auto window = ds.mutations_since(base);
  ASSERT_TRUE(window.has_value());
  const ChurnSummary churn = summarize_churn(ds, *window);
  EXPECT_FALSE(churn.pure_moves);
  EXPECT_TRUE(churn.touched.empty());
  EXPECT_TRUE(churn.removed.empty());
}

TEST(Churn, RenameChainTracksPreId) {
  Dataset ds =
      make_points({{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}});
  const std::uint64_t base = ds.generation();
  ds.erase(1);  // point 3 renamed to 1
  ds.erase(0);  // point 2 renamed to 0
  const auto window = ds.mutations_since(base);
  ASSERT_TRUE(window.has_value());
  const ChurnSummary churn = summarize_churn(ds, *window);
  EXPECT_FALSE(churn.pure_moves);
  ASSERT_EQ(churn.touched.size(), 2u);
  EXPECT_EQ(churn.touched[0].id, 0u);
  EXPECT_EQ(churn.touched[0].pre_id, 2u);
  EXPECT_DOUBLE_EQ(churn.touched[0].old_coords[0], 2.0);
  EXPECT_EQ(churn.touched[1].id, 1u);
  EXPECT_EQ(churn.touched[1].pre_id, 3u);
  // Removed entries appear in log order (erase(1) first, then erase(0)).
  ASSERT_EQ(churn.removed.size(), 2u);
  EXPECT_EQ(churn.removed[0].pre_id, 1u);
  EXPECT_DOUBLE_EQ(churn.removed[0].old_coords[0], 1.0);
  EXPECT_EQ(churn.removed[1].pre_id, 0u);
  EXPECT_DOUBLE_EQ(churn.removed[1].old_coords[0], 0.0);
}

// ---------------------------------------------------------------------------
// Grid repair.

TEST(GridRepair, NoOpWhenCurrent) {
  const Dataset ds = gen_uniform(200, 2, 13, 0.0, 1.0);
  GridIndex grid(ds, 0.1);
  const std::uint64_t key = grid.content_key();
  const GridRepairOutcome rep = grid.repair();
  EXPECT_TRUE(rep.repaired);
  EXPECT_TRUE(rep.dirty_cell_ids.empty());
  EXPECT_EQ(rep.touched_points, 0u);
  EXPECT_EQ(grid.content_key(), key);
}

TEST(GridRepair, InteriorMoveRepairsIncrementally) {
  Dataset ds = gen_uniform(400, 2, 17, 0.0, 1.0);
  GridIndex grid(ds, 0.08);
  // Move an interior point across cells without widening the bbox.
  const std::array<double, 2> p{0.512, 0.488};
  ds.move_point(7, std::span<const double>(p));
  const GridRepairOutcome rep = grid.repair();
  EXPECT_TRUE(rep.repaired);
  EXPECT_EQ(rep.touched_points, 1u);
  EXPECT_TRUE(rep.pure_moves);
  EXPECT_FALSE(rep.dirty_cell_ids.empty());
  const GridIndex fresh(ds, 0.08);
  EXPECT_EQ(grid.content_key(), fresh.content_key());
}

TEST(GridRepair, FallsBackWhenShapeChangesButStaysCorrect) {
  Dataset ds = gen_uniform(300, 2, 19, 0.0, 1.0);
  GridIndex grid(ds, 0.08);
  // An insert far outside the bbox changes the grid shape.
  const std::array<double, 2> p{9.0, 9.0};
  (void)ds.insert(std::span<const double>(p));
  const GridRepairOutcome rep = grid.repair();
  EXPECT_FALSE(rep.repaired);
  const GridIndex fresh(ds, 0.08);
  EXPECT_EQ(grid.content_key(), fresh.content_key());
  EXPECT_EQ(grid.generation(), ds.generation());
}

TEST(GridRepair, FallsBackAfterBulkLoad) {
  Dataset ds = gen_uniform(300, 2, 23, 0.0, 1.0);
  GridIndex grid(ds, 0.08);
  auto col = ds.fill_dim(0);
  for (auto& v : col) v = std::min(1.0, std::max(0.0, v * 0.5 + 0.25));
  const GridRepairOutcome rep = grid.repair();
  EXPECT_FALSE(rep.repaired);
  EXPECT_EQ(grid.content_key(), GridIndex(ds, 0.08).content_key());
}

// ---------------------------------------------------------------------------
// Workload patching.

TEST(WorkloadPatch, MatchesFromScratchForEveryPattern) {
  Xoshiro256 rng(211);
  Dataset ds = make_clusters(350, /*seed=*/29, /*clusters=*/6, /*radius=*/0.04);
  // Pin the bounding box with corner sentinels so interior churn can
  // never change the grid shape (a shape change forces the rebuild
  // fallback, which this test is explicitly not about).
  const std::size_t movable = ds.size();
  for (const std::array<double, 2> c :
       {std::array<double, 2>{0.0, 0.0}, std::array<double, 2>{1.0, 1.0}}) {
    ds.push_back(std::span<const double>(c));
  }
  const double eps = 0.05;
  for (const CellPattern pattern :
       {CellPattern::Full, CellPattern::Unicomp, CellPattern::LidUnicomp}) {
    SCOPED_TRACE(to_string(pattern));
    GridIndex grid(ds, eps);
    const std::vector<std::uint64_t> old_pw = point_workloads(grid, pattern);
    const std::vector<PointId> old_order = sort_by_workload(grid, pattern);

    // A small interior churn batch the repair path can absorb.
    std::vector<double> p(2);
    for (int m = 0; m < 6; ++m) {
      const auto i = static_cast<PointId>(rng.uniform_index(movable));
      for (auto& v : p) v = rng.uniform(0.2, 0.8);
      ds.move_point(i, p);
    }
    const GridRepairOutcome rep = grid.repair();
    ASSERT_TRUE(rep.repaired);

    const WorkloadPatchResult patch = patch_workloads(
        grid, pattern, rep.dirty_cell_ids, old_pw, old_order);
    EXPECT_EQ(patch.point_workloads, point_workloads(grid, pattern));
    EXPECT_EQ(patch.order, sort_by_workload(grid, pattern));
    EXPECT_GT(patch.recomputed_cells, 0u);
    EXPECT_LT(patch.recomputed_cells, grid.cells().size());

    // An unbuilt order stays unbuilt.
    const WorkloadPatchResult no_order = patch_workloads(
        grid, pattern, rep.dirty_cell_ids, old_pw, std::span<const PointId>{});
    EXPECT_TRUE(no_order.order.empty());
    EXPECT_EQ(no_order.point_workloads, patch.point_workloads);
  }
}

// ---------------------------------------------------------------------------
// Streaming pair deltas.

TEST(Delta, HandComputedGainsAndLosses) {
  // Two pairs within eps=0.5: (0,1) and (2,3). Move 1 away from 0 and
  // insert a point near 2.
  Dataset ds = make_points(
      {{0.0, 0.0}, {0.3, 0.0}, {5.0, 5.0}, {5.3, 5.0}});
  const double eps = 0.5;
  const ResultSet before = brute_force_join(ds, eps);
  const std::uint64_t base = ds.generation();

  const std::array<double, 2> away{2.5, 2.5};
  ds.move_point(1, std::span<const double>(away));
  const std::array<double, 2> near2{5.1, 5.2};
  (void)ds.insert(std::span<const double>(near2));

  const auto window = ds.mutations_since(base);
  ASSERT_TRUE(window.has_value());
  const ChurnSummary churn = summarize_churn(ds, *window);
  GridIndex grid(ds, eps);
  const PairDelta delta = compute_pair_delta(grid, churn, eps);

  const ResultSet after = brute_force_join(ds, eps);
  EXPECT_EQ(delta.gained, oracle_gained(before, after));
  EXPECT_EQ(delta.lost, oracle_lost(before, after));
  EXPECT_EQ(delta.stats.touched_points, 2u);
  EXPECT_EQ(delta.stats.removed_points, 0u);
  EXPECT_GT(delta.stats.candidates, 0u);
}

TEST(Delta, EraseRenameAliasLabelsLostPairsWithBaseIds) {
  // Erase a point with neighbors while the last point is renamed into
  // its slot — the adversarial id-aliasing case.
  Dataset ds = make_points(
      {{0.0, 0.0}, {0.2, 0.0}, {3.0, 3.0}, {0.1, 0.1}});
  const double eps = 0.5;
  const ResultSet before = brute_force_join(ds, eps);
  const std::uint64_t base = ds.generation();
  ds.erase(1);  // id 3 (a neighbor of 0) renamed to 1

  const auto window = ds.mutations_since(base);
  ASSERT_TRUE(window.has_value());
  const ChurnSummary churn = summarize_churn(ds, *window);
  GridIndex grid(ds, eps);
  const PairDelta delta = compute_pair_delta(grid, churn, eps);

  const ResultSet after = brute_force_join(ds, eps);
  EXPECT_EQ(delta.gained, oracle_gained(before, after));
  EXPECT_EQ(delta.lost, oracle_lost(before, after));
  EXPECT_EQ(delta.stats.removed_points, 1u);
}

TEST(Delta, QuiescentWindowIsEmpty) {
  Dataset ds = gen_uniform(100, 2, 37, 0.0, 1.0);
  const std::uint64_t base = ds.generation();
  const auto window = ds.mutations_since(base);
  ASSERT_TRUE(window.has_value());
  const ChurnSummary churn = summarize_churn(ds, *window);
  GridIndex grid(ds, 0.1);
  const PairDelta delta = compute_pair_delta(grid, churn, 0.1);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.stats.candidates, 0u);
}

// ---------------------------------------------------------------------------
// Engine: cache repair and delta_join.

TEST(EngineIncremental, ReadOnlyTraversalLeavesCachesWarm) {
  const Dataset ds = gen_uniform(800, 2, 41, 0.0, 1.0);
  obs::Registry metrics;
  EngineConfig ecfg;
  ecfg.obs.metrics = &metrics;
  JoinEngine engine(ecfg);
  PreparedDataset prep = engine.prepare(ds);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = false;
  (void)engine.run(prep, cfg);
  const std::uint64_t misses = metrics.counter("sj.cache.grid.misses").value();

  // The regression this guards: coord() used to be non-const-only and
  // bump the generation, so a read-only pass cooled every cache.
  double sink = 0.0;
  for (PointId i = 0; i < ds.size(); ++i) sink += ds.coord(i, 0);
  EXPECT_GT(sink, 0.0);

  (void)engine.run(prep, cfg);
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), misses);
  EXPECT_GE(metrics.counter("sj.cache.grid.hits").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.invalidations").value(), 0u);
  EXPECT_EQ(metrics.counter("sj.incr.repairs").value(), 0u);
}

TEST(EngineIncremental, WarmRunAfterChurnRepairsAndMatchesCold) {
  Dataset ds = gen_uniform(600, 2, 43, 0.0, 1.0);
  obs::Registry metrics;
  EngineConfig ecfg;
  ecfg.obs.metrics = &metrics;
  JoinEngine engine(ecfg);
  PreparedDataset prep = engine.prepare(ds);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  (void)engine.run(prep, cfg);

  std::vector<double> p(2);
  Xoshiro256 rng(307);
  for (int m = 0; m < 5; ++m) {
    const auto i = static_cast<PointId>(rng.uniform_index(ds.size()));
    for (auto& v : p) v = rng.uniform(0.1, 0.9);
    ds.move_point(i, p);
  }

  const SelfJoinOutput warm = engine.run(prep, cfg);
  EXPECT_GE(metrics.counter("sj.incr.repairs").value(), 1u);
  EXPECT_GT(metrics.counter("sj.incr.repaired_cells").value(), 0u);
  EXPECT_EQ(metrics.counter("sj.incr.rebuild_fallbacks").value(), 0u);

  JoinEngine cold;
  const SelfJoinOutput want = cold.self_join(ds, cfg);
  EXPECT_EQ(warm.results.pairs(), want.results.pairs());
  EXPECT_EQ(warm.stats.kernel.busy_cycles, want.stats.kernel.busy_cycles);
  EXPECT_EQ(warm.stats.kernel.makespan_cycles,
            want.stats.kernel.makespan_cycles);
}

TEST(EngineIncremental, DeltaJoinMatchesOracleDiff) {
  Dataset ds = make_clusters(300, /*seed=*/47, /*clusters=*/5, /*radius=*/0.05);
  const double eps = 0.06;
  JoinEngine engine;
  PreparedDataset prep = engine.prepare(ds);
  SelfJoinConfig cfg = SelfJoinConfig::combined(eps);
  cfg.store_pairs = true;
  (void)engine.run(prep, cfg);

  const ResultSet before = brute_force_join(ds, eps);
  const std::uint64_t base = ds.generation();
  Xoshiro256 rng(401);
  std::vector<double> p(2);
  for (int m = 0; m < 8; ++m) {
    const auto op = rng.uniform_index(3);
    if (op == 0) {
      for (auto& v : p) v = rng.uniform(0.0, 1.0);
      (void)ds.insert(p);
    } else if (op == 1 && ds.size() > 1) {
      ds.erase(static_cast<PointId>(rng.uniform_index(ds.size())));
    } else {
      const auto i = static_cast<PointId>(rng.uniform_index(ds.size()));
      for (auto& v : p) v = rng.uniform(0.0, 1.0);
      ds.move_point(i, p);
    }
  }

  const std::optional<PairDelta> delta = engine.delta_join(prep, eps, base);
  ASSERT_TRUE(delta.has_value());
  const ResultSet after = brute_force_join(ds, eps);
  EXPECT_EQ(delta->gained, oracle_gained(before, after));
  EXPECT_EQ(delta->lost, oracle_lost(before, after));
}

TEST(EngineIncremental, DeltaJoinRefusesLostWindow) {
  Dataset ds = gen_uniform(100, 2, 53, 0.0, 1.0);
  JoinEngine engine;
  PreparedDataset prep = engine.prepare(ds);
  const std::uint64_t base = ds.generation();
  auto col = ds.fill_dim(0);  // unrepairable: log window discarded
  for (auto& v : col) v *= 0.5;
  EXPECT_FALSE(engine.delta_join(prep, 0.1, base).has_value());
}

TEST(EngineIncremental, RejectedNonFiniteMutationsLeaveCachesWarm) {
  Dataset ds = gen_uniform(800, 2, 45, 0.0, 1.0);
  obs::Registry metrics;
  EngineConfig ecfg;
  ecfg.obs.metrics = &metrics;
  JoinEngine engine(ecfg);
  PreparedDataset prep = engine.prepare(ds);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  const SelfJoinOutput cold = engine.run(prep, cfg);
  const std::uint64_t base = ds.generation();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::array<double, 2> bad_move{0.5, nan};
  const std::array<double, 2> bad_insert{-inf, 0.5};
  EXPECT_THROW(ds.move_point(7, bad_move), CheckError);
  EXPECT_THROW(ds.set_coord(7, 0, inf), CheckError);
  EXPECT_THROW((void)ds.insert(bad_insert), CheckError);

  // The rejected mutations reached neither the data nor the log: the
  // window is empty, the delta is empty, and the next run is served
  // from the caches without a repair.
  EXPECT_EQ(ds.generation(), base);
  const auto window = ds.mutations_since(base);
  ASSERT_TRUE(window.has_value());
  EXPECT_TRUE(window->empty());
  const std::optional<PairDelta> delta = engine.delta_join(prep, 0.05, base);
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->empty());
  const SelfJoinOutput warm = engine.run(prep, cfg);
  EXPECT_EQ(warm.results.pairs(), cold.results.pairs());
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.incr.repairs").value(), 0u);
  EXPECT_EQ(metrics.counter("sj.cache.invalidations").value(), 0u);
}

// ---------------------------------------------------------------------------
// Service: sync repair, selective result-cache invalidation,
// subscriptions.

TEST(ServiceIncremental, SyncRepairsGridsAndPatchesPlans) {
  Dataset ds = gen_uniform(900, 2, 59, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  (void)svc.run(*sd, cfg);
  ASSERT_EQ(sd->cached_grid_count(), 1u);

  std::vector<double> p{0.42, 0.58};
  ds.move_point(11, p);

  const SelfJoinOutput warm = svc.run(*sd, cfg);
  EXPECT_GE(metrics.counter("sj.incr.repairs").value(), 1u);
  EXPECT_GE(metrics.counter("sj.incr.plan_patches").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.incr.rebuild_fallbacks").value(), 0u);

  JoinEngine cold;
  const SelfJoinOutput want = cold.self_join(ds, cfg);
  EXPECT_EQ(warm.results.pairs(), want.results.pairs());
  EXPECT_EQ(warm.stats.kernel.busy_cycles, want.stats.kernel.busy_cycles);

  // The repaired grid's digest matches a from-scratch index.
  const auto digests = sd->cached_grid_digests();
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].generation, ds.generation());
  EXPECT_EQ(digests[0].content_key,
            GridIndex(ds, digests[0].epsilon).content_key());
}

TEST(ServiceIncremental, ResultCacheSurvivesFarPureMove) {
  // Two tight clusters plus one isolated wanderer far from both; moving
  // the wanderer cannot change any ε pair, so cached results survive.
  Dataset ds = make_clusters(400, /*seed=*/61, /*clusters=*/2, /*radius=*/0.02);
  const std::array<double, 2> lone{10.0, 10.0};
  const PointId wanderer = ds.insert(std::span<const double>(lone));

  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinRequest req;
  req.config = SelfJoinConfig::combined(0.05);
  req.config.store_pairs = true;
  const JoinResponse cold = svc.submit(sd, req).get();
  ASSERT_EQ(cold.status, JoinStatus::Ok) << cold.error;
  EXPECT_EQ(cold.breakdown.served_from, obs::ServedFrom::Execution);

  // Nudge the wanderer inside its own empty neighborhood (and inside
  // the bbox so the grid repair stays incremental).
  const std::array<double, 2> nudged{9.9, 9.9};
  ds.move_point(wanderer, std::span<const double>(nudged));

  const JoinResponse warm = svc.submit(sd, req).get();
  ASSERT_EQ(warm.status, JoinStatus::Ok) << warm.error;
  EXPECT_EQ(warm.breakdown.served_from, obs::ServedFrom::ResultCache);
  EXPECT_EQ(warm.output.results.pairs(), cold.output.results.pairs());
  EXPECT_GE(metrics.counter("svc.result_cache.repair_kept").value(), 1u);

  // Correctness check against a cold engine on the mutated dataset.
  JoinEngine engine;
  const SelfJoinOutput want = engine.self_join(ds, req.config);
  EXPECT_EQ(warm.output.results.pairs(), want.results.pairs());
}

TEST(ServiceIncremental, ResultCacheDropsEntryTouchedByNearMove) {
  Dataset ds = make_clusters(400, /*seed=*/67, /*clusters=*/2, /*radius=*/0.02);
  const std::array<double, 2> lone{10.0, 10.0};
  const PointId wanderer = ds.insert(std::span<const double>(lone));

  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinRequest req;
  req.config = SelfJoinConfig::combined(0.05);
  req.config.store_pairs = true;
  const JoinResponse cold = svc.submit(sd, req).get();
  ASSERT_EQ(cold.status, JoinStatus::Ok) << cold.error;

  // Drop the wanderer into cluster territory: its ε neighborhood gains
  // members, so the cached answer is stale and must not serve.
  std::vector<double> into_cluster{ds.coord(0, 0), ds.coord(0, 1)};
  ds.move_point(wanderer, into_cluster);

  const JoinResponse fresh = svc.submit(sd, req).get();
  ASSERT_EQ(fresh.status, JoinStatus::Ok) << fresh.error;
  EXPECT_EQ(fresh.breakdown.served_from, obs::ServedFrom::Execution);
  EXPECT_GE(metrics.counter("svc.result_cache.invalidations").value(), 1u);

  JoinEngine engine;
  const SelfJoinOutput want = engine.self_join(ds, req.config);
  EXPECT_EQ(fresh.output.results.pairs(), want.results.pairs());
}

TEST(ServiceIncremental, SubscriptionDeliversIncrementalDeltas) {
  Dataset ds = make_clusters(250, /*seed=*/71, /*clusters=*/4, /*radius=*/0.04);
  const double eps = 0.06;
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  const JoinService::SubscriptionId sub = svc.subscribe(sd, eps);
  EXPECT_EQ(svc.subscription_count(), 1u);
  EXPECT_EQ(svc.snapshot().subscriptions, 1u);

  // A quiescent poll is empty and not a fallback.
  const JoinService::DeltaPoll quiet = svc.poll(sub);
  EXPECT_FALSE(quiet.fallback);
  EXPECT_TRUE(quiet.delta.empty());
  EXPECT_EQ(quiet.generation, ds.generation());

  Xoshiro256 rng(503);
  std::vector<double> p(2);
  ResultSet before = brute_force_join(ds, eps);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (int m = 0; m < 6; ++m) {
      const auto op = rng.uniform_index(3);
      if (op == 0) {
        for (auto& v : p) v = rng.uniform(0.0, 1.0);
        (void)ds.insert(p);
      } else if (op == 1 && ds.size() > 1) {
        ds.erase(static_cast<PointId>(rng.uniform_index(ds.size())));
      } else {
        const auto i = static_cast<PointId>(rng.uniform_index(ds.size()));
        for (auto& v : p) v = rng.uniform(0.0, 1.0);
        ds.move_point(i, p);
      }
    }
    const JoinService::DeltaPoll dp = svc.poll(sub);
    const ResultSet after = brute_force_join(ds, eps);
    EXPECT_EQ(dp.generation, ds.generation());
    EXPECT_EQ(dp.delta.gained, oracle_gained(before, after));
    EXPECT_EQ(dp.delta.lost, oracle_lost(before, after));
    before = std::move(after);
  }
  EXPECT_GE(metrics.counter("svc.stream.polls").value(), 4u);

  svc.unsubscribe(sub);
  EXPECT_EQ(svc.subscription_count(), 0u);
}

TEST(ServiceIncremental, SubscriptionFallsBackAfterBulkLoad) {
  Dataset ds = gen_uniform(200, 2, 73, 0.0, 1.0);
  const double eps = 0.08;
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);
  const JoinService::SubscriptionId sub = svc.subscribe(sd, eps);

  const ResultSet before = brute_force_join(ds, eps);
  auto col = ds.fill_dim(1);  // discards the mutation window
  for (auto& v : col) v = std::min(1.0, std::max(0.0, v * 0.7));

  const JoinService::DeltaPoll dp = svc.poll(sub);
  EXPECT_TRUE(dp.fallback);
  const ResultSet after = brute_force_join(ds, eps);
  EXPECT_EQ(dp.delta.gained, oracle_gained(before, after));
  EXPECT_EQ(dp.delta.lost, oracle_lost(before, after));
  EXPECT_GE(metrics.counter("svc.stream.fallbacks").value(), 1u);

  // The fallback resynchronized the retained snapshot: further
  // incremental polls pick up from the new baseline.
  std::vector<double> p{0.5, 0.35};
  ds.move_point(3, p);
  const JoinService::DeltaPoll dp2 = svc.poll(sub);
  EXPECT_FALSE(dp2.fallback);
  const ResultSet after2 = brute_force_join(ds, eps);
  EXPECT_EQ(dp2.delta.gained, oracle_gained(after, after2));
  EXPECT_EQ(dp2.delta.lost, oracle_lost(after, after2));
  svc.unsubscribe(sub);
}

}  // namespace
}  // namespace gsj
