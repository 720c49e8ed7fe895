// JoinEngine suite: cache-served runs must be bit-identical to cold
// runs — result pairs, every SelfJoinStats field, and byte-identical
// logical-time traces — for all six paper variants at any host thread
// count; plus generation-counter invalidation, LRU eviction bounds,
// scratch-arena reuse (including under overflow recovery), threaded
// runs on pooled host threads, and the sj.cache.* accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "data/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/engine.hpp"

namespace gsj {
namespace {

struct Variant {
  const char* name;
  SelfJoinConfig (*make)(double);
};

SelfJoinConfig make_full(double eps) {
  return SelfJoinConfig::gpu_calc_global(eps);
}
SelfJoinConfig make_unicomp(double eps) { return SelfJoinConfig::unicomp(eps); }
SelfJoinConfig make_lid(double eps) { return SelfJoinConfig::lid_unicomp(eps); }
SelfJoinConfig make_sortbywl(double eps) {
  return SelfJoinConfig::sort_by_wl(eps);
}
SelfJoinConfig make_workqueue(double eps) {
  return SelfJoinConfig::work_queue_cfg(eps);
}
SelfJoinConfig make_combined(double eps) {
  return SelfJoinConfig::combined(eps);
}

constexpr Variant kVariants[] = {
    {"FULL", &make_full},           {"UNICOMP", &make_unicomp},
    {"LID-UNICOMP", &make_lid},     {"SORTBYWL", &make_sortbywl},
    {"WORKQUEUE", &make_workqueue}, {"COMBINED", &make_combined},
};

/// One run with a per-run logical-time tracer attached; the trace JSON
/// is the byte-level witness that a cache hit replays the cold path's
/// exact span/event history.
struct JoinRun {
  SelfJoinOutput out;
  std::string trace_json;
};

SelfJoinConfig variant_config(const Variant& v, int host_threads) {
  SelfJoinConfig cfg = v.make(0.04);
  // Small buffer forces several batches, so cached plans cover the
  // multi-batch splitting logic, not just the single-batch case.
  cfg.batching.buffer_pairs = 5000;
  cfg.store_pairs = true;
  cfg.device.host.num_threads = host_threads;
  return cfg;
}

JoinRun run_once(JoinEngine& engine, PreparedDataset& prep,
                 SelfJoinConfig cfg) {
  obs::Tracer tracer(obs::TimeMode::Logical);
  cfg.tracer = &tracer;
  JoinRun r;
  r.out = engine.run(prep, cfg);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  r.trace_json = os.str();
  return r;
}

void expect_identical(const JoinRun& cold, const JoinRun& warm,
                      const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(cold.out.results.pairs(), warm.out.results.pairs());
  EXPECT_EQ(cold.out.results.count(), warm.out.results.count());

  const auto& a = cold.out.stats;
  const auto& b = warm.out.stats;
  EXPECT_EQ(a.kernel.launches, b.kernel.launches);
  EXPECT_EQ(a.kernel.warps_launched, b.kernel.warps_launched);
  EXPECT_EQ(a.kernel.warp_steps, b.kernel.warp_steps);
  EXPECT_EQ(a.kernel.active_lane_steps, b.kernel.active_lane_steps);
  EXPECT_EQ(a.kernel.busy_cycles, b.kernel.busy_cycles);
  EXPECT_EQ(a.kernel.makespan_cycles, b.kernel.makespan_cycles);
  EXPECT_EQ(a.kernel.tail_idle_cycles, b.kernel.tail_idle_cycles);
  EXPECT_EQ(a.kernel.atomics_executed, b.kernel.atomics_executed);
  EXPECT_EQ(a.kernel.results_emitted, b.kernel.results_emitted);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.estimated_total_pairs, b.estimated_total_pairs);
  EXPECT_EQ(a.result_pairs, b.result_pairs);
  EXPECT_EQ(a.max_batch_pairs, b.max_batch_pairs);
  EXPECT_EQ(a.overflow_retries, b.overflow_retries);
  EXPECT_DOUBLE_EQ(a.wee_percent(), b.wee_percent());
  EXPECT_DOUBLE_EQ(a.warp_cycle_cov(), b.warp_cycle_cov());
  EXPECT_DOUBLE_EQ(a.warp_cycle_gini(), b.warp_cycle_gini());
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.batches[i].query_points, b.batches[i].query_points);
    EXPECT_EQ(a.batches[i].result_pairs, b.batches[i].result_pairs);
    EXPECT_EQ(a.batches[i].warps, b.batches[i].warps);
    EXPECT_EQ(a.batches[i].makespan_cycles, b.batches[i].makespan_cycles);
    EXPECT_DOUBLE_EQ(a.batches[i].wee_percent, b.batches[i].wee_percent);
    EXPECT_DOUBLE_EQ(a.batches[i].warp_cycle_cov, b.batches[i].warp_cycle_cov);
  }
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t s = 0; s < a.slots.size(); ++s) {
    EXPECT_EQ(a.slots[s].warps, b.slots[s].warps) << "slot " << s;
    EXPECT_EQ(a.slots[s].busy_cycles, b.slots[s].busy_cycles) << "slot " << s;
  }
  EXPECT_EQ(cold.trace_json, warm.trace_json);
}

class EngineCacheEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EngineCacheEquivalence, WarmRunBitIdenticalToCold) {
  const auto [variant_idx, threads] = GetParam();
  const Variant& v = kVariants[static_cast<std::size_t>(variant_idx)];
  const Dataset ds = gen_exponential(3000, 2, 117);

  obs::Registry metrics;
  EngineConfig ecfg;
  ecfg.obs.metrics = &metrics;
  JoinEngine engine(ecfg);
  PreparedDataset prep = engine.prepare(ds);

  const SelfJoinConfig cfg = variant_config(v, threads);
  const JoinRun cold = run_once(engine, prep, cfg);
  EXPECT_EQ(metrics.counter("sj.cache.hits").value(), 0u);
  const std::uint64_t misses = metrics.counter("sj.cache.misses").value();
  EXPECT_GE(misses, 1u);

  const JoinRun warm = run_once(engine, prep, cfg);
  expect_identical(cold, warm, v.name);
  // Every artifact the warm run needed was served from cache.
  EXPECT_GE(metrics.counter("sj.cache.hits").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.misses").value(), misses);

  // And both match a completely fresh engine end to end.
  JoinEngine fresh_engine;
  PreparedDataset fresh_prep = fresh_engine.prepare(ds);
  const JoinRun fresh = run_once(fresh_engine, fresh_prep, cfg);
  expect_identical(fresh, warm, v.name);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, EngineCacheEquivalence,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Values(0, 1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& param_info) {
      std::string name = kVariants[static_cast<std::size_t>(
                             std::get<0>(param_info.param))].name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_t" + std::to_string(std::get<1>(param_info.param));
    });

TEST(JoinEngineTest, FreeWrapperMatchesEngine) {
  const Dataset ds = gen_exponential(2000, 2, 21);
  const SelfJoinConfig cfg = variant_config(kVariants[5], 0);
  const SelfJoinOutput via_wrapper = self_join(ds, cfg);

  JoinEngine engine;
  PreparedDataset prep = engine.prepare(ds);
  const SelfJoinOutput via_engine = engine.run(prep, cfg);
  EXPECT_EQ(via_wrapper.results.pairs(), via_engine.results.pairs());
  EXPECT_EQ(via_wrapper.stats.kernel.makespan_cycles,
            via_engine.stats.kernel.makespan_cycles);
  EXPECT_EQ(via_wrapper.stats.num_batches, via_engine.stats.num_batches);
}

TEST(JoinEngineTest, MutationRepairsCachesInPlace) {
  Dataset ds = gen_exponential(2000, 2, 33);
  obs::Registry metrics;
  EngineConfig ecfg;
  ecfg.obs.metrics = &metrics;
  JoinEngine engine(ecfg);
  PreparedDataset prep = engine.prepare(ds);

  const SelfJoinConfig cfg = variant_config(kVariants[4], 0);  // WORKQUEUE
  const JoinRun before = run_once(engine, prep, cfg);
  EXPECT_GE(prep.cached_grid_count(), 1u);
  EXPECT_GE(prep.cached_plan_count(), 1u);

  // A logged mutation no longer drops the caches: the next run repairs
  // the cached grid cell-granularly, patches the dependent plan, and
  // still produces the fresh-dataset answer bit-identically.
  ds.push_back(std::vector<double>{0.01, 0.01});
  EXPECT_NE(prep.generation(), ds.generation());

  const JoinRun after = run_once(engine, prep, cfg);
  EXPECT_EQ(metrics.counter("sj.cache.invalidations").value(), 0u);
  EXPECT_GE(metrics.counter("sj.incr.repairs").value(), 1u);
  EXPECT_GE(metrics.counter("sj.incr.plan_patches").value(), 1u);
  // The repaired grid is served as a hit — no second build.
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), 1u);
  EXPECT_EQ(prep.generation(), ds.generation());

  JoinEngine fresh_engine;
  PreparedDataset fresh_prep = fresh_engine.prepare(ds);
  const JoinRun fresh = run_once(fresh_engine, fresh_prep, cfg);
  expect_identical(fresh, after, "post-mutation");
  // The mutated dataset genuinely differs from the original run.
  EXPECT_NE(before.out.stats.result_pairs, after.out.stats.result_pairs);

  // A bulk load invalidates the mutation window: the grid rebuilds from
  // scratch and unpatched plans are dropped — the old all-or-nothing
  // invalidation, now the fallback instead of the rule.
  { auto col = ds.fill_dim(0); (void)col; }
  const JoinRun rebuilt = run_once(engine, prep, cfg);
  EXPECT_GE(metrics.counter("sj.incr.rebuild_fallbacks").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.invalidations").value(), 1u);
  expect_identical(after, rebuilt, "post-bulk-load");
}

TEST(JoinEngineTest, EvictionBoundsRespected) {
  const Dataset ds = gen_exponential(2000, 2, 55);
  obs::Registry metrics;
  EngineConfig ecfg;
  ecfg.max_cached_grids = 2;
  ecfg.max_cached_plans = 2;
  ecfg.obs.metrics = &metrics;
  JoinEngine engine(ecfg);
  PreparedDataset prep = engine.prepare(ds);

  const double epsilons[] = {0.02, 0.03, 0.04, 0.05, 0.06};
  for (const double eps : epsilons) {
    SelfJoinConfig cfg = SelfJoinConfig::work_queue_cfg(eps);
    cfg.store_pairs = false;
    engine.recycle(engine.run(prep, cfg));
    EXPECT_LE(prep.cached_grid_count(), 2u);
    EXPECT_LE(prep.cached_plan_count(), 2u);
  }
  EXPECT_GE(metrics.counter("sj.cache.evictions").value(), 1u);

  // An evicted epsilon still runs correctly (it is simply a miss again).
  SelfJoinConfig cfg = SelfJoinConfig::work_queue_cfg(epsilons[0]);
  cfg.store_pairs = true;
  const SelfJoinOutput again = engine.run(prep, cfg);
  const SelfJoinOutput fresh = self_join(ds, cfg);
  EXPECT_EQ(again.results.pairs(), fresh.results.pairs());
}

TEST(JoinEngineTest, OverflowRecoveryUnaffectedByReusedScratch) {
  // Forced estimator undershoot overflows the buffer and triggers
  // rollback-and-split; a warm run that reuses both the cached plan and
  // the recycled scratch buffers must take the exact same recovery
  // decisions as the cold run.
  const Dataset ds = gen_exponential(3000, 2, 117);
  JoinEngine engine;
  PreparedDataset prep = engine.prepare(ds);

  auto overflow_cfg = [](std::size_t vi) {
    SelfJoinConfig cfg = kVariants[vi].make(0.04);
    cfg.batching.buffer_pairs = vi == 5 ? 20'000 : 5000;
    cfg.batching.inject_estimator_skew = 0.2;
    cfg.batching.inject_capacity = vi == 5 ? 5000 : 0;
    cfg.batching.max_overflow_retries = 1'000'000;
    cfg.store_pairs = true;
    return cfg;
  };
  for (const std::size_t vi : {std::size_t{0}, std::size_t{5}}) {
    const SelfJoinConfig cfg = overflow_cfg(vi);
    JoinRun cold = run_once(engine, prep, cfg);
    ASSERT_GE(cold.out.stats.overflow_retries, 1u) << kVariants[vi].name;
    // Recycle the cold run's buffers so the warm run demonstrably
    // executes on reused scratch.
    const std::uint64_t cold_pairs = cold.out.stats.result_pairs;
    const std::uint64_t cold_retries = cold.out.stats.overflow_retries;
    const std::string cold_trace = cold.trace_json;
    auto cold_stats = cold.out.stats;
    engine.recycle(std::move(cold.out));

    JoinRun warm = run_once(engine, prep, cfg);
    EXPECT_EQ(warm.out.stats.result_pairs, cold_pairs);
    EXPECT_EQ(warm.out.stats.overflow_retries, cold_retries);
    EXPECT_EQ(warm.out.stats.wasted.warps_launched,
              cold_stats.wasted.warps_launched);
    EXPECT_EQ(warm.out.stats.wasted.busy_cycles,
              cold_stats.wasted.busy_cycles);
    EXPECT_EQ(warm.out.stats.wasted.aborted_launches,
              cold_stats.wasted.aborted_launches);
    EXPECT_EQ(warm.trace_json, cold_trace) << kVariants[vi].name;
  }
}

TEST(JoinEngineTest, RecycledScratchKeepsResultsIdentical) {
  const Dataset ds = gen_exponential(2500, 2, 77);
  JoinEngine engine;
  PreparedDataset prep = engine.prepare(ds);
  const SelfJoinConfig cfg = variant_config(kVariants[3], 0);  // SORTBYWL

  JoinRun first = run_once(engine, prep, cfg);
  const auto pairs = first.out.results.pairs();
  const std::string trace = first.trace_json;
  engine.recycle(std::move(first.out));

  const JoinRun second = run_once(engine, prep, cfg);
  EXPECT_EQ(second.out.results.pairs(), pairs);
  EXPECT_EQ(second.trace_json, trace);
}

TEST(JoinEngineTest, EngineOwnsPoolsAcrossRuns) {
  JoinEngine engine;
  // Threaded runs through the engine (no external pool supplied; the
  // engine's service leases one from its depot) match the sequential
  // answer.
  const Dataset ds = gen_exponential(2000, 2, 91);
  PreparedDataset prep = engine.prepare(ds);
  SelfJoinConfig cfg = variant_config(kVariants[5], 2);
  const SelfJoinOutput par = engine.run(prep, cfg);
  cfg.device.host.num_threads = 0;
  const SelfJoinOutput seq = engine.run(prep, cfg);
  EXPECT_EQ(par.results.pairs(), seq.results.pairs());
  EXPECT_EQ(par.stats.kernel.makespan_cycles,
            seq.stats.kernel.makespan_cycles);
}

TEST(JoinEngineTest, CacheCountersTellTheReuseStory) {
  const Dataset ds = gen_exponential(2000, 2, 13);
  obs::Registry metrics;
  EngineConfig ecfg;
  ecfg.obs.metrics = &metrics;
  JoinEngine engine(ecfg);
  PreparedDataset prep = engine.prepare(ds);

  // Two variants sharing (epsilon, pattern): FULL-pattern WORKQUEUE and
  // SORTBYWL share the grid, the workloads, and the D' order.
  SelfJoinConfig wq = SelfJoinConfig::work_queue_cfg(0.04);
  wq.store_pairs = false;
  engine.recycle(engine.run(prep, wq));
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.workload.misses").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.order.misses").value(), 1u);

  SelfJoinConfig sb = SelfJoinConfig::sort_by_wl(0.04);
  sb.store_pairs = false;
  engine.recycle(engine.run(prep, sb));
  EXPECT_EQ(metrics.counter("sj.cache.grid.hits").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.workload.hits").value(), 1u);

  // A different epsilon shares nothing.
  SelfJoinConfig other = SelfJoinConfig::work_queue_cfg(0.05);
  other.store_pairs = false;
  engine.recycle(engine.run(prep, other));
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), 2u);
  EXPECT_GE(metrics.counter("sj.cache.misses").value(),
            metrics.counter("sj.cache.grid.misses").value());
}

TEST(JoinEngineTest, EngineTracerSeesPrepareAndReuseSpans) {
  const Dataset ds = gen_exponential(1500, 2, 8);
  obs::Tracer engine_tracer(obs::TimeMode::Logical);
  EngineConfig ecfg;
  ecfg.obs.tracer = &engine_tracer;
  JoinEngine engine(ecfg);
  PreparedDataset prep = engine.prepare(ds);

  SelfJoinConfig cfg = SelfJoinConfig::combined(0.04);
  cfg.store_pairs = false;
  engine.recycle(engine.run(prep, cfg));  // cold: no plan_reuse span
  engine.recycle(engine.run(prep, cfg));  // warm: plan_reuse span
  std::ostringstream os;
  engine_tracer.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"prepare\""), std::string::npos);
  EXPECT_NE(json.find("\"plan_reuse\""), std::string::npos);
}

TEST(JoinEngineTest, RunValidatesLikeTheFreeFunction) {
  const Dataset ds = gen_exponential(500, 2, 3);
  JoinEngine engine;
  PreparedDataset prep = engine.prepare(ds);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.0);  // invalid epsilon
  EXPECT_THROW((void)engine.run(prep, cfg), CheckError);

  const Dataset empty(2);
  PreparedDataset eprep = engine.prepare(empty);
  const SelfJoinConfig ok = SelfJoinConfig::combined(0.04);
  EXPECT_THROW((void)engine.run(eprep, ok), CheckError);
}

}  // namespace
}  // namespace gsj
