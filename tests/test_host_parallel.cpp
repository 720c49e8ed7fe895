// Equivalence suite for deterministic multi-threaded warp execution:
// the parallel host path (device.host.num_threads > 0) must be
// *bit-identical* to the sequential path — result pairs (canonical and
// raw emission order), every KernelStats field, per-batch stats, WEE,
// imbalance diagnostics, and byte-identical logical-time trace JSON —
// for every paper variant and any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "data/generators.hpp"
#include "obs/trace.hpp"
#include "simt/launch.hpp"
#include "sj/selfjoin.hpp"

namespace gsj {
namespace {

int max_threads() {
  return std::max(4, static_cast<int>(std::thread::hardware_concurrency()));
}

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

/// One run with a logical-time tracer; returns output + trace JSON.
struct JoinRun {
  SelfJoinOutput out;
  std::string trace_json;
};

JoinRun run_variant(const Dataset& ds, const Variant& v, int host_threads) {
  SelfJoinConfig cfg = v.make(0.04);
  // Small buffer forces several batches, exercising pool reuse and the
  // work-queue counter handoff between launches.
  cfg.batching.buffer_pairs = 5000;
  cfg.store_pairs = true;
  cfg.device.host.num_threads = host_threads;
  obs::Tracer tracer(obs::TimeMode::Logical);
  cfg.tracer = &tracer;
  JoinRun r;
  r.out = self_join(ds, cfg);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  r.trace_json = os.str();
  return r;
}

void expect_identical(const JoinRun& seq, const JoinRun& par, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(seq.out.results.pairs(), par.out.results.pairs());
  EXPECT_EQ(seq.out.results.count(), par.out.results.count());

  const auto& a = seq.out.stats;
  const auto& b = par.out.stats;
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
    EXPECT_EQ(a.slots[s].tail_idle_cycles, b.slots[s].tail_idle_cycles)
        << "slot " << s;
  }

  // Logical-time traces are a full event-by-event transcript (warp
  // records in observer order, batch events, host spans) — byte
  // equality means the parallel path replayed the exact sequential
  // history.
  EXPECT_EQ(seq.trace_json, par.trace_json);
}

class HostParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HostParallelEquivalence, BitIdenticalToSequential) {
  const auto [variant_idx, threads] = GetParam();
  const Variant& v = kVariants[static_cast<std::size_t>(variant_idx)];
  const Dataset ds = gen_exponential(3000, 2, 117);
  const JoinRun seq = run_variant(ds, v, /*host_threads=*/0);
  const JoinRun par = run_variant(ds, v, threads);
  expect_identical(seq, par, v.name);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, HostParallelEquivalence,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(1, 2, max_threads())),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& param) {
      std::string name = kVariants[static_cast<std::size_t>(
                             std::get<0>(param.param))].name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_t" + std::to_string(std::get<1>(param.param));
    });

TEST(HostParallel, OverflowRecoveryBitIdenticalToSequential) {
  // Forced estimator undershoot: the join overflows its buffer, aborts
  // launches mid-flight, rolls back and splits. The parallel path must
  // take the *same* recovery decisions — abort polling sits on the
  // block boundaries both paths share — so results, committed stats,
  // wasted-work accounting and the logical trace all stay bit-identical.
  const Dataset ds = gen_exponential(3000, 2, 117);
  for (std::size_t vi : {std::size_t{0}, std::size_t{5}}) {  // FULL, COMBINED
    const Variant& v = kVariants[vi];
    auto run = [&](int threads) {
      SelfJoinConfig cfg = v.make(0.04);
      cfg.batching.buffer_pairs = vi == 5 ? 20'000 : 5000;
      cfg.batching.inject_estimator_skew = 0.2;
      // The queue planner's hard bound never overflows on its own;
      // shrink its detection capacity (kept above the densest single
      // point) so its recovery path runs too.
      cfg.batching.inject_capacity = vi == 5 ? 5000 : 0;
      cfg.batching.max_overflow_retries = 1'000'000;
      cfg.store_pairs = true;
      cfg.device.host.num_threads = threads;
      obs::Tracer tracer(obs::TimeMode::Logical);
      cfg.tracer = &tracer;
      JoinRun r;
      r.out = self_join(ds, cfg);
      std::ostringstream os;
      tracer.write_chrome_json(os);
      r.trace_json = os.str();
      return r;
    };
    const JoinRun seq = run(0);
    const JoinRun par = run(3);
    ASSERT_GE(seq.out.stats.overflow_retries, 1u) << v.name;
    expect_identical(seq, par, v.name);
    EXPECT_EQ(seq.out.stats.overflow_retries, par.out.stats.overflow_retries);
    EXPECT_EQ(seq.out.stats.wasted.warps_launched,
              par.out.stats.wasted.warps_launched);
    EXPECT_EQ(seq.out.stats.wasted.busy_cycles,
              par.out.stats.wasted.busy_cycles);
    EXPECT_EQ(seq.out.stats.wasted.makespan_cycles,
              par.out.stats.wasted.makespan_cycles);
    EXPECT_EQ(seq.out.stats.wasted.aborted_launches,
              par.out.stats.wasted.aborted_launches);
    EXPECT_EQ(seq.out.stats.wasted.results_emitted,
              par.out.stats.wasted.results_emitted);
  }
}

TEST(HostParallel, ExternalPoolIsReusedAcrossJoins) {
  ThreadPool pool(2);
  const Dataset ds = gen_exponential(2000, 2, 118);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.04);
  cfg.store_pairs = true;
  cfg.device.host.num_threads = 2;
  cfg.device.host.pool = &pool;
  const auto a = self_join(ds, cfg);
  const auto b = self_join(ds, cfg);  // same pool, second run
  cfg.device.host.num_threads = 0;
  cfg.device.host.pool = nullptr;
  const auto c = self_join(ds, cfg);
  EXPECT_EQ(a.results.pairs(), c.results.pairs());
  EXPECT_EQ(b.results.pairs(), c.results.pairs());
  EXPECT_EQ(a.stats.kernel.makespan_cycles, c.stats.kernel.makespan_cycles);
}

TEST(HostParallel, SixDimEarlyExitUnchangedResultsAndCost) {
  // dist2 short-circuit (dims > 2) must change neither the result set
  // nor any modeled cycle count.
  const Dataset ds = gen_exponential(1200, 6, 119);
  SelfJoinConfig cfg = SelfJoinConfig::lid_unicomp(0.8);
  cfg.store_pairs = true;
  const auto seq = self_join(ds, cfg);
  cfg.device.host.num_threads = 3;
  const auto par = self_join(ds, cfg);
  EXPECT_EQ(seq.results.pairs(), par.results.pairs());
  EXPECT_EQ(seq.stats.kernel.busy_cycles, par.stats.kernel.busy_cycles);
  EXPECT_EQ(seq.stats.kernel.makespan_cycles,
            par.stats.kernel.makespan_cycles);
}

// --- launch-level: a sharded toy kernel preserves emission order ---

/// Records (warp, value) emissions; the shard API mirrors
/// SelfJoinKernel's. Lane retires after `steps_for(tid)` steps, making
/// warp costs uneven.
struct EmitKernel {
  struct LaneState {
    std::uint64_t tid = 0;
    std::uint32_t remaining = 0;
  };
  struct Shard {
    std::vector<std::uint64_t> log;
  };

  std::vector<std::uint64_t> log;  // merged emission stream

  simt::InitResult init_lane(LaneState& s, const simt::LaneCtx& ctx,
                             simt::WarpScratch&) {
    s.tid = ctx.global_thread_id;
    s.remaining = static_cast<std::uint32_t>(1 + s.tid % 7);
    return {true, 1};
  }
  simt::StepResult step_into(LaneState& s, std::vector<std::uint64_t>& out) {
    out.push_back(s.tid * 1000 + s.remaining);
    --s.remaining;
    return {s.remaining > 0, 1 + static_cast<std::uint32_t>(s.tid % 3)};
  }
  simt::StepResult step(LaneState& s) { return step_into(s, log); }

  Shard make_shard() const { return {}; }
  simt::StepResult step(LaneState& s, Shard& shard) {
    return step_into(s, shard.log);
  }
  void merge_shard(Shard&& shard) {
    log.insert(log.end(), shard.log.begin(), shard.log.end());
  }
};

static_assert(simt::ParallelHostKernel<EmitKernel>);

TEST(HostParallel, LaunchShardMergePreservesEmissionStream) {
  simt::DeviceConfig dev;
  dev.num_sms = 2;
  const std::uint64_t nthreads = 32 * 300;

  EmitKernel seq_k;
  const auto seq_stats = simt::launch(dev, nthreads, seq_k);

  for (const int threads : {1, 3}) {
    dev.host.num_threads = threads;
    EmitKernel par_k;
    const auto par_stats = simt::launch(dev, nthreads, par_k);
    EXPECT_EQ(seq_k.log, par_k.log) << "threads=" << threads;
    EXPECT_EQ(seq_stats.busy_cycles, par_stats.busy_cycles);
    EXPECT_EQ(seq_stats.makespan_cycles, par_stats.makespan_cycles);
    EXPECT_EQ(seq_stats.warp_steps, par_stats.warp_steps);
    EXPECT_EQ(seq_stats.active_lane_steps, par_stats.active_lane_steps);
    EXPECT_EQ(seq_stats.tail_idle_cycles, par_stats.tail_idle_cycles);
  }
}

TEST(HostParallel, AbortedLaunchStopsAtBlockBoundaryBitIdentically) {
  // The abort hook is polled at multiples of detail::kWarpBlock on both
  // paths; a condition on merged side effects must stop them after the
  // exact same set of executed warps.
  simt::DeviceConfig dev;
  dev.num_sms = 2;
  const std::uint64_t num_warps = simt::detail::kWarpBlock * 2 + 500;
  const std::uint64_t nthreads = 32 * num_warps;

  auto run = [&](int threads) {
    dev.host.num_threads = threads;
    EmitKernel k;
    const auto stats = simt::launch(
        dev, nthreads, k, {}, [&k] { return !k.log.empty(); });
    return std::pair{std::move(k.log), stats};
  };
  const auto [seq_log, seq_stats] = run(0);
  EXPECT_EQ(seq_stats.aborted_launches, 1u);
  EXPECT_EQ(seq_stats.warps_launched, simt::detail::kWarpBlock);

  for (const int threads : {1, 3}) {
    const auto [par_log, par_stats] = run(threads);
    EXPECT_EQ(par_log, seq_log) << "threads=" << threads;
    EXPECT_EQ(par_stats.aborted_launches, seq_stats.aborted_launches);
    EXPECT_EQ(par_stats.warps_launched, seq_stats.warps_launched);
    EXPECT_EQ(par_stats.busy_cycles, seq_stats.busy_cycles);
    EXPECT_EQ(par_stats.makespan_cycles, seq_stats.makespan_cycles);
    EXPECT_EQ(par_stats.warp_steps, seq_stats.warp_steps);
    EXPECT_EQ(par_stats.tail_idle_cycles, seq_stats.tail_idle_cycles);
  }
}

TEST(HostParallel, UnsetAbortHookChangesNothing) {
  simt::DeviceConfig dev;
  dev.num_sms = 2;
  const std::uint64_t nthreads = 32 * (simt::detail::kWarpBlock + 100);
  EmitKernel plain, hooked;
  const auto a = simt::launch(dev, nthreads, plain);
  const auto b =
      simt::launch(dev, nthreads, hooked, {}, [] { return false; });
  EXPECT_EQ(plain.log, hooked.log);
  EXPECT_EQ(a.warps_launched, b.warps_launched);
  EXPECT_EQ(a.busy_cycles, b.busy_cycles);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(b.aborted_launches, 0u);
}

TEST(HostParallel, AbortHookIsPolledOnlyBeforeWarpBlocks) {
  // The launch polls its hook in one place, before every kWarpBlock-th
  // warp: never before the first warp and never after the last, on
  // either host path.
  constexpr std::uint64_t kBlock = simt::detail::kWarpBlock;
  simt::DeviceConfig dev;
  dev.num_sms = 2;
  for (const int threads : {0, 3}) {
    dev.host.num_threads = threads;
    for (const std::uint64_t warps :
         {std::uint64_t{1}, kBlock, kBlock + 1, 2 * kBlock + 500}) {
      EmitKernel k;
      std::uint64_t polls = 0;
      const auto stats = simt::launch(dev, 32 * warps, k, {}, [&polls] {
        ++polls;
        return false;
      });
      EXPECT_EQ(polls, (warps - 1) / kBlock)
          << "threads=" << threads << " warps=" << warps;
      EXPECT_EQ(stats.warps_launched, warps);
      EXPECT_EQ(stats.aborted_launches, 0u);
    }
  }
}

TEST(HostParallel, ObserverFiresInDispatchOrderUnderThreads) {
  simt::DeviceConfig dev;
  dev.num_sms = 2;
  const std::uint64_t nthreads = 32 * 200;

  auto collect = [&](int threads) {
    dev.host.num_threads = threads;
    EmitKernel k;
    std::vector<simt::WarpRecord> recs;
    simt::launch(dev, nthreads, k,
                 [&recs](const simt::WarpRecord& r) { recs.push_back(r); });
    return recs;
  };
  const auto seq = collect(0);
  const auto par = collect(3);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].warp_id, par[i].warp_id) << i;
    EXPECT_EQ(seq[i].dispatch_seq, par[i].dispatch_seq) << i;
    EXPECT_EQ(seq[i].start_cycle, par[i].start_cycle) << i;
    EXPECT_EQ(seq[i].cycles, par[i].cycles) << i;
    EXPECT_EQ(seq[i].slot, par[i].slot) << i;
    EXPECT_EQ(par[i].dispatch_seq, i);  // observer order == dispatch order
  }
}

TEST(HostParallel, ParallelStableSortMatchesStdStableSort) {
  ThreadPool pool(4);
  // Heavily tied keys — exactly where stability is observable.
  std::vector<std::pair<int, int>> v;
  v.reserve(100000);
  std::uint64_t x = 42;
  for (int i = 0; i < 100000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    v.emplace_back(static_cast<int>(x >> 60), i);
  }
  auto expected = v;
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::stable_sort(expected.begin(), expected.end(), by_key);
  parallel_stable_sort(v, by_key, &pool, /*min_parallel=*/1);
  EXPECT_EQ(v, expected);
}

}  // namespace
}  // namespace gsj
