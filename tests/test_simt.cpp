// Unit/property tests: SIMT warp simulator — lockstep semantics, warp
// execution efficiency accounting, greedy slot scheduling, dispatch
// windows, atomic counter ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "simt/counter.hpp"
#include "simt/launch.hpp"

namespace gsj::simt {
namespace {

/// Test kernel: lane tid performs work[tid] unit-cost steps.
struct FixedWorkKernel {
  std::vector<std::uint32_t> work;

  struct LaneState {
    std::uint32_t remaining = 0;
  };

  InitResult init_lane(LaneState& s, const LaneCtx& ctx, WarpScratch&) {
    s.remaining = work[ctx.global_thread_id];
    return {s.remaining > 0, 0};
  }
  StepResult step(LaneState& s) {
    --s.remaining;
    return {s.remaining > 0, 1};
  }
};

DeviceConfig tiny_device() {
  DeviceConfig d;
  d.num_sms = 2;
  d.resident_warps_per_sm = 2;
  d.dispatch_window = 1;
  d.cost_warp_launch = 0;
  return d;
}

TEST(Launch, UniformWorkHasPerfectWee) {
  FixedWorkKernel k{std::vector<std::uint32_t>(64, 10)};
  const KernelStats st = launch(tiny_device(), 64, k);
  EXPECT_EQ(st.warps_launched, 2u);
  EXPECT_DOUBLE_EQ(st.warp_execution_efficiency(32), 1.0);
  EXPECT_EQ(st.warp_steps, 20u);           // 10 per warp
  EXPECT_EQ(st.active_lane_steps, 640u);   // 64 lanes x 10
}

TEST(Launch, DivergentWorkLowersWee) {
  // One heavy lane per warp: warp runs 32 steps, 31 lanes do 1 step.
  std::vector<std::uint32_t> work(32, 1);
  work[0] = 32;
  FixedWorkKernel k{work};
  const KernelStats st = launch(tiny_device(), 32, k);
  EXPECT_EQ(st.warp_steps, 32u);
  EXPECT_EQ(st.active_lane_steps, 32u + 31u);
  EXPECT_NEAR(st.warp_execution_efficiency(32), 63.0 / (32.0 * 32.0), 1e-12);
}

TEST(Launch, MakespanIsMaxOverSlots) {
  // 4 slots, 4 warps of cost 10 -> makespan 10; 5th warp queues -> 20.
  FixedWorkKernel k4{std::vector<std::uint32_t>(4 * 32, 10)};
  EXPECT_EQ(launch(tiny_device(), 4 * 32, k4).makespan_cycles, 10u);
  FixedWorkKernel k5{std::vector<std::uint32_t>(5 * 32, 10)};
  const KernelStats st = launch(tiny_device(), 5 * 32, k5);
  EXPECT_EQ(st.makespan_cycles, 20u);
  EXPECT_EQ(st.tail_idle_cycles, 3u * 10u);  // three slots idle at the tail
}

TEST(Launch, LptOrderBeatsWorstOrderMakespan) {
  // Classic list-scheduling property the WORKQUEUE exploits: launching
  // the heavy warps first gives a smaller makespan.
  std::vector<std::uint32_t> heavy_first, heavy_last;
  for (int w = 0; w < 16; ++w) {
    const std::uint32_t cost = w < 2 ? 100 : 10;  // two heavy warps
    for (int l = 0; l < 32; ++l) heavy_first.push_back(cost);
  }
  for (int w = 0; w < 16; ++w) {
    const std::uint32_t cost = w >= 14 ? 100 : 10;
    for (int l = 0; l < 32; ++l) heavy_last.push_back(cost);
  }
  FixedWorkKernel kf{heavy_first}, kl{heavy_last};
  const auto mf = launch(tiny_device(), 16 * 32, kf).makespan_cycles;
  const auto ml = launch(tiny_device(), 16 * 32, kl).makespan_cycles;
  EXPECT_LT(mf, ml);
}

TEST(Launch, DispatchWindowOneIsLaunchOrder) {
  std::vector<std::uint64_t> order;
  FixedWorkKernel k{std::vector<std::uint32_t>(8 * 32, 5)};
  DeviceConfig d = tiny_device();
  (void)launch(d, 8 * 32, k, [&](const WarpRecord& r) {
    order.push_back(r.warp_id);
  });
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Launch, WideDispatchWindowReordersDeterministically) {
  DeviceConfig d = tiny_device();
  d.dispatch_window = 8;
  FixedWorkKernel k{std::vector<std::uint32_t>(32 * 32, 5)};
  std::vector<std::uint64_t> order1, order2;
  (void)launch(d, 32 * 32, k,
               [&](const WarpRecord& r) { order1.push_back(r.warp_id); });
  (void)launch(d, 32 * 32, k,
               [&](const WarpRecord& r) { order2.push_back(r.warp_id); });
  EXPECT_EQ(order1, order2);  // same seed, same order
  bool out_of_order = false;
  for (std::size_t i = 1; i < order1.size(); ++i) {
    if (order1[i] < order1[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
  // Window bound: a warp cannot be overtaken by more than window-1.
  std::vector<std::uint64_t> seq_of_warp(order1.size());
  for (std::size_t seq = 0; seq < order1.size(); ++seq) {
    seq_of_warp[order1[seq]] = seq;
  }
  for (std::size_t w = 0; w < seq_of_warp.size(); ++w) {
    EXPECT_LE(w, seq_of_warp[w] + static_cast<std::size_t>(d.dispatch_window) - 1);
  }
}

TEST(Launch, ZeroThreadsIsEmptyStats) {
  FixedWorkKernel k{{}};
  const KernelStats st = launch(tiny_device(), 0, k);
  EXPECT_EQ(st.warps_launched, 0u);
  EXPECT_EQ(st.makespan_cycles, 0u);
  EXPECT_DOUBLE_EQ(st.warp_execution_efficiency(32), 0.0);
}

TEST(Launch, PartialLastWarpMasksTailLanes) {
  FixedWorkKernel k{std::vector<std::uint32_t>(40, 4)};  // 1.25 warps
  const KernelStats st = launch(tiny_device(), 40, k);
  EXPECT_EQ(st.warps_launched, 2u);
  // Second warp: 8 active lanes over 4 steps.
  EXPECT_EQ(st.active_lane_steps, 40u * 4u);
  EXPECT_EQ(st.warp_steps, 8u);
  EXPECT_LT(st.warp_execution_efficiency(32), 1.0);
}

TEST(Launch, BusyCyclesEqualSumOfWarpCycles) {
  std::vector<std::uint32_t> work(96);
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i] = static_cast<std::uint32_t>(1 + i % 7);
  }
  FixedWorkKernel k{work};
  std::uint64_t sum = 0;
  const KernelStats st = launch(tiny_device(), 96, k, [&](const WarpRecord& r) {
    sum += r.cycles;
  });
  EXPECT_EQ(st.busy_cycles, sum);
}

TEST(Launch, ObserverRecordsAreCoherent) {
  FixedWorkKernel k{std::vector<std::uint32_t>(12 * 32, 7)};
  DeviceConfig d = tiny_device();
  std::vector<WarpRecord> recs;
  const KernelStats st =
      launch(d, 12 * 32, k, [&](const WarpRecord& r) { recs.push_back(r); });
  ASSERT_EQ(recs.size(), 12u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].dispatch_seq, i);  // observer called in dispatch order
    EXPECT_EQ(recs[i].steps, 7u);
    EXPECT_EQ(recs[i].active_lane_steps, 7u * 32);
    EXPECT_EQ(recs[i].cycles, 7u);  // unit costs, zero launch overhead
  }
  // 4 slots, 12 warps of 7 cycles -> 3 waves.
  EXPECT_EQ(st.makespan_cycles, 21u);
}

TEST(Launch, TailIdlePlusBusyEqualsSlotCycles) {
  std::vector<std::uint32_t> work;
  for (int w = 0; w < 9; ++w) {
    for (int l = 0; l < 32; ++l) {
      work.push_back(static_cast<std::uint32_t>(3 + 5 * w));
    }
  }
  FixedWorkKernel k{work};
  const DeviceConfig d = tiny_device();
  const KernelStats st = launch(d, 9 * 32, k);
  // Every slot is busy until its last warp retires; the remainder up to
  // the makespan is tail idle (backfill gaps are impossible with greedy
  // earliest-free dispatch and no gaps between consecutive warps).
  EXPECT_EQ(st.busy_cycles + st.tail_idle_cycles,
            st.makespan_cycles * static_cast<std::uint64_t>(d.total_slots()));
}

/// FixedWorkKernel plus a run_warp hook that replays the warp in one
/// pass: lane l takes its remaining steps, so the warp takes the
/// longest of them, each charged `cycles_per_step`.
struct RunWarpWorkKernel : FixedWorkKernel {
  std::uint32_t cycles_per_step = 1;

  detail::WarpRun run_warp(LaneState* lanes, const std::uint8_t* active,
                           int warp_size) {
    detail::WarpRun run;
    for (int l = 0; l < warp_size; ++l) {
      if (!active[l]) continue;
      run.steps = std::max<std::uint64_t>(run.steps, lanes[l].remaining);
      run.active_lane_steps += lanes[l].remaining;
      lanes[l].remaining = 0;
    }
    run.cycles = run.steps * cycles_per_step;
    return run;
  }
};

static_assert(WarpRunKernel<RunWarpWorkKernel>);
static_assert(!WarpRunKernel<FixedWorkKernel>);

TEST(Launch, RunWarpHookChargesStepsLaneStepsAndCycles) {
  // One full warp of 10 steps per lane at 3 cycles each: the launch
  // charges what the hook reports, plus the warp's init cost.
  RunWarpWorkKernel k;
  k.work.assign(32, 10);
  k.cycles_per_step = 3;
  DeviceConfig d = tiny_device();
  d.cost_warp_launch = 7;
  std::vector<WarpRecord> recs;
  const KernelStats st =
      launch(d, 32, k, [&](const WarpRecord& r) { recs.push_back(r); });
  EXPECT_EQ(st.warp_steps, 10u);
  EXPECT_EQ(st.active_lane_steps, 320u);
  EXPECT_EQ(st.busy_cycles, 10u * 3u + 7u);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].steps, 10u);
  EXPECT_EQ(recs[0].active_lane_steps, 320u);
  EXPECT_EQ(recs[0].cycles, 37u);
}

TEST(Launch, RunWarpHookMatchesPerStepLoop) {
  // Uneven lanes and a partial last warp: a hook that reports what the
  // lockstep loop would charge must leave every stat and record
  // unchanged.
  std::vector<std::uint32_t> work;
  for (std::uint32_t i = 0; i < 3 * 32 + 5; ++i) work.push_back(1 + (i * 7) % 23);
  FixedWorkKernel plain{work};
  RunWarpWorkKernel fast;
  fast.work = work;
  std::vector<WarpRecord> a, b;
  const KernelStats sa = launch(tiny_device(), work.size(), plain,
                                [&](const WarpRecord& r) { a.push_back(r); });
  const KernelStats sb = launch(tiny_device(), work.size(), fast,
                                [&](const WarpRecord& r) { b.push_back(r); });
  EXPECT_EQ(sa.warps_launched, 4u);
  EXPECT_EQ(sa.warp_steps, sb.warp_steps);
  EXPECT_EQ(sa.active_lane_steps, sb.active_lane_steps);
  EXPECT_EQ(sa.busy_cycles, sb.busy_cycles);
  EXPECT_EQ(sa.makespan_cycles, sb.makespan_cycles);
  EXPECT_EQ(sa.tail_idle_cycles, sb.tail_idle_cycles);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].warp_id, b[i].warp_id) << i;
    EXPECT_EQ(a[i].start_cycle, b[i].start_cycle) << i;
    EXPECT_EQ(a[i].cycles, b[i].cycles) << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << i;
    EXPECT_EQ(a[i].active_lane_steps, b[i].active_lane_steps) << i;
  }
}

TEST(KernelStats, MergeAccumulates) {
  KernelStats a, b;
  a.launches = a.warps_launched = 1;
  a.warp_steps = 10;
  a.active_lane_steps = 100;
  a.makespan_cycles = 50;
  b = a;
  a.merge(b);
  EXPECT_EQ(a.launches, 2u);
  EXPECT_EQ(a.warp_steps, 20u);
  EXPECT_EQ(a.makespan_cycles, 100u);
}

TEST(KernelStats, SecondsUsesClockAndIssueContention) {
  DeviceConfig d;
  d.clock_ghz = 2.0;
  d.resident_warps_per_sm = 1;
  d.issue_width = 1;
  KernelStats s;
  s.makespan_cycles = 2'000'000'000;
  EXPECT_DOUBLE_EQ(s.seconds(d), 1.0);
  // 8 resident warps sharing one issue slot run 8x slower each.
  d.resident_warps_per_sm = 8;
  EXPECT_DOUBLE_EQ(s.seconds(d), 8.0);
  d.issue_width = 2;
  EXPECT_DOUBLE_EQ(s.seconds(d), 4.0);
}

TEST(DeviceCounter, FetchAddSequence) {
  DeviceCounter c;
  EXPECT_EQ(c.fetch_add(1), 0u);
  EXPECT_EQ(c.fetch_add(3), 1u);
  EXPECT_EQ(c.fetch_add(1), 4u);
  c.reset(100);
  EXPECT_EQ(c.fetch_add(1), 100u);
}

TEST(Launch, RejectsBadConfig) {
  FixedWorkKernel k{{}};
  DeviceConfig d = tiny_device();
  d.warp_size = 0;
  EXPECT_THROW(launch(d, 1, k), CheckError);
  d = tiny_device();
  d.dispatch_window = 0;
  EXPECT_THROW(launch(d, 1, k), CheckError);
}

}  // namespace
}  // namespace gsj::simt
