// Kernel launch: lockstep warp execution plus greedy resident-slot
// scheduling. See device.hpp for the model description.
//
// A kernel is any type K providing:
//
//   struct K::LaneState;                       // default-constructible
//   simt::InitResult K::init_lane(LaneState&, const LaneCtx&, WarpScratch&);
//   simt::StepResult K::step(LaneState&);
//
// init_lane runs for every lane of a warp, in lane order, when the warp
// is dispatched — this is where CUDA-side thread-id math, cooperative-
// group leader elections and work-queue atomics live (lane order makes
// leader-to-group broadcast through WarpScratch natural, modeling
// __shfl_sync). step executes one lockstep work unit and reports its
// cycle cost; a warp step costs the maximum over its active lanes, and
// a warp retires when every lane reports inactive.
//
// Init costs are *summed* across lanes (atomics to one address
// serialize within a warp; the slight overcharge for the non-atomic
// part of init is a documented simplification).
//
// Parallel host execution. With cfg.host.num_threads > 0 and a kernel
// that additionally provides the shard API
//
//   auto K::make_shard()                   // per-warp side-effect sink
//   simt::StepResult K::step(LaneState&, Shard&);
//   void K::merge_shard(Shard&&);          // sequential, dispatch order
//
// the launch runs in three passes (docs/PERFORMANCE.md):
//   1. sequential dispatch — draw the RNG window picks and run
//      init_lane in dispatch order (work-queue counter grabs happen
//      exactly as in the sequential path);
//   2. parallel step loops — each warp's lockstep loop depends only on
//      its own lanes' state, so warps execute concurrently on a
//      ThreadPool, emitting into private shards;
//   3. sequential replay — the slot min-heap is replayed with the
//      computed cycle costs, shards merge and the WarpObserver fires in
//      dispatch order.
// Every modeled quantity (cycles, stats, results, observer stream) is
// bit-identical to the sequential path; kernels lacking the shard API
// silently keep the sequential path.
//
// Warp replay. A kernel may additionally provide
//
//   simt::detail::WarpRun K::run_warp(LaneState* lanes,
//                                     const std::uint8_t* active,
//                                     int warp_size);
//   simt::detail::WarpRun K::run_warp(LaneState*, const std::uint8_t*,
//                                     int, Shard&);  // parallel path
//
// The launch calls it once per warp, right after init_lane, in place
// of the lockstep loop: it must leave the side effects (in order) that
// the loop over step() would leave, and return that loop's steps,
// active lane-steps and cycles, init cost excluded (the launch adds
// it). Lanes with active[l] == 0 take no step. A kernel's lanes never
// read each other, so the hook can replay each lane's trace on its own
// and reduce the warp afterwards (sj/kernels.hpp). Kernels without the
// hook (or, on the parallel path, without its shard overload) run the
// generic lockstep loop.
//
// Abortable launch. An optional `should_abort` hook is polled every
// detail::kWarpBlock warps — at the *same* warp-count boundaries on the
// sequential and parallel paths (the parallel path's block merges), so
// an abort decision driven by merged side effects (e.g. the result
// count crossing the batch buffer capacity) stops both paths after the
// exact same set of executed warps, keeping them bit-identical. On
// abort the remaining warps never run, warps_launched reports only the
// executed ones and stats.aborted_launches is 1. This models a host
// that cancels the remaining grid once the device-side result counter
// passes the pinned-buffer capacity (overflow recovery, sj/selfjoin).
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "simt/device.hpp"

namespace gsj::simt {

/// Identity of a lane within a launch.
struct LaneCtx {
  std::uint64_t global_thread_id = 0;
  int lane_id = 0;          ///< 0..warp_size-1
  std::uint64_t warp_id = 0;  ///< launch-order warp index
};

struct InitResult {
  bool active = false;
  std::uint32_t cost = 0;
};

struct StepResult {
  bool active = false;  ///< false once the lane has retired
  std::uint32_t cost = 1;
};

/// Per-warp shared scratch, the model of shared memory/__shfl_sync used
/// by cooperative groups to broadcast a work-queue grab to the group.
using WarpScratch = std::array<std::uint64_t, 32>;

/// Per-warp metrics handed to the optional observer.
struct WarpRecord {
  std::uint64_t warp_id = 0;       ///< launch-order id
  std::uint64_t dispatch_seq = 0;  ///< execution order
  std::uint64_t start_cycle = 0;
  std::uint64_t cycles = 0;  ///< init + steps
  std::uint64_t steps = 0;
  std::uint64_t active_lane_steps = 0;
  int slot = 0;  ///< resident-warp slot (sm = slot / resident_warps_per_sm)
};

using WarpObserver = std::function<void(const WarpRecord&)>;

/// Kernels whose step loops may run on host worker threads: side
/// effects go to a per-warp shard, merged sequentially in dispatch
/// order so the shared sinks see the exact sequential event stream.
template <typename K>
concept ParallelHostKernel =
    requires(K& k, typename K::LaneState& s,
             decltype(std::declval<K&>().make_shard())& shard) {
      { k.step(s, shard) } -> std::same_as<StepResult>;
      k.merge_shard(std::move(shard));
    };

namespace detail {

/// One warp's step-loop outcome (the launch's cycles include init).
struct WarpRun {
  std::uint64_t cycles = 0;
  std::uint64_t steps = 0;
  std::uint64_t active_lane_steps = 0;
};

}  // namespace detail

/// Kernels that replay a whole warp at once (see header comment).
/// WarpRunKernel<K, Shard> asks for the parallel path's overload, which
/// emits into a shard.
template <typename K, typename... Shard>
concept WarpRunKernel =
    requires(K& k, typename K::LaneState* lanes, const std::uint8_t* active,
             int warp_size, Shard&... shard) {
      {
        k.run_warp(lanes, active, warp_size, shard...)
      } -> std::same_as<detail::WarpRun>;
    };

/// Launch abort hook: polled between warp blocks; returning true stops
/// the launch before the next block (see header comment).
using LaunchAbort = std::function<bool()>;

namespace detail {

/// Warps per execution block: the parallel host path's shard window and
/// the abort-hook polling interval (both paths poll at multiples of
/// this count, which is what keeps aborts bit-identical across them).
constexpr std::uint64_t kWarpBlock = 4096;

/// Warp ids in dispatch order: uniform picks from a bounded window at
/// the head of the pending queue. A pure function of (seed, window,
/// num_warps) — the RNG consumption never depends on warp execution,
/// which is what makes the dispatch pass separable from the step pass.
inline std::vector<std::uint64_t> dispatch_order(const DeviceConfig& cfg,
                                                 std::uint64_t num_warps) {
  Xoshiro256 rng(cfg.scheduler_seed);
  std::vector<std::uint64_t> order;
  order.reserve(static_cast<std::size_t>(num_warps));
  std::vector<std::uint64_t> window;
  window.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      num_warps, static_cast<std::uint64_t>(cfg.dispatch_window))));
  std::uint64_t next_unqueued = 0;
  auto refill = [&] {
    while (window.size() < static_cast<std::size_t>(cfg.dispatch_window) &&
           next_unqueued < num_warps) {
      window.push_back(next_unqueued++);
    }
  };
  refill();
  while (!window.empty()) {
    const std::size_t pick =
        window.size() == 1
            ? 0
            : static_cast<std::size_t>(rng.uniform_index(window.size()));
    order.push_back(window[pick]);
    window.erase(window.begin() + static_cast<std::ptrdiff_t>(pick));
    refill();
  }
  return order;
}

/// Min-heap of (free_cycle, slot) replayed in dispatch order; lowest
/// slot id breaks ties so runs are deterministic.
class SlotSchedule {
 public:
  explicit SlotSchedule(int nslots) : slot_finish_(static_cast<std::size_t>(nslots), 0) {
    for (int s = 0; s < nslots; ++s) slots_.emplace(0, s);
  }

  /// Places the next dispatched warp; returns {start_cycle, slot}.
  std::pair<std::uint64_t, int> place(std::uint64_t warp_cycles) {
    const auto [free_at, slot] = slots_.top();
    slots_.pop();
    const std::uint64_t finish = free_at + warp_cycles;
    slot_finish_[static_cast<std::size_t>(slot)] = finish;
    slots_.emplace(finish, slot);
    return {free_at, slot};
  }

  void finalize(KernelStats& stats) const {
    std::uint64_t makespan = 0;
    for (auto f : slot_finish_) makespan = std::max(makespan, f);
    stats.makespan_cycles = makespan;
    for (auto f : slot_finish_) stats.tail_idle_cycles += makespan - f;
  }

 private:
  using Slot = std::pair<std::uint64_t, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> slots_;
  std::vector<std::uint64_t> slot_finish_;
};

/// Runs init_lane over one warp's lanes (in lane order); returns the
/// summed init cost and fills `lanes`/`active`.
template <typename K>
std::uint64_t init_warp(const DeviceConfig& cfg, std::uint64_t num_threads,
                        K& k, std::uint64_t w,
                        typename K::LaneState* lanes, std::uint8_t* active,
                        WarpScratch& scratch) {
  const auto ws = static_cast<std::uint64_t>(cfg.warp_size);
  std::uint64_t init_cost = cfg.cost_warp_launch;
  scratch.fill(0);
  for (int l = 0; l < cfg.warp_size; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const std::uint64_t tid = w * ws + static_cast<std::uint64_t>(l);
    lanes[li] = typename K::LaneState{};
    if (tid >= num_threads) {
      active[li] = 0;
      continue;
    }
    LaneCtx ctx{tid, l, w};
    const InitResult r = k.init_lane(lanes[li], ctx, scratch);
    active[li] = r.active ? 1 : 0;
    init_cost += r.cost;
  }
  return init_cost;
}

/// Lockstep step loop of one warp: each step costs the max over its
/// active lanes; the warp retires when every lane reports inactive.
template <typename LaneState, typename StepFn>
WarpRun warp_step_loop(int warp_size, LaneState* lanes, std::uint8_t* active,
                       StepFn&& step) {
  WarpRun run;
  for (;;) {
    std::uint32_t step_cost = 0;
    std::uint32_t nactive = 0;
    for (int l = 0; l < warp_size; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if (!active[li]) continue;
      const StepResult r = step(lanes[li]);
      active[li] = r.active ? 1 : 0;
      step_cost = std::max(step_cost, r.cost);
      ++nactive;
    }
    if (nactive == 0) break;
    ++run.steps;
    run.active_lane_steps += nactive;
    run.cycles += step_cost;
  }
  return run;
}

/// Runs one initialized warp: `k`'s run_warp hook (the overload taking
/// `shard...`, if given) when it has one, the lockstep loop over step()
/// otherwise. Adds `init_cost` to the cycles.
template <typename K, typename... Shard>
WarpRun run_warp(K& k, int warp_size, typename K::LaneState* lanes,
                 std::uint8_t* active, std::uint64_t init_cost,
                 Shard&... shard) {
  WarpRun run;
  if constexpr (WarpRunKernel<K, Shard...>) {
    run = k.run_warp(lanes, active, warp_size, shard...);
  } else {
    run = warp_step_loop(warp_size, lanes, active,
                         [&k, &shard...](typename K::LaneState& s) {
                           return k.step(s, shard...);
                         });
  }
  run.cycles += init_cost;
  return run;
}

}  // namespace detail

/// Executes `num_threads` logical threads of kernel `k` on the modeled
/// device. Deterministic for fixed config (including scheduler_seed);
/// cfg.host selects sequential or parallel *host* execution with
/// bit-identical modeled behavior either way.
template <typename K>
KernelStats launch(const DeviceConfig& cfg, std::uint64_t num_threads, K& k,
                   const WarpObserver& observer = {},
                   const LaunchAbort& should_abort = {}) {
  cfg.validate();

  KernelStats stats;
  stats.launches = 1;
  if (num_threads == 0) return stats;

  const auto ws = static_cast<std::uint64_t>(cfg.warp_size);
  const std::uint64_t num_warps = (num_threads + ws - 1) / ws;
  stats.warps_launched = num_warps;  // reduced below if aborted

  const std::vector<std::uint64_t> order =
      detail::dispatch_order(cfg, num_warps);
  detail::SlotSchedule sched(cfg.total_slots());

  // Hoisted emptiness test: an unset observer must cost nothing per
  // warp — no std::function invocation and no WarpRecord construction
  // (see BM_LaunchObserver in bench_micro.cpp).
  const bool observed = static_cast<bool>(observer);

  auto retire = [&](std::uint64_t w, std::uint64_t seq,
                    const detail::WarpRun& run) {
    stats.warp_steps += run.steps;
    stats.active_lane_steps += run.active_lane_steps;
    stats.busy_cycles += run.cycles;
    const auto [start, slot] = sched.place(run.cycles);
    if (observed) {
      WarpRecord rec;
      rec.warp_id = w;
      rec.dispatch_seq = seq;
      rec.start_cycle = start;
      rec.cycles = run.cycles;
      rec.steps = run.steps;
      rec.active_lane_steps = run.active_lane_steps;
      rec.slot = slot;
      observer(rec);
    }
  };

  bool done = false;
  if constexpr (ParallelHostKernel<K>) {
    if (cfg.host.num_threads > 0 && num_warps > 1) {
      using Shard = decltype(k.make_shard());
      std::optional<ThreadPool> owned;
      ThreadPool* pool = cfg.host.pool;
      if (pool == nullptr) {
        owned.emplace(static_cast<std::size_t>(cfg.host.num_threads));
        pool = &*owned;
      }

      // Blocked execution bounds the saved lane states / shards to a
      // window of warps while leaving plenty of parallel slack.
      const std::uint64_t block = std::min(num_warps, detail::kWarpBlock);
      std::vector<typename K::LaneState> lanes(
          static_cast<std::size_t>(block * ws));
      std::vector<std::uint8_t> active(static_cast<std::size_t>(block * ws));
      std::vector<std::uint64_t> init_costs(static_cast<std::size_t>(block));
      std::vector<detail::WarpRun> runs(static_cast<std::size_t>(block));
      std::vector<Shard> shards;
      shards.reserve(static_cast<std::size_t>(block));
      WarpScratch scratch{};

      for (std::uint64_t base = 0; base < num_warps; base += block) {
        const std::uint64_t bsize = std::min(block, num_warps - base);
        // Pass 1 — sequential dispatch: init_lane in dispatch order
        // (work-queue counter grabs serialize exactly as sequentially).
        shards.clear();
        for (std::uint64_t i = 0; i < bsize; ++i) {
          const auto off = static_cast<std::size_t>(i * ws);
          init_costs[static_cast<std::size_t>(i)] = detail::init_warp(
              cfg, num_threads, k, order[static_cast<std::size_t>(base + i)],
              lanes.data() + off, active.data() + off, scratch);
          shards.push_back(k.make_shard());
        }
        // Pass 2 — parallel step loops into per-warp shards.
        pool->parallel_for(static_cast<std::size_t>(bsize), [&](std::size_t i) {
          const std::size_t off = i * static_cast<std::size_t>(ws);
          runs[i] = detail::run_warp(k, cfg.warp_size, lanes.data() + off,
                                     active.data() + off, init_costs[i],
                                     shards[i]);
        });
        // Pass 3 — sequential replay: slot heap, stats, observer and
        // shard merge in dispatch order.
        for (std::uint64_t i = 0; i < bsize; ++i) {
          const auto ii = static_cast<std::size_t>(i);
          retire(order[static_cast<std::size_t>(base + i)], base + i, runs[ii]);
          k.merge_shard(std::move(shards[ii]));
        }
        // Abort poll at the block boundary — the merged side effects
        // here equal the sequential path's at the same warp count.
        if (should_abort && base + bsize < num_warps && should_abort()) {
          stats.aborted_launches = 1;
          stats.warps_launched = base + bsize;
          break;
        }
      }
      done = true;
    }
  }

  if (!done) {
    std::vector<typename K::LaneState> lanes(
        static_cast<std::size_t>(cfg.warp_size));
    std::array<std::uint8_t, 32> active{};
    WarpScratch scratch{};
    for (std::uint64_t seq = 0; seq < num_warps; ++seq) {
      // Same polling boundaries as the parallel path's block merges.
      if (should_abort && seq > 0 && seq % detail::kWarpBlock == 0 &&
          should_abort()) {
        stats.aborted_launches = 1;
        stats.warps_launched = seq;
        break;
      }
      const std::uint64_t w = order[static_cast<std::size_t>(seq)];
      const std::uint64_t init_cost = detail::init_warp(
          cfg, num_threads, k, w, lanes.data(), active.data(), scratch);
      const detail::WarpRun run = detail::run_warp(
          k, cfg.warp_size, lanes.data(), active.data(), init_cost);
      retire(w, seq, run);
    }
  }

  sched.finalize(stats);
  return stats;
}

}  // namespace gsj::simt
