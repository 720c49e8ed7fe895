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
// Host execution. Warps run in blocks, each in three passes
// (docs/PERFORMANCE.md, "The three-pass design"):
//   1. dispatch — run init_lane in dispatch order, the RNG window picks
//      drawn once per launch (work-queue counter grabs happen in the
//      order the device makes them);
//   2. step — each warp's step loop, which depends only on its own
//      lanes' state;
//   3. retire — replay the slot min-heap with the computed cycle costs
//      and fire the WarpObserver, in dispatch order.
// A sequential launch runs blocks of one warp and steps each in place.
// With cfg.host.num_threads > 0, more than one warp and a kernel that
// additionally provides the shard API
//
//   auto K::make_shard()                   // per-warp side-effect sink
//   simt::StepResult K::step(LaneState&, Shard&);
//   void K::merge_shard(Shard&&);          // sequential, dispatch order
//
// the launch is threaded: blocks of detail::kWarpBlock warps, pass 2 on
// a ThreadPool into private shards, which pass 3 merges in dispatch
// order. Every modeled quantity (cycles, stats, results, observer
// stream) is the same on both paths; kernels lacking the shard API
// always run sequentially.
//
// Warp replay. A kernel may additionally provide
//
//   simt::detail::WarpRun K::run_warp(LaneState* lanes,
//                                     const std::uint8_t* active,
//                                     int warp_size);
//   simt::detail::WarpRun K::run_warp(LaneState*, const std::uint8_t*,
//                                     int, Shard&);  // threaded path
//
// The launch calls it once per warp in pass 2, in place of the
// lockstep loop: it must leave the side effects (in order) that
// the loop over step() would leave, and return that loop's steps,
// active lane-steps and cycles, init cost excluded (the launch adds
// it). Lanes with active[l] == 0 take no step. A kernel's lanes never
// read each other, so the hook can replay each lane's trace on its own
// and reduce the warp afterwards (sj/kernels.hpp). Kernels without the
// hook (or, on the threaded path, without its shard overload) run the
// generic lockstep loop.
//
// Abortable launch. An optional `should_abort` hook is polled in one
// place: before every detail::kWarpBlock-th warp, never before the first
// warp or after the last. Both host paths have retired and merged the
// same warps there, so an abort decision driven by merged side effects
// (e.g. the result count crossing the batch buffer capacity) stops both
// after the exact same set of executed warps. On abort the remaining
// warps never run, warps_launched reports only the executed ones and
// stats.aborted_launches is 1. This models a host that cancels the
// remaining grid once the device-side result counter passes the
// pinned-buffer capacity (overflow recovery, sj/execute.cpp).
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

/// The shard type of a ParallelHostKernel; an empty stand-in otherwise.
template <typename K>
struct ShardOf {
  struct type {};
};
template <ParallelHostKernel K>
struct ShardOf<K> {
  using type = decltype(std::declval<K&>().make_shard());
};

}  // namespace detail

/// Kernels that replay a whole warp at once (see header comment).
/// WarpRunKernel<K, Shard> asks for the threaded path's overload, which
/// emits into a shard.
template <typename K, typename... Shard>
concept WarpRunKernel =
    requires(K& k, typename K::LaneState* lanes, const std::uint8_t* active,
             int warp_size, Shard&... shard) {
      {
        k.run_warp(lanes, active, warp_size, shard...)
      } -> std::same_as<detail::WarpRun>;
    };

/// Launch abort hook: polled before every kWarpBlock-th warp; returning
/// true stops the launch there (see header comment).
using LaunchAbort = std::function<bool()>;

namespace detail {

/// Warps per threaded block (the shard window) and the abort-hook
/// polling interval: both host paths poll at multiples of this count,
/// which is what keeps aborts bit-identical across them.
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

  // The one warp loop (see header comment): a threaded launch has a
  // pool and blocks of kWarpBlock warps, a sequential one blocks of one.
  ThreadPool* pool = nullptr;
  std::optional<ThreadPool> owned;
  if constexpr (ParallelHostKernel<K>) {
    if (cfg.host.num_threads > 0 && num_warps > 1) {
      pool = cfg.host.pool;
      if (pool == nullptr) {
        owned.emplace(static_cast<std::size_t>(cfg.host.num_threads));
        pool = &*owned;
      }
    }
  }
  const std::uint64_t block =
      pool != nullptr ? std::min(num_warps, detail::kWarpBlock) : 1;
  std::vector<typename K::LaneState> lanes(
      static_cast<std::size_t>(block * ws));
  std::vector<std::uint8_t> active(static_cast<std::size_t>(block * ws));
  std::vector<std::uint64_t> init_costs(static_cast<std::size_t>(block));
  std::vector<detail::WarpRun> runs(static_cast<std::size_t>(block));
  std::vector<typename detail::ShardOf<K>::type> shards;
  if (pool != nullptr) shards.reserve(static_cast<std::size_t>(block));
  WarpScratch scratch{};

  for (std::uint64_t base = 0; base < num_warps; base += block) {
    // The abort poll: both paths have merged the same warps here.
    if (base > 0 && base % detail::kWarpBlock == 0 && should_abort &&
        should_abort()) {
      stats.aborted_launches = 1;
      stats.warps_launched = base;
      break;
    }
    const auto bsize =
        static_cast<std::size_t>(std::min(block, num_warps - base));
    // Pass 1 — dispatch: init_lane in dispatch order (work-queue
    // counter grabs serialize exactly as on the device).
    for (std::size_t i = 0; i < bsize; ++i) {
      const std::size_t off = i * static_cast<std::size_t>(ws);
      init_costs[i] = detail::init_warp(
          cfg, num_threads, k, order[static_cast<std::size_t>(base) + i],
          lanes.data() + off, active.data() + off, scratch);
    }
    // Pass 2 — the step loops: in place, or on the pool into shards.
    if (pool == nullptr) {
      runs[0] = detail::run_warp(k, cfg.warp_size, lanes.data(),
                                 active.data(), init_costs[0]);
    } else if constexpr (ParallelHostKernel<K>) {
      shards.clear();
      for (std::size_t i = 0; i < bsize; ++i) shards.push_back(k.make_shard());
      pool->parallel_for(bsize, [&](std::size_t i) {
        const std::size_t off = i * static_cast<std::size_t>(ws);
        runs[i] = detail::run_warp(k, cfg.warp_size, lanes.data() + off,
                                   active.data() + off, init_costs[i],
                                   shards[i]);
      });
    }
    // Pass 3 — retire: slot heap, stats, observer and shard merge in
    // dispatch order.
    for (std::size_t i = 0; i < bsize; ++i) {
      retire(order[static_cast<std::size_t>(base) + i], base + i, runs[i]);
      if constexpr (ParallelHostKernel<K>) {
        if (pool != nullptr) k.merge_shard(std::move(shards[i]));
      }
    }
  }

  sched.finalize(stats);
  return stats;
}

}  // namespace gsj::simt
