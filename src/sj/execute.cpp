#include "sj/execute.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "grid/grain.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/fleet.hpp"

namespace gsj::detail {
namespace {

/// The one batch driver behind both execution paths. run() executes one
/// BatchPlan on one device against the fixed-capacity result buffer:
/// one kernel launch per batch, overflow rollback with wasted-work
/// accounting, LIFO halve-and-retry recovery, cooperative cancellation
/// and committed BatchStats. execute_self_join calls run() once;
/// execute_fleet calls it once per grain. State that spans the whole
/// join (result buffer, batch list, warp-cycle collection, retry
/// budget, abort hook) lives here, so recovery and numbering continue
/// across grains.
///
/// A single-device driver additionally keeps per-slot stats, tracer
/// warp/batch events and the cycle offset of back-to-back batches; on a
/// fleet, device-level accounting supersedes them.
///
/// A 2-D run's scan columns (scan_columns) are built here, once per
/// run, and shared by every launch: an overflow-split run may launch
/// thousands of batches, and the copy is scoped to the run so no cache
/// keeps it alive between runs.
class BatchDriver {
 public:
  /// Modeled device time and committed stats of one run() call.
  struct Totals {
    double seconds = 0.0;      ///< every launch, rolled-back ones included
    simt::KernelStats kernel;  ///< committed launches only
  };

  BatchDriver(const SelfJoinConfig& cfg, const ExecutionInputs& in,
              ScratchArena& arena, SelfJoinOutput& out, bool single_device)
      : cfg_(cfg),
        in_(in),
        arena_(arena),
        out_(out),
        tracer_(single_device ? cfg.tracer : nullptr),
        // Request-scoped channel: spans for every launch land on the
        // service tracer parented under the request's execute span.
        // request_id == 0 (engine/direct runs) suppresses the spans;
        // the recorder accepts id 0 (run()-path breadcrumbs are still
        // useful in a failure dump).
        req_tracer_(in.channel_ctx.request_id != 0 ? in.channel_tracer
                                                   : nullptr),
        // Per-batch result capacity: the fixed pinned buffer of a real
        // GPU join (or its fault-injection override). The maximum
        // buffer_pairs is ResultSet::kUnlimited: one unbounded batch.
        capacity_(cfg.batching.effective_capacity()),
        columns_(scan_columns(*in.grid)),
        collect_(cfg.collect_diagnostics || tracer_ != nullptr ||
                 cfg.metrics != nullptr),
        warp_cycle_hist_(cfg.metrics != nullptr
                             ? &cfg.metrics->cycle_histogram("sj.warp_cycles")
                             : nullptr) {
    out.stats.warp_size = in.device.warp_size;
    // Pre-size pair storage from the batch estimator so stored-pair
    // joins don't pay realloc churn while the kernel emits. The
    // estimate is untrusted — clamped to one buffer's capacity so a
    // wildly high value cannot bad_alloc before the join starts;
    // growth past it is amortized by the vector.
    if (cfg.store_pairs) {
      out.results.reserve(std::min(in.plan->estimated_total_pairs,
                                   cfg.batching.buffer_pairs));
    }
    out.stats.batches = std::move(arena.spare_batch_stats);
    arena.spare_batch_stats = {};
    out.stats.batches.clear();
    arena.all_warp_cycles.clear();
    slots_ = std::move(arena.spare_slots);
    arena.spare_slots = {};
    slots_.assign(single_device && collect_
                      ? static_cast<std::size_t>(in.device.total_slots())
                      : 0,
                  obs::SlotStats{});
    arena.slot_finish.assign(slots_.size(), 0);
    // Warp records are buffered per launch and committed to the obs
    // sinks only once the launch is known not to have overflowed — a
    // rolled-back launch must leave no trace in diagnostics, metrics or
    // the exported timeline (its cost is accounted in stats.wasted).
    arena.launch_records.clear();
    if (collect_) {
      observer_ = [&records = arena.launch_records](const simt::WarpRecord& r) {
        records.push_back(r);
      };
    }
    // One abort hook per run: none when the buffer is unbounded and
    // nothing can cancel; otherwise it checks for both (batch_overflowed
    // never holds under kUnlimited).
    if (capacity_ != ResultSet::kUnlimited || in.cancel != nullptr) {
      abort_hook_ = [&results = out.results, cancel = in.cancel] {
        return results.batch_overflowed() ||
               (cancel != nullptr && cancel->load(std::memory_order_relaxed));
      };
    }
  }

  /// Executes `plan` on `device` (fleet index `device_id`); `queue` is
  /// the D' slice its queue ranges index. Appends every launch's modeled
  /// kernel/transfer seconds to the device's timeline.
  Totals run(const BatchPlan& plan, const simt::DeviceConfig& device,
             int device_id, std::span<const PointId> queue,
             std::vector<double>& kernel_secs, std::vector<double>& xfer_secs) {
    device_ = &device;
    device_id_ = device_id;
    kernel_secs_ = &kernel_secs;
    xfer_secs_ = &xfer_secs;
    totals_ = Totals{};
    // One LIFO stack of batches, each a span of query points: the plan's
    // strided lists, or its chunks of `queue` (a plan carries one kind).
    // A failed batch is halved and both halves re-run, first half next:
    // a slice of a SORTBYWL list stays sorted, and chunks keep D''s
    // workload-sorted consumption order.
    std::vector<std::span<const PointId>> work;
    work.reserve(plan.batches.size() + plan.queue_ranges.size());
    for (auto r = plan.queue_ranges.rbegin(); r != plan.queue_ranges.rend();
         ++r) {
      work.push_back(queue.subspan(r->first, r->second - r->first));
    }
    for (auto b = plan.batches.rbegin(); b != plan.batches.rend(); ++b) {
      work.emplace_back(*b);
    }
    while (!work.empty()) {
      throw_if_cancelled();
      const std::span<const PointId> batch = work.back();
      work.pop_back();
      if (batch.empty() || attempt(batch)) continue;
      const auto sp = obs::span(tracer_, "overflow_retry");
      const auto rsp =
          obs::span(req_tracer_, "overflow_retry", in_.channel_ctx);
      check_recoverable(batch.size());
      const std::size_t mid = batch.size() / 2;
      work.push_back(batch.subspan(mid));
      work.push_back(batch.first(mid));
    }
    return totals_;
  }

  /// Closes the join once the caller has set stats.kernel,
  /// kernel_seconds and total_seconds: batch count, unclamped result
  /// window, dispersion and slot stats, the sj.* metric block and the
  /// canonical pair order.
  void finish() {
    SelfJoinStats& st = out_.stats;
    // Recovery may have executed more (smaller) batches than planned.
    st.num_batches = st.batches.size();
    // Close the batch window so the returned ResultSet is unclamped.
    out_.results.begin_batch(ResultSet::kUnlimited);
    st.result_pairs = out_.results.count();
    if (collect_) {
      st.warp_imbalance = obs::analyze_warp_cycles(arena_.all_warp_cycles);
      st.slots = std::move(slots_);
    }
    if (cfg_.metrics != nullptr) {
      obs::Registry& m = *cfg_.metrics;
      m.counter("sj.batches").add(st.num_batches);
      m.counter("sj.result_pairs").add(st.result_pairs);
      m.counter("sj.warps_launched").add(st.kernel.warps_launched);
      m.counter("sj.warp_steps").add(st.kernel.warp_steps);
      m.counter("sj.active_lane_steps").add(st.kernel.active_lane_steps);
      m.counter("sj.atomics").add(st.kernel.atomics_executed);
      m.counter("sj.overflow_retries").add(st.overflow_retries);
      m.counter("sj.aborted_launches").add(st.wasted.aborted_launches);
      m.counter("sj.wasted_pairs").add(st.wasted.results_emitted);
      m.counter("sj.wasted_cycles").add(st.wasted.busy_cycles);
      m.gauge("sj.wee_percent").set(st.wee_percent());
      m.gauge("sj.warp_cycle_cov").set(st.warp_cycle_cov());
      m.gauge("sj.warp_cycle_gini").set(st.warp_cycle_gini());
      m.gauge("sj.estimated_total_pairs")
          .set(static_cast<double>(st.estimated_total_pairs));
      m.gauge("sj.kernel_seconds").set(st.kernel_seconds);
      m.gauge("sj.total_seconds").set(st.total_seconds);
      m.gauge("sj.host_prep_seconds").set(st.host_prep_seconds);
    }
    if (cfg_.store_pairs) out_.results.canonicalize();
  }

 private:
  // Cooperative cancellation (JoinService): polled at batch boundaries
  // and folded into the launch abort hook. A cancelled run throws
  // CancelledError; the caller discards the partial output, so nothing
  // here needs to roll back beyond what overflow recovery already does.
  void throw_if_cancelled() {
    if (in_.cancel != nullptr &&
        in_.cancel->load(std::memory_order_relaxed)) {
      record("cancelled", out_.stats.batches.size());
      throw CancelledError(out_.stats.batches.size());
    }
  }

  // A failed batch is recoverable while it is still divisible and the
  // retry budget holds; otherwise the join surfaces the structured,
  // caller-actionable error.
  void check_recoverable(std::uint64_t batch_points) {
    const std::uint64_t retries = out_.stats.overflow_retries;
    if (batch_points <= 1 || retries > cfg_.batching.max_overflow_retries) {
      record("overflow_exhausted", retries);
      throw OverflowError(capacity_, overflow_pairs_, batch_points, retries);
    }
  }

  void record(const char* event, std::uint64_t value) {
    if (in_.recorder != nullptr) {
      in_.recorder->record(event, in_.channel_ctx.request_id, value);
    }
  }

  // Executes one batch against the fixed-capacity buffer. On overflow
  // the launch is aborted (block granularity), every side effect rolled
  // back, and the wasted device time accounted; returns false so the
  // caller can split and re-plan. `overflow_pairs_` keeps the count at
  // detection (a lower bound when the launch aborted early).
  bool attempt(std::span<const PointId> points) {
    SelfJoinStats& st = out_.stats;
    const auto index = static_cast<std::uint32_t>(st.batches.size());
    auto batch_span = obs::span(
        req_tracer_,
        req_tracer_ != nullptr ? "batch " + std::to_string(index)
                               : std::string(),
        in_.channel_ctx);
    const simt::DeviceConfig& device = *device_;
    KernelParams params;
    params.grid = in_.grid;
    params.pattern = cfg_.pattern;
    params.probe = in_.probe;
    params.assignment =
        cfg_.work_queue ? Assignment::WorkQueue : Assignment::Static;
    params.k = cfg_.k;
    params.points = points;
    params.device = &device;
    params.results = &out_.results;
    params.columns = columns_;

    const std::uint64_t nthreads =
        points.size() * static_cast<std::uint64_t>(cfg_.k);

    out_.results.begin_batch(capacity_);
    SelfJoinKernel kernel(params);
    arena_.launch_records.clear();
    simt::KernelStats ks =
        simt::launch(device, nthreads, kernel, observer_, abort_hook_);
    ks.atomics_executed = kernel.atomics_executed();
    ks.results_emitted = kernel.results_emitted();

    // A launch aborted by cancellation is not an overflow: the whole
    // run's output is about to be discarded, so surface the
    // cancellation before the overflow/commit bookkeeping.
    throw_if_cancelled();

    const double secs = ks.seconds(device);
    totals_.seconds += secs;
    kernel_secs_->push_back(secs);
    if (out_.results.batch_overflowed()) {
      // The device time is spent either way; the overflowed buffer is
      // never transferred. Partial results are discarded bit-exactly.
      overflow_pairs_ = out_.results.batch_count();
      out_.results.rollback_batch();
      st.buffer_overflowed = true;
      ++st.overflow_retries;
      st.wasted.merge(ks);
      xfer_secs_->push_back(0.0);
      cycle_offset_ += ks.makespan_cycles;
      record("batch_overflow", overflow_pairs_);
      return false;
    }

    totals_.kernel.merge(ks);
    const std::uint64_t batch_pairs = out_.results.batch_count();
    st.max_batch_pairs = std::max(st.max_batch_pairs, batch_pairs);
    xfer_secs_->push_back(transfer_seconds(batch_pairs, cfg_.batching));

    BatchStats bs;
    bs.device = device_id_;
    bs.query_points = points.size();
    bs.result_pairs = batch_pairs;
    bs.warps = ks.warps_launched;
    bs.makespan_cycles = ks.makespan_cycles;
    bs.kernel_seconds = secs;
    bs.transfer_seconds = xfer_secs_->back();
    bs.wee_percent = ks.warp_execution_efficiency(device.warp_size) * 100.0;
    if (collect_) bs.warp_cycle_cov = commit_records(ks.makespan_cycles, index);
    if (tracer_ != nullptr) {
      obs::BatchEvent ev;
      ev.index = index;
      ev.start_cycle = cycle_offset_;
      ev.makespan_cycles = ks.makespan_cycles;
      ev.warps = ks.warps_launched;
      ev.result_pairs = batch_pairs;
      ev.wee_percent = bs.wee_percent;
      tracer_->record_batch(ev);
    }
    cycle_offset_ += ks.makespan_cycles;
    st.batches.push_back(bs);
    record("batch_commit", batch_pairs);
    return true;
  }

  // Commits the launch's buffered warp records to the obs sinks, closes
  // out per-slot tail idle against the launch's makespan (slots that
  // never ran a warp idled for the whole launch — the same accounting
  // simt::launch uses internally) and returns the batch's warp-cycle
  // CoV.
  double commit_records(std::uint64_t makespan, std::uint32_t index) {
    std::vector<std::uint64_t>& cycles = arena_.all_warp_cycles;
    std::vector<std::uint64_t>& slot_finish = arena_.slot_finish;
    const std::size_t first = cycles.size();
    std::fill(slot_finish.begin(), slot_finish.end(), 0);
    for (const simt::WarpRecord& r : arena_.launch_records) {
      cycles.push_back(r.cycles);
      if (!slots_.empty()) {
        const auto slot = static_cast<std::size_t>(r.slot);
        ++slots_[slot].warps;
        slots_[slot].busy_cycles += r.cycles;
        slot_finish[slot] =
            std::max(slot_finish[slot], r.start_cycle + r.cycles);
      }
      if (tracer_ != nullptr) tracer_->record_warp(r, cycle_offset_, index);
      if (warp_cycle_hist_ != nullptr) warp_cycle_hist_->record(r.cycles);
    }
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      slots_[s].tail_idle_cycles += makespan - slot_finish[s];
    }
    return obs::analyze_warp_cycles(
               std::span<const std::uint64_t>(cycles).subspan(first))
        .cov;
  }

  const SelfJoinConfig& cfg_;
  const ExecutionInputs& in_;
  ScratchArena& arena_;
  SelfJoinOutput& out_;
  obs::Tracer* const tracer_;      ///< single-device run tracer, else null
  obs::Tracer* const req_tracer_;  ///< request channel, null off-request
  const std::uint64_t capacity_;
  const std::vector<double> columns_;  ///< scan_columns(*in.grid)
  const bool collect_;
  obs::CycleHistogram* const warp_cycle_hist_;
  simt::WarpObserver observer_;
  simt::LaunchAbort abort_hook_;
  std::vector<obs::SlotStats> slots_;  ///< single-device + collect only
  std::uint64_t cycle_offset_ = 0;     ///< batches execute back-to-back
  std::uint64_t overflow_pairs_ = 0;
  // --- the current run() ---
  const simt::DeviceConfig* device_ = nullptr;
  int device_id_ = 0;
  std::vector<double>* kernel_secs_ = nullptr;
  std::vector<double>* xfer_secs_ = nullptr;
  Totals totals_;
};

}  // namespace

void execute_self_join(const SelfJoinConfig& cfg, const ExecutionInputs& in,
                       ScratchArena& arena, SelfJoinOutput& out) {
  BatchDriver driver(cfg, in, arena, out, /*single_device=*/true);
  arena.kernel_secs.clear();
  arena.xfer_secs.clear();
  arena.kernel_secs.reserve(in.plan->num_batches);
  arena.xfer_secs.reserve(in.plan->num_batches);
  const BatchDriver::Totals t =
      driver.run(*in.plan, in.device, 0, in.queue_order, arena.kernel_secs,
                 arena.xfer_secs);
  out.stats.kernel.merge(t.kernel);
  out.stats.kernel_seconds = t.seconds;
  out.stats.total_seconds = pipeline_seconds(
      arena.kernel_secs, arena.xfer_secs, cfg.batching.nstreams);
  driver.finish();
}

void execute_fleet(const SelfJoinConfig& cfg, const ExecutionInputs& in,
                   ScratchArena& arena, SelfJoinOutput& out) {
  const GridIndex& grid = *in.grid;
  const simt::FleetConfig& fc = cfg.fleet;
  const std::vector<simt::DeviceConfig> devices = fc.resolve(in.device);
  const std::size_t ndev = devices.size();
  BatchDriver driver(cfg, in, arena, out, /*single_device=*/false);

  // --- grain partition (grid/grain.hpp) ---
  // Adaptive: workload-weighted grains, several per device, so the
  // scheduler has something to rebalance. Static baseline: exactly one
  // cell-count-uniform grain per device, grain i pinned to device i.
  // R×S (in.probe set): grains are contiguous *probe-id* ranges — the
  // grid's cell ranges shard the gridded side, but the fleet partitions
  // query points, which here live in the probe dataset.
  const Dataset* probe = in.probe;
  std::vector<WorkGrain> grains;
  if (probe != nullptr) {
    grains = partition_probe_grains(
        probe->size(),
        fc.adaptive ? in.point_workloads : std::span<const std::uint64_t>{},
        fc.adaptive ? ndev * static_cast<std::size_t>(fc.grains_per_device)
                    : ndev);
  } else if (fc.adaptive) {
    const std::vector<std::uint64_t> weights =
        grain_cell_weights(grid, in.point_workloads);
    grains = partition_grains(
        grid, weights,
        ndev * static_cast<std::size_t>(fc.grains_per_device));
  } else {
    grains = partition_grains(grid, {}, ndev);
  }
  const std::size_t num_grains = grains.size();
  std::uint64_t total_weight = 0;
  for (const WorkGrain& g : grains) total_weight += g.workload;

  // Bucket D' into per-grain queues in one stable pass: each grain's
  // queue preserves the global workload-sorted consumption order. A
  // grain owns a run of query positions (grid positions in point_ids()
  // for the self-join, probe ids for R×S), so one position→grain table
  // serves both modes.
  std::vector<std::vector<PointId>> grain_queues;
  if (cfg.work_queue) {
    std::vector<std::uint32_t> grain_at(
        probe != nullptr ? probe->size() : grid.point_ids().size());
    grain_queues.resize(num_grains);
    for (std::size_t g = 0; g < num_grains; ++g) {
      std::fill(grain_at.begin() + grains[g].point_begin,
                grain_at.begin() + grains[g].point_end,
                static_cast<std::uint32_t>(g));
      grain_queues[g].reserve(grains[g].points());
    }
    for (const PointId p : in.queue_order) {
      grain_queues[grain_at[probe != nullptr ? p : grid.grid_rank(p)]]
          .push_back(p);
    }
  }

  // --- schedule + execute: LPT order, predicted-finish placement,
  // measured-rate feedback after every grain ---
  std::vector<std::size_t> order(num_grains);
  for (std::size_t i = 0; i < num_grains; ++i) order[i] = i;
  if (fc.adaptive) {
    std::stable_sort(order.begin(), order.end(),
                     [&grains](std::size_t a, std::size_t b) {
                       return grains[a].workload > grains[b].workload;
                     });
  }
  simt::DeviceFleet fleet(devices);
  std::uint64_t rebalances = 0;
  std::vector<PointId> probe_ids;
  std::vector<std::vector<double>> dev_kernel_secs(ndev);
  std::vector<std::vector<double>> dev_xfer_secs(ndev);
  const std::uint64_t est_total = in.plan->estimated_total_pairs;

  for (const std::size_t gidx : order) {
    const WorkGrain& grain = grains[gidx];
    const std::size_t owner = gidx * ndev / num_grains;
    const std::size_t dev = fc.adaptive ? fleet.pick(grain.workload) : owner;
    if (dev != owner) ++rebalances;

    // The grain's batch plan, sized from its workload share of the
    // whole-join estimate by the batching layer's own cutters. The
    // per-point estimate and the ⌊·⌋ + 1 batch count differ from
    // plan_queue's and plan_strided's arithmetic on purpose: they keep
    // fleet plans at the values Fleet.GoldenModeledStatsUnchanged pins.
    const double est_share =
        total_weight == 0 ? 0.0
                          : static_cast<double>(est_total) *
                                (static_cast<double>(grain.workload) /
                                 static_cast<double>(total_weight));
    BatchPlan plan;
    std::span<const PointId> queue;
    if (cfg.work_queue) {
      queue = grain_queues[gidx];
      double est_per_point = 0.0;
      if (!queue.empty()) {
        est_per_point =
            static_cast<double>(static_cast<std::uint64_t>(est_share)) *
            cfg.batching.safety / static_cast<double>(queue.size());
      }
      plan.queue_ranges = cut_queue_chunks(queue, in.point_workloads,
                                           est_per_point, cfg.batching);
    } else {
      // Probe grains own an id *range*, not a slice of point_ids();
      // materialize it (reused buffer, refilled per grain).
      std::span<const PointId> gp;
      if (probe != nullptr) {
        probe_ids.resize(grain.points());
        std::iota(probe_ids.begin(), probe_ids.end(),
                  static_cast<PointId>(grain.point_begin));
        gp = probe_ids;
      } else {
        gp = grid.point_ids().subspan(grain.point_begin, grain.points());
      }
      std::size_t nb = 1;
      if (!gp.empty()) {
        const auto full = static_cast<std::size_t>(
            est_share * cfg.batching.safety /
            static_cast<double>(cfg.batching.buffer_pairs));
        nb = std::min(full + 1, gp.size());
      }
      plan.batches = stride_batches(
          gp, nb,
          cfg.sort_by_workload ? in.point_workloads
                               : std::span<const std::uint64_t>{});
    }
    const BatchDriver::Totals t =
        driver.run(plan, devices[dev], static_cast<int>(dev), queue,
                   dev_kernel_secs[dev], dev_xfer_secs[dev]);
    fleet.record(dev, grain.workload, t.seconds, t.kernel);
  }

  // --- finalize: device-level stats, concurrent composition ---
  out.stats.fleet = fleet.finish(num_grains, rebalances);
  out.stats.kernel = simt::KernelStats{};
  for (const simt::DeviceLoad& l : out.stats.fleet.devices) {
    out.stats.kernel.merge_concurrent(l.kernel);
  }
  out.stats.kernel_seconds = out.stats.fleet.makespan_seconds;
  out.stats.total_seconds = 0.0;
  for (std::size_t d = 0; d < ndev; ++d) {
    out.stats.total_seconds = std::max(
        out.stats.total_seconds,
        pipeline_seconds(dev_kernel_secs[d], dev_xfer_secs[d],
                         cfg.batching.nstreams));
  }
  driver.finish();
  if (cfg.metrics != nullptr) {
    obs::Registry& m = *cfg.metrics;
    const simt::FleetStats& fs = out.stats.fleet;
    m.gauge("sj.fleet.devices").set(static_cast<double>(ndev));
    m.counter("sj.fleet.grains").add(fs.num_grains);
    m.counter("sj.fleet.rebalances").add(fs.rebalances);
    m.gauge("sj.fleet.device_cov").set(fs.device_cov);
    m.gauge("sj.fleet.makespan_seconds").set(fs.makespan_seconds);
    m.gauge("sj.fleet.tail_idle_seconds").set(fs.tail_idle_seconds);
    m.gauge("sj.fleet.imbalance").set(fs.imbalance);
  }
}

}  // namespace gsj::detail
