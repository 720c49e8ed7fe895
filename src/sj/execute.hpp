// Execution stage of the self-join pipeline (internal).
//
// The join pipeline (sj/pipeline.hpp) runs in three stages: *prepare*
// (dataset admission), *plan* (grid / workload / batch-plan resolution,
// cache-served when warm) and *execute* — this file. The execution stage takes a fully resolved
// plan and drives the batched kernel launches: per-batch capacity
// windows, overflow rollback + LIFO split recovery, per-warp
// observability commits, stats finalization and metrics publication.
//
// ScratchArena is a run's reusable working memory, leased from the
// JoinService depot: every vector the execution stage needs per run
// (per-batch timing, warp-cycle collection, slot accounting, buffered
// warp records) plus spare storage reclaimed by JoinService::recycle
// (the result-pair buffer, batch-stats and slot vectors of a consumed
// output). Reusing the
// arena across queries removes the per-call allocation churn of the
// one-shot path; it never changes observable behaviour — a fresh arena
// and a warm one produce bit-identical outputs.
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "obs/context.hpp"
#include "simt/launch.hpp"
#include "sj/selfjoin.hpp"

namespace gsj::detail {

struct ScratchArena {
  // --- per-run working vectors (cleared, capacity kept) ---
  std::vector<double> kernel_secs;
  std::vector<double> xfer_secs;
  std::vector<std::uint64_t> all_warp_cycles;
  std::vector<std::uint64_t> slot_finish;
  std::vector<simt::WarpRecord> launch_records;

  // --- spare storage donated to the next run (JoinService::recycle) ---
  std::vector<ResultPair> spare_pairs;
  std::vector<BatchStats> spare_batch_stats;
  std::vector<obs::SlotStats> spare_slots;
};

/// Everything the execution stage needs, resolved by the plan stage.
struct ExecutionInputs {
  const GridIndex* grid = nullptr;
  /// Consumed: the strided driver moves the batch point lists out.
  BatchPlan* plan = nullptr;
  /// R×S probe dataset (JoinMode::RxS): batch/queue point ids index it
  /// instead of the gridded dataset, and the kernels run in probing
  /// mode (sj/kernels.hpp). nullptr for the self-join.
  const Dataset* probe = nullptr;
  /// D' (workload-sorted order) for the work-queue variants; empty
  /// otherwise. Must outlive the call.
  std::span<const PointId> queue_order;
  /// Effective device config: the host pool is already attached.
  simt::DeviceConfig device;
  /// Optional cooperative-cancellation token (JoinService). When set,
  /// it is polled at every batch boundary and folded into the
  /// LaunchAbort hook (polled at kWarpBlock boundaries inside a
  /// launch); once observed true the run throws CancelledError and the
  /// partial output is discarded by the caller.
  const std::atomic<bool>* cancel = nullptr;

  // --- fleet path only (sj/pipeline.hpp fleet branch) ---
  /// Per-point workloads under cfg.pattern (grid/workload.hpp): grain
  /// weights for the partitioner and the 2w+1 chunk bounds of the
  /// work-queue driver. Empty on the single-device path.
  std::span<const std::uint64_t> point_workloads;
  /// Whole-join result-size estimate (the shared estimate cache's
  /// value); execute_fleet scales it by grain workload share to size
  /// per-grain chunks.
  std::uint64_t estimated_total_pairs = 0;

  // --- request-scoped channel (JoinService::submit path) ---
  /// Service-channel tracer for per-launch request spans ("batch N",
  /// "overflow_retry") parented under `channel_ctx`. Only consulted
  /// when channel_ctx.request_id != 0, so engine/direct runs never
  /// emit request spans.
  obs::Tracer* channel_tracer = nullptr;
  obs::SpanContext channel_ctx;
  /// Flight-recorder breadcrumbs (batch commits, overflow retries,
  /// cancellation, overflow exhaustion). Null disables.
  obs::FlightRecorder* recorder = nullptr;
};

/// Runs the batched kernel launches for a planned self-join and fills
/// `out` (whose ResultSet is already constructed in the right storage
/// mode; stats.host_prep_seconds / estimated_total_pairs are set by the
/// caller). Throws OverflowError exactly as the public API documents.
void execute_self_join(const SelfJoinConfig& cfg, ExecutionInputs& in,
                       ScratchArena& arena, SelfJoinOutput& out);

/// Fleet execution (docs/SIMULATOR.md §fleet): shards the grid into
/// work grains (grid/grain.hpp), schedules them across
/// cfg.fleet.num_devices modeled devices with the LPT/measured-rate
/// rebalancer (simt/fleet.hpp), and runs each grain's batches with the
/// same capacity/overflow/cancellation discipline as the single-device
/// driver. The merged ResultSet is bit-identical to a single-device run
/// (canonical order when store_pairs; counts add otherwise); per-device
/// makespan/CoV/tail-idle land in out.stats.fleet and the sj.fleet.*
/// metric family. Per-warp dispersion is still collected fleet-wide;
/// per-slot vectors and tracer device events are not (device-level
/// accounting supersedes them at this scale). Requires
/// in.point_workloads and in.estimated_total_pairs from the fleet plan
/// branch.
void execute_fleet(const SelfJoinConfig& cfg, ExecutionInputs& in,
                   ScratchArena& arena, SelfJoinOutput& out);

/// ε-subsumption filter (docs/SERVICE.md result-serving layer): keeps
/// the pairs of a cached ε-result whose dist² ≤ epsilon², for a
/// requested epsilon ≤ the cached ε. `pairs` must be the *canonical*
/// (lexicographically sorted) pair list of the superset result —
/// filtering preserves order, so the output is exactly what a cold run
/// at `epsilon` would canonicalize to. When `out` is non-null each kept
/// pair is emitted into it (its storage mode decides pairs vs count);
/// the kept count is returned either way. One linear pass, dimension-
/// specialized so the hot loop vectorizes.
std::uint64_t subsume_filter(const Dataset& ds,
                             std::span<const ResultPair> pairs,
                             double epsilon, ResultSet* out);

}  // namespace gsj::detail
