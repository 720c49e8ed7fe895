// Batching scheme (§II-C2, modified for WORKQUEUE in §III-D).
//
// The join result can exceed GPU global memory, so the join runs as a
// sequence of kernel launches ("batches"), each bounded to `buffer_pairs`
// result pairs per pinned buffer, with `nstreams` streams overlapping
// result transfers with later kernels.
//
// Two planners:
//  * plan_strided — the scheme of [18]: the total result size is
//    estimated from a strided 1% sample, and point i is assigned to
//    batch (i mod nbBatches); striding makes per-batch result sizes
//    nearly equal. With SORTBYWL, each batch's point list is then
//    sorted by non-increasing workload.
//  * plan_queue — the WORKQUEUE variant: the dataset is consumed in
//    workload-sorted order D' via a global counter, so batches are
//    *contiguous chunks* of D'. The estimate samples the FIRST 1% of D'
//    (the heaviest points), deliberately over-estimating so the first
//    (heaviest) chunk cannot overflow; more, smaller batches result.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "grid/grid_index.hpp"
#include "grid/workload.hpp"

namespace gsj {

class ThreadPool;

namespace obs {
class Tracer;  // obs/trace.hpp
}  // namespace obs

struct BatchingConfig {
  /// Result-pair capacity of one batch buffer — the paper's b_s = 1e8.
  /// Keeping the paper's value even at scaled dataset sizes preserves
  /// its batching behaviour (batches of thousands of points, far more
  /// warps than device slots).
  std::uint64_t buffer_pairs = 100'000'000;
  int nstreams = 3;
  double sample_fraction = 0.01;
  /// Safety factor applied to the estimate when sizing batch counts
  /// (absorbs sampling variance of the 1% estimate).
  double safety = 1.5;
  /// Modeled host-device link for the transfer-overlap timeline (GB/s).
  /// The paper's Quadro GP100 is an NVLink-class card; 40 GB/s is a
  /// realistic sustained pinned-memory rate for it.
  double pcie_gbps = 40.0;

  // --- overflow recovery (docs/ROBUSTNESS.md) ---
  /// Failed-launch budget across the whole join: each buffer overflow
  /// rolls the batch back, splits it and re-executes; once the budget
  /// is spent the join throws OverflowError instead of retrying.
  /// Recovery terminates regardless (batch sizes halve, and a
  /// single-point overflow is unrecoverable by definition), so this
  /// only bounds wasted re-execution work. A badly undershooting
  /// estimator can legitimately cost one or two splits per planned
  /// batch, so the budget defaults high.
  std::uint64_t max_overflow_retries = 1024;

  // --- deterministic fault injection (testing the recovery path) ---
  /// Multiplies every result-size estimate (1.0 = honest estimator).
  /// Values < 1 reproduce the estimator undershoot on skewed data that
  /// Gowanlock & Karsin report: the plan allocates too few batches and
  /// the buffer overflows mid-join.
  double inject_estimator_skew = 1.0;
  /// When non-zero, overrides the *detection* capacity per batch while
  /// planning still sizes batches for `buffer_pairs` — a guaranteed
  /// undershoot even on the queue planner, whose 2w+1 hard bound makes
  /// real estimator-driven overflows impossible.
  std::uint64_t inject_capacity = 0;

  /// Effective per-batch overflow-detection capacity.
  [[nodiscard]] std::uint64_t effective_capacity() const noexcept {
    return inject_capacity != 0 ? inject_capacity : buffer_pairs;
  }

  /// Throws CheckError unless every field is in its documented domain
  /// (sample_fraction in (0, 1], buffer_pairs/nstreams/safety >= 1,
  /// pcie_gbps > 0, inject_estimator_skew > 0). Called at self_join
  /// entry and by both planners.
  void validate() const;
};

struct BatchPlan {
  std::uint64_t estimated_total_pairs = 0;
  std::size_t num_batches = 1;
  /// Static assignment: per-batch query-point lists.
  std::vector<std::vector<PointId>> batches;
  /// Queue assignment: [begin, end) chunks over the queue order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> queue_ranges;
};

/// Strided 1% sample extrapolated to the full result size (§II-C2),
/// with the fault-injection skew applied. Deterministic for a fixed
/// (grid, sample_fraction, inject_estimator_skew) — the artifact cache
/// (sj/service.hpp) keeps it under exactly that key so re-planning a
/// cached dataset skips the sampling join. A non-null `probe` estimates
/// an R×S join (JoinMode::RxS) instead: the sample is drawn from probe
/// point ids, counted against the gridded dataset
/// (neighbor_counts(grid, *probe, sample), sj/reference.hpp) and
/// extrapolated to |probe|; the cache then also keys on the probe's
/// identity.
[[nodiscard]] std::uint64_t estimate_strided_total(
    const GridIndex& grid, const BatchingConfig& cfg,
    const Dataset* probe = nullptr);

/// The WORKQUEUE estimate: the first `sample_fraction` of D' (the
/// heaviest points) extrapolated to the whole dataset, combined with
/// the strided estimate by max (see plan_queue's deviation note).
/// Skew applied; deterministic and cacheable like the strided one. A
/// non-null `probe` makes it the R×S estimate, `queue_order` then
/// ordering probe points.
[[nodiscard]] std::uint64_t estimate_queue_total(
    const GridIndex& grid, const BatchingConfig& cfg,
    std::span<const PointId> queue_order, const Dataset* probe = nullptr);

/// The strided split shared by plan_strided and the fleet's per-grain
/// batches: element i of `points` goes to batch i mod `num_batches`
/// (striding makes per-batch result sizes nearly equal). A non-empty
/// `sort_workloads` (indexed by point id) then orders each batch by
/// non-increasing workload (SORTBYWL, stable); a non-null `pool` sorts
/// batches in parallel with the same outcome.
[[nodiscard]] std::vector<std::vector<PointId>> stride_batches(
    std::span<const PointId> points, std::size_t num_batches,
    std::span<const std::uint64_t> sort_workloads = {},
    ThreadPool* pool = nullptr);

/// The greedy chunk cutter shared by plan_queue and the fleet's
/// per-grain work queues: contiguous [begin, end) chunks over `queue`
/// (D' or a slice of it). A chunk ends before the point that would
/// push either budget past cfg.buffer_pairs:
///  * hard bound — one point contributes at most 2*workload + 1 pairs
///    (every candidate evaluation emits at most two ordered pairs, plus
///    the self pair), so keeping the summed bound within the buffer can
///    never overflow;
///  * estimate — `est_per_point` (the caller's safety-scaled mean pairs
///    per point) keeps chunk sizes close to the paper's equal-share
///    scheme when the bound is loose.
/// Every chunk takes at least one point; the maximum buffer_pairs
/// returns the whole queue as one chunk.
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
cut_queue_chunks(std::span<const PointId> queue,
                 std::span<const std::uint64_t> workloads,
                 double est_per_point, const BatchingConfig& cfg);

/// Plans strided batches over natural point order. When
/// `sort_batches_by_workload`, each batch list is ordered by
/// non-increasing workload under `pattern` (SORTBYWL). An optional
/// tracer records the estimation-sampling / workload-quantification /
/// sort phases as host spans. A non-null `pool` parallelizes workload
/// quantification and the per-batch SORTBYWL sorts (deterministic —
/// same plan with or without it).
///
/// Cached-artifact fast path (sj/pipeline.cpp): a non-empty `workloads`
/// span (size n, from point_workloads under `pattern`) skips the
/// quantification, and an engaged `precomputed_estimate` (a prior
/// estimate_strided_total value) skips the sampling join. The emitted
/// trace spans and the resulting plan are identical either way.
///
/// A non-null `probe` plans an R×S join instead: batches cover *probe*
/// point ids (|probe| query points), `workloads` / the quantification
/// fallback are per-probe-point (probe_point_workloads), and the
/// estimate is the R×S one. Everything else — striding,
/// SORTBYWL ordering, caching contract — is unchanged.
[[nodiscard]] BatchPlan plan_strided(
    const GridIndex& grid, const BatchingConfig& cfg,
    bool sort_batches_by_workload, CellPattern pattern,
    obs::Tracer* tracer = nullptr, ThreadPool* pool = nullptr,
    std::span<const std::uint64_t> workloads = {},
    std::optional<std::uint64_t> precomputed_estimate = std::nullopt,
    const Dataset* probe = nullptr);

/// Plans contiguous chunks over `queue_order` (D', workload-sorted).
/// `workloads` are the per-point candidate counts (point_workloads);
/// since a point emits at most 2*workload+1 pairs, chunks are cut so
/// their summed bound never exceeds the buffer — a hard no-overflow
/// guarantee (this realizes the paper's future-work item of dynamically
/// grouping query batches by result size). Chunks are additionally cut
/// by the statistical estimate so sizes stay near the paper's scheme.
/// An engaged `precomputed_estimate` (a prior estimate_queue_total
/// value) skips the sampling joins; plan and spans are identical.
///
/// A non-null `probe` plans R×S chunks: `queue_order` / `workloads`
/// index probe points. The 2*workload+1 per-point bound stays (R×S
/// actually emits at most workload pairs per point, so the bound is
/// merely more conservative — still a hard no-overflow guarantee).
[[nodiscard]] BatchPlan plan_queue(
    const GridIndex& grid, const BatchingConfig& cfg,
    std::span<const PointId> queue_order,
    std::span<const std::uint64_t> workloads, obs::Tracer* tracer = nullptr,
    std::optional<std::uint64_t> precomputed_estimate = std::nullopt,
    const Dataset* probe = nullptr);

/// Completion time of the batched pipeline: kernels serialize on the
/// device; each batch's result transfer serializes on the PCIe engine
/// and on its stream (batch b runs on stream b % nstreams, and a
/// stream's next kernel waits for its previous transfer). Seconds.
[[nodiscard]] double pipeline_seconds(std::span<const double> kernel_secs,
                                      std::span<const double> transfer_secs,
                                      int nstreams);

/// Transfer time of one batch of `pairs` results over the modeled link.
[[nodiscard]] double transfer_seconds(std::uint64_t pairs,
                                      const BatchingConfig& cfg);

}  // namespace gsj
