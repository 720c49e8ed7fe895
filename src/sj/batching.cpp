#include "sj/batching.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/trace.hpp"
#include "sj/reference.hpp"

namespace gsj {

void BatchingConfig::validate() const {
  GSJ_CHECK_MSG(buffer_pairs >= 1, "batching.buffer_pairs must be >= 1");
  GSJ_CHECK_MSG(nstreams >= 1, "batching.nstreams must be >= 1");
  GSJ_CHECK_MSG(sample_fraction > 0.0 && sample_fraction <= 1.0,
                "batching.sample_fraction must be in (0, 1], got "
                    << sample_fraction);
  GSJ_CHECK_MSG(safety >= 1.0, "batching.safety must be >= 1, got " << safety);
  GSJ_CHECK_MSG(pcie_gbps > 0.0,
                "batching.pcie_gbps must be > 0, got " << pcie_gbps);
  GSJ_CHECK_MSG(inject_estimator_skew > 0.0,
                "batching.inject_estimator_skew must be > 0, got "
                    << inject_estimator_skew);
}

namespace {

/// Applies the fault-injection skew to an estimate (identity at 1.0).
std::uint64_t skewed(std::uint64_t estimate, const BatchingConfig& cfg) {
  if (cfg.inject_estimator_skew == 1.0) return estimate;
  return static_cast<std::uint64_t>(static_cast<double>(estimate) *
                                    cfg.inject_estimator_skew);
}

/// Number of batches for an estimated total, >= 1. Capped at `n` (one
/// point per batch): a wildly high estimate — e.g. a skew-injected one —
/// must not plan millions of empty batches.
std::size_t batch_count(std::uint64_t estimated, const BatchingConfig& cfg,
                        std::size_t n) {
  if (estimated == 0) return 1;
  const double padded = static_cast<double>(estimated) * cfg.safety;
  const auto wanted = static_cast<std::size_t>(
      std::max(1.0, std::ceil(padded / static_cast<double>(cfg.buffer_pairs))));
  return std::min(wanted, n);
}

/// Exact ε-neighborhood sizes of the sampled query ids: self-join
/// points, or probe points against the gridded dataset.
std::vector<std::uint64_t> sample_counts(const GridIndex& grid,
                                         const Dataset* probe,
                                         std::span<const PointId> sample) {
  return neighbor_counts(grid, probe != nullptr ? *probe : grid.dataset(),
                         sample);
}

}  // namespace

std::uint64_t estimate_strided_total(const GridIndex& grid,
                                     const BatchingConfig& cfg,
                                     const Dataset* probe) {
  const std::size_t n =
      probe != nullptr ? probe->size() : grid.dataset().size();
  const auto stride = static_cast<std::size_t>(
      std::max(1.0, std::floor(1.0 / cfg.sample_fraction)));
  std::vector<PointId> sample;
  sample.reserve(n / stride + 1);
  for (std::size_t i = 0; i < n; i += stride) {
    sample.push_back(static_cast<PointId>(i));
  }
  const auto counts = sample_counts(grid, probe, sample);
  std::uint64_t sample_sum = 0;
  for (auto c : counts) sample_sum += c;
  return skewed(static_cast<std::uint64_t>(static_cast<double>(sample_sum) *
                                           static_cast<double>(n) /
                                           static_cast<double>(sample.size())),
                cfg);
}

std::uint64_t estimate_queue_total(const GridIndex& grid,
                                   const BatchingConfig& cfg,
                                   std::span<const PointId> queue_order,
                                   const Dataset* probe) {
  const std::size_t n =
      probe != nullptr ? probe->size() : grid.dataset().size();
  GSJ_CHECK(queue_order.size() == n);
  // First 1% of D' — the heaviest-workload points — extrapolated to the
  // whole dataset; the paper's deliberate over-estimate (§III-D).
  //
  // Deviation from the paper: points with the largest *workload*
  // (candidate count) do not always have the largest *result* count —
  // a small cell adjacent to a very dense cell scans many candidates
  // but keeps few — so the first-1% estimate can in fact undershoot on
  // heavily skewed data. We take the max of the first-1% and the
  // strided estimate, preserving the paper's "at least as many batches"
  // behaviour while staying safe (see DESIGN.md §2).
  const auto sample_n = static_cast<std::size_t>(
      std::max(1.0, std::floor(static_cast<double>(n) * cfg.sample_fraction)));
  const auto counts =
      sample_counts(grid, probe, queue_order.subspan(0, sample_n));
  std::uint64_t sample_sum = 0;
  for (auto c : counts) sample_sum += c;
  const auto first_pct_estimate =
      skewed(static_cast<std::uint64_t>(static_cast<double>(sample_sum) /
                                        static_cast<double>(sample_n) *
                                        static_cast<double>(n)),
             cfg);
  return std::max(first_pct_estimate,
                  estimate_strided_total(grid, cfg, probe));
}

std::vector<std::vector<PointId>> stride_batches(
    std::span<const PointId> points, std::size_t num_batches,
    std::span<const std::uint64_t> sort_workloads, ThreadPool* pool) {
  std::vector<std::vector<PointId>> batches(num_batches);
  for (auto& b : batches) b.reserve(points.size() / num_batches + 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    batches[i % num_batches].push_back(points[i]);
  }
  if (sort_workloads.empty()) return batches;
  // Batches are disjoint vectors and each gets a plain stable sort,
  // so running them on pool workers changes nothing but wall time.
  for_chunks(pool, num_batches, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t bi = lo; bi < hi; ++bi) {
      std::stable_sort(batches[bi].begin(), batches[bi].end(),
                       [sort_workloads](PointId a, PointId c) {
                         return sort_workloads[a] > sort_workloads[c];
                       });
    }
  });
  return batches;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> cut_queue_chunks(
    std::span<const PointId> queue, std::span<const std::uint64_t> workloads,
    double est_per_point, const BatchingConfig& cfg) {
  const std::size_t n = queue.size();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
  const auto budget = static_cast<double>(cfg.buffer_pairs);
  std::size_t begin = 0;
  while (begin < n) {
    std::uint64_t bound_sum = 0;
    double est_sum = 0.0;
    std::size_t end = begin;
    while (end < n) {
      const std::uint64_t b = 2 * workloads[queue[end]] + 1;
      if (end > begin && (static_cast<double>(bound_sum + b) > budget ||
                          est_sum + est_per_point > budget)) {
        break;
      }
      bound_sum += b;
      est_sum += est_per_point;
      ++end;
    }
    chunks.emplace_back(begin, end);
    begin = end;
  }
  return chunks;
}

BatchPlan plan_strided(const GridIndex& grid, const BatchingConfig& cfg,
                       bool sort_batches_by_workload, CellPattern pattern,
                       obs::Tracer* tracer, ThreadPool* pool,
                       std::span<const std::uint64_t> workloads,
                       std::optional<std::uint64_t> precomputed_estimate,
                       const Dataset* probe) {
  const std::size_t n = probe != nullptr ? probe->size() : grid.dataset().size();
  GSJ_CHECK(n > 0);
  cfg.validate();
  BatchPlan plan;
  {
    // The span opens on the cached path too: downstream logical traces
    // must be byte-identical whether the estimate was sampled here or
    // fetched from the engine cache.
    const auto sp = obs::span(tracer, "estimation_sample");
    plan.estimated_total_pairs =
        precomputed_estimate.has_value()
            ? *precomputed_estimate
            : estimate_strided_total(grid, cfg, probe);
  }
  plan.num_batches = batch_count(plan.estimated_total_pairs, cfg, n);
  std::vector<PointId> ids(n);
  std::iota(ids.begin(), ids.end(), PointId{0});

  std::vector<std::uint64_t> pw_storage;
  std::span<const std::uint64_t> pw;
  if (sort_batches_by_workload) {
    const auto sp = obs::span(tracer, "workload_quantify");
    pw = workloads;
    if (pw.empty()) {
      pw_storage = probe != nullptr ? probe_point_workloads(grid, *probe, pool)
                                    : point_workloads(grid, pattern, pool);
      pw = pw_storage;
    }
    GSJ_CHECK(pw.size() == n);
  }
  // Striding builds the lists SORTBYWL sorts, so it shares their span.
  const auto sp =
      obs::span(sort_batches_by_workload ? tracer : nullptr, "sortbywl_sort");
  plan.batches = stride_batches(ids, plan.num_batches, pw, pool);
  return plan;
}

BatchPlan plan_queue(const GridIndex& grid, const BatchingConfig& cfg,
                     std::span<const PointId> queue_order,
                     std::span<const std::uint64_t> workloads,
                     obs::Tracer* tracer,
                     std::optional<std::uint64_t> precomputed_estimate,
                     const Dataset* probe) {
  const std::size_t n = probe != nullptr ? probe->size() : grid.dataset().size();
  GSJ_CHECK(queue_order.size() == n);
  GSJ_CHECK(workloads.size() == n);
  cfg.validate();
  BatchPlan plan;
  {
    // Opens even when the estimate is precomputed — see plan_strided.
    const auto sp = obs::span(tracer, "estimation_sample");
    plan.estimated_total_pairs =
        precomputed_estimate.has_value()
            ? *precomputed_estimate
            : estimate_queue_total(grid, cfg, queue_order, probe);
  }
  const double est_per_point =
      static_cast<double>(plan.estimated_total_pairs) /
      static_cast<double>(n) * cfg.safety;
  plan.queue_ranges =
      cut_queue_chunks(queue_order, workloads, est_per_point, cfg);
  plan.num_batches = plan.queue_ranges.size();
  return plan;
}

double transfer_seconds(std::uint64_t pairs, const BatchingConfig& cfg) {
  // One result pair = two 4-byte point ids.
  const double bytes = static_cast<double>(pairs) * 8.0;
  return bytes / (cfg.pcie_gbps * 1e9);
}

double pipeline_seconds(std::span<const double> kernel_secs,
                        std::span<const double> transfer_secs, int nstreams) {
  GSJ_CHECK(kernel_secs.size() == transfer_secs.size());
  GSJ_CHECK(nstreams >= 1);
  const std::size_t nb = kernel_secs.size();
  if (nb == 0) return 0.0;

  std::vector<double> transfer_end(nb, 0.0);
  double device_free = 0.0;  // kernels serialize on the device
  double pcie_free = 0.0;    // transfers serialize on the link
  double last = 0.0;
  for (std::size_t b = 0; b < nb; ++b) {
    // The stream's previous operation: batch b - nstreams.
    const double stream_free =
        b >= static_cast<std::size_t>(nstreams)
            ? transfer_end[b - static_cast<std::size_t>(nstreams)]
            : 0.0;
    const double kstart = std::max(device_free, stream_free);
    const double kend = kstart + kernel_secs[b];
    device_free = kend;
    const double tstart = std::max(kend, pcie_free);
    transfer_end[b] = tstart + transfer_secs[b];
    pcie_free = transfer_end[b];
    last = std::max(last, transfer_end[b]);
  }
  return last;
}

}  // namespace gsj
