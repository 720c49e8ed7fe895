// Workload quantification (§III-C): the number of candidate-distance
// calculations a query point will perform under a given cell access
// pattern. The paper quantifies per *cell* (every point of a cell has
// the same candidate set) and sorts points by that quantity to pack
// similar-work threads into the same warp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "grid/cell_access.hpp"
#include "grid/grid_index.hpp"

namespace gsj {

class ThreadPool;

/// Plan artifacts re-aligned to a repaired grid (see patch_workloads).
struct WorkloadPatchResult {
  std::vector<std::uint64_t> point_workloads;
  /// Patched D' order; empty iff the old order was empty (the order is
  /// a lazily-built artifact, so an unbuilt one stays unbuilt).
  std::vector<PointId> order;
  std::size_t recomputed_cells = 0;  ///< cells re-quantified from scratch
};

/// Incrementally re-derives cached per-point workloads and the D'
/// order after GridIndex::repair, re-quantifying only cells whose
/// workload can have changed: the repair's dirty cells plus one
/// adjacency shell (a cell's workload is a sum of pattern-accepted
/// neighbor sizes, so it is insulated from any churn further away).
/// Untouched cells recover their value from the old per-point table
/// (their membership and every member's id are unchanged), and the
/// patched order is a two-run merge under the exact (workload desc,
/// id asc) total order sort_by_workload produces — the outputs are
/// bit-identical to recomputing from scratch on the repaired grid.
/// `old_point_workloads` / `old_order` are the artifacts cached
/// against the pre-repair grid; `dirty_cell_ids` comes from the
/// GridRepairOutcome.
[[nodiscard]] WorkloadPatchResult patch_workloads(
    const GridIndex& grid, CellPattern pattern,
    std::span<const std::uint64_t> dirty_cell_ids,
    std::span<const std::uint64_t> old_point_workloads,
    std::span<const PointId> old_order);

/// Per-cell workload: for each cell in grid.cells(), the number of
/// candidate points a query point of that cell evaluates — the sizes of
/// all pattern-accepted adjacent cells plus the origin cell's own size
/// (the paper's "number of neighbors" of the cell). A non-null `pool`
/// quantifies cells in parallel; output is identical either way.
[[nodiscard]] std::vector<std::uint64_t> cell_workloads(
    const GridIndex& grid, CellPattern pattern, ThreadPool* pool = nullptr);

/// Per-point workload: point_workloads(grid)[p] is the workload of p's
/// owning cell.
[[nodiscard]] std::vector<std::uint64_t> point_workloads(
    const GridIndex& grid, CellPattern pattern, ThreadPool* pool = nullptr);

/// Per-probe-point workload for an R×S join: probe_point_workloads(
/// grid, probe)[q] is the number of candidates probe point q evaluates
/// — the total size of the non-empty in-bounds cells in q's 3^n
/// adjacency window (anchored at its banded coordinates,
/// GridIndex::probe_cell_coord). The R×S analogue of point_workloads;
/// feeds SORTBYWL's D' ordering and WORKQUEUE chunking unchanged.
[[nodiscard]] std::vector<std::uint64_t> probe_point_workloads(
    const GridIndex& grid, const Dataset& probe, ThreadPool* pool = nullptr);

/// Point ids ordered by non-increasing workload (the paper's D').
/// Stable on ties (grid order) so runs are deterministic — also under a
/// pool (the parallel sort reproduces std::stable_sort exactly).
[[nodiscard]] std::vector<PointId> sort_by_workload(
    const GridIndex& grid, CellPattern pattern, ThreadPool* pool = nullptr);

/// Exact total number of candidate evaluations the whole self-join will
/// perform under `pattern` (own-cell pair counting uses the precise
/// rank-dependent count, not the per-cell upper bound).
[[nodiscard]] std::uint64_t total_candidate_evaluations(const GridIndex& grid,
                                                        CellPattern pattern);

}  // namespace gsj
