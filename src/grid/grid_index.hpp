// Epsilon grid index over non-empty cells only, after Gowanlock &
// Karsin [18].
//
// Space is partitioned into cells of side `epsilon` per dimension, so a
// range query around a point only needs the 3^n adjacent cells. Only
// non-empty cells are materialized: the index is
//   * `cells()`      — non-empty cells sorted by linear id (binary
//                      searchable, this is the paper's array B),
//   * `point_ids()`  — all point ids grouped by cell (each cell owns a
//                      contiguous range), giving O(|D|) space,
//   * per-point back-references (owning cell, rank within grid order).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "data/dataset.hpp"

namespace gsj {

class ThreadPool;

/// Maximum indexable dimensionality (paper evaluates 2..6).
inline constexpr int kMaxDims = 8;

/// Multidimensional cell coordinates (only the first dims() entries of
/// `c` are meaningful).
struct CellCoords {
  std::array<std::int32_t, kMaxDims> c{};

  [[nodiscard]] std::int32_t operator[](int d) const noexcept {
    return c[static_cast<std::size_t>(d)];
  }
  std::int32_t& operator[](int d) noexcept {
    return c[static_cast<std::size_t>(d)];
  }
};

/// What GridIndex::repair did. When `repaired` is true the index was
/// patched cell-granularly and `dirty_cell_ids` names every cell
/// (by linear id) whose membership set changed — the exact set a
/// workload-table consumer must re-derive (plus one adjacency shell).
/// When false the repair fell back to a from-scratch rebuild (log
/// window lost, grid shape changed, or the dataset is too wide to
/// log); the index is still valid either way.
struct GridRepairOutcome {
  bool repaired = false;
  std::vector<std::uint64_t> dirty_cell_ids;  ///< sorted, unique
  std::size_t touched_points = 0;  ///< live points re-bucketed
  std::size_t removed_points = 0;  ///< points that left the dataset
  /// True when the window contained only Move mutations (see
  /// ChurnSummary::pure_moves); meaningless on fallback.
  bool pure_moves = false;
};

/// One non-empty grid cell: its linear id and the contiguous range of
/// grid-ordered point ids it owns.
struct GridCell {
  std::uint64_t linear_id = 0;
  std::uint32_t begin = 0;  ///< range [begin, end) into point_ids()
  std::uint32_t end = 0;

  [[nodiscard]] std::uint32_t size() const noexcept { return end - begin; }
};

class GridIndex {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Builds the index for `ds` with cell side `epsilon`. The dataset
  /// must outlive the index (the index stores a reference). An optional
  /// `pool` parallelizes the build (cell-id computation and the grid
  /// sort); the resulting index is identical with or without it.
  GridIndex(const Dataset& ds, double epsilon, ThreadPool* pool = nullptr);

  [[nodiscard]] const Dataset& dataset() const noexcept { return *ds_; }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  [[nodiscard]] int dims() const noexcept { return ds_->dims(); }

  /// Dataset generation this index reflects (set at build, advanced by
  /// repair). Equal to dataset().generation() iff the index is current.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// Brings the index up to date with the dataset after mutations,
  /// re-bucketing only the touched points: untouched points keep their
  /// grid order (the strict (cell, id) total order makes the patched
  /// arrays bit-identical to a from-scratch rebuild, which is what the
  /// differential tests assert via content_key equality). Falls back
  /// to a full rebuild when the mutation window is unavailable or the
  /// grid shape (bounding box / cell counts) changed. No-op when
  /// already current. The dataset must be non-empty.
  GridRepairOutcome repair(ThreadPool* pool = nullptr);

  /// Content digest of the built index: an FNV-1a fold of the build
  /// inputs (epsilon bits, point count, dims, the generation the index
  /// reflects), the grid shape (non-empty cell count, cells per
  /// dimension) and the full cell / point-order arrays. Two indexes
  /// over identical content produce equal keys, so digest equality
  /// between a repaired index and a from-scratch rebuild certifies the
  /// arrays are bit-identical (the churn tests' correctness bar). Used
  /// by the artifact cache (sj/service.hpp) to key plan slots —
  /// recomputed at build and after repair, O(1) to read.
  [[nodiscard]] std::uint64_t content_key() const noexcept {
    return content_key_;
  }

  /// Number of cells along dimension `d`.
  [[nodiscard]] std::int32_t cells_per_dim(int d) const noexcept {
    return cells_per_dim_[static_cast<std::size_t>(d)];
  }

  /// All non-empty cells, ascending by linear id.
  [[nodiscard]] std::span<const GridCell> cells() const noexcept {
    return cells_;
  }

  /// Point ids grouped by cell (the paper's point-lookup array).
  [[nodiscard]] std::span<const PointId> point_ids() const noexcept {
    return point_ids_;
  }

  /// Points of cell `cell_idx` (an index into cells()).
  [[nodiscard]] std::span<const PointId> cell_points(std::size_t cell_idx) const;

  /// Binary-searches the non-empty cell array; npos when the linear id
  /// maps to an empty cell.
  [[nodiscard]] std::size_t find_cell(std::uint64_t linear_id) const noexcept;

  /// Index (into cells()) of the cell owning point `p`.
  [[nodiscard]] std::size_t cell_of_point(PointId p) const noexcept {
    return point_cell_[p];
  }

  /// Position of point `p` within the grid-ordered point_ids() array.
  /// Within a cell this rank breaks ties for the "compare only to later
  /// points in my own cell" rule used by the unidirectional patterns.
  [[nodiscard]] std::uint32_t grid_rank(PointId p) const noexcept {
    return point_rank_[p];
  }

  /// Cell coordinates of the cell containing point `p`.
  [[nodiscard]] CellCoords coords_of_point(PointId p) const;

  /// Decodes a linear id into cell coordinates.
  [[nodiscard]] CellCoords decode(std::uint64_t linear_id) const noexcept;

  /// Encodes cell coordinates into a linear id. Coordinates must lie in
  /// [0, cells_per_dim(d)).
  [[nodiscard]] std::uint64_t encode(const CellCoords& cc) const noexcept;

  /// Cell coordinates an arbitrary location falls into, clamped to the
  /// grid bounds (locations outside the indexed bounding box map to the
  /// border cells). `coords` must have dims() entries.
  [[nodiscard]] CellCoords cell_coords_of(std::span<const double> coords) const;

  /// True when `cc` lies inside the grid bounds.
  [[nodiscard]] bool in_bounds(const CellCoords& cc) const noexcept;

  /// Cell coordinate of location `x` in dimension `d` for *probe*
  /// points of an R×S join: unclamped (out-of-bbox probes must not
  /// alias border cells), but banded to [-2, cells_per_dim(d)+1] so the
  /// value always fits an int32 regardless of how far out the probe
  /// sits. A probe more than one cell outside the grid then gets a
  /// 3-cell adjacency window that is entirely out of bounds — correctly
  /// empty, since such a point cannot have ε-neighbors in the grid.
  [[nodiscard]] std::int32_t probe_cell_coord(double x, int d) const noexcept {
    const auto sd = static_cast<std::size_t>(d);
    double c = std::floor((x - min_[sd]) / epsilon_);
    c = std::max(-2.0, std::min(c, static_cast<double>(cells_per_dim(d)) + 1.0));
    return static_cast<std::int32_t>(c);
  }

  /// Invokes `fn(neighbor_cell_index, neighbor_coords, neighbor_linear_id)`
  /// for every *non-empty* cell adjacent to `origin` (all offsets in
  /// {-1,0,+1}^dims), including the origin cell itself when
  /// `include_origin`. Enumeration order is lexicographic in the offset
  /// vector, matching the nested-loop order of the CUDA kernels.
  template <typename Fn>
  void for_each_adjacent(std::size_t origin_cell, bool include_origin,
                         Fn&& fn) const;

  /// Same enumeration around arbitrary cell coordinates (which need not
  /// name a non-empty cell). "include_origin" has no meaning here: the
  /// origin coordinates' own cell is always visited when non-empty.
  template <typename Fn>
  void for_each_adjacent_to(const CellCoords& oc, Fn&& fn) const;

  /// Invokes `fn(cell_index, cell_coords, linear_id)` for every
  /// non-empty cell within `shells` cells of the location `coords`
  /// (dims() entries) in every dimension — the cells a point at that
  /// location can have ε-neighbors in when shells >= ceil(eps/epsilon()).
  /// Unlike cell_coords_of, the location is NOT clamped to the grid:
  /// out-of-bounds locations visit only the in-bounds part of their
  /// shell (possibly nothing), never a spurious border cell.
  template <typename Fn>
  void for_each_within(std::span<const double> coords, int shells,
                       Fn&& fn) const;

  /// Total number of adjacent-cell slots probed (3^dims).
  [[nodiscard]] std::uint64_t adjacency_volume() const noexcept {
    std::uint64_t v = 1;
    for (int d = 0; d < dims(); ++d) v *= 3;
    return v;
  }

  /// Approximate heap footprint of the index (cell array + the three
  /// per-point vectors); feeds JoinService cache accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return cells_.capacity() * sizeof(GridCell) +
           point_ids_.capacity() * sizeof(PointId) +
           point_cell_.capacity() * sizeof(std::uint32_t) +
           point_rank_.capacity() * sizeof(std::uint32_t);
  }

 private:
  /// Digest of the full index content (epsilon, dims, generation, every
  /// cell's (linear_id, begin) and every grid-ordered point id) —
  /// shared by the constructor and repair() so digest equality between
  /// a repaired index and a from-scratch rebuild proves bit-identity.
  void recompute_content_key();
  /// Linear cell id of a location (max-boundary coordinates fold into
  /// the last cell, exactly as at build).
  [[nodiscard]] std::uint64_t clamped_cell_id(
      std::span<const double> coords) const;

  const Dataset* ds_;
  double epsilon_;
  std::uint64_t generation_ = 0;
  std::uint64_t content_key_ = 0;
  std::array<double, kMaxDims> min_{};
  std::array<std::int32_t, kMaxDims> cells_per_dim_{};
  std::array<std::uint64_t, kMaxDims> stride_{};
  std::vector<GridCell> cells_;
  std::vector<PointId> point_ids_;
  std::vector<std::uint32_t> point_cell_;  ///< point id -> cells_ index
  std::vector<std::uint32_t> point_rank_;  ///< point id -> point_ids_ position
};

template <typename Fn>
void GridIndex::for_each_adjacent(std::size_t origin_cell, bool include_origin,
                                  Fn&& fn) const {
  const CellCoords oc = decode(cells_[origin_cell].linear_id);
  if (include_origin) {
    for_each_adjacent_to(oc, std::forward<Fn>(fn));
    return;
  }
  const std::uint64_t origin_id = cells_[origin_cell].linear_id;
  for_each_adjacent_to(oc, [&](std::size_t nidx, const CellCoords& nc,
                               std::uint64_t nid) {
    if (nid != origin_id) fn(nidx, nc, nid);
  });
}

template <typename Fn>
void GridIndex::for_each_adjacent_to(const CellCoords& oc, Fn&& fn) const {
  const int n = dims();
  // Odometer over offsets in {-1,0,1}^n, lexicographic.
  std::array<std::int32_t, kMaxDims> off{};
  for (int d = 0; d < n; ++d) off[static_cast<std::size_t>(d)] = -1;
  for (;;) {
    CellCoords nc;
    bool inb = true;
    for (int d = 0; d < n; ++d) {
      const std::int32_t v = oc[d] + off[static_cast<std::size_t>(d)];
      if (v < 0 || v >= cells_per_dim(d)) {
        inb = false;
        break;
      }
      nc[d] = v;
    }
    if (inb) {
      const std::uint64_t nid = encode(nc);
      const std::size_t nidx = find_cell(nid);
      if (nidx != npos) fn(nidx, nc, nid);
    }
    // Advance odometer.
    int d = n - 1;
    while (d >= 0) {
      auto& o = off[static_cast<std::size_t>(d)];
      if (++o <= 1) break;
      o = -1;
      --d;
    }
    if (d < 0) break;
  }
}

template <typename Fn>
void GridIndex::for_each_within(std::span<const double> coords, int shells,
                                Fn&& fn) const {
  const int n = dims();
  // Base cell deliberately unclamped (int64 absorbs far-out locations)
  // so the [base±shells] window intersected with the grid bounds is
  // exact for out-of-bbox query points too.
  std::array<std::int64_t, kMaxDims> lo{};
  std::array<std::int64_t, kMaxDims> hi{};
  for (int d = 0; d < n; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    const auto base = static_cast<std::int64_t>(
        std::floor((coords[sd] - min_[sd]) / epsilon_));
    lo[sd] = std::max<std::int64_t>(base - shells, 0);
    hi[sd] = std::min<std::int64_t>(base + shells,
                                    std::int64_t{cells_per_dim(d)} - 1);
    if (lo[sd] > hi[sd]) return;
  }
  std::array<std::int64_t, kMaxDims> cur = lo;
  for (;;) {
    CellCoords cc;
    for (int d = 0; d < n; ++d) {
      cc[d] = static_cast<std::int32_t>(cur[static_cast<std::size_t>(d)]);
    }
    const std::uint64_t id = encode(cc);
    const std::size_t idx = find_cell(id);
    if (idx != npos) fn(idx, cc, id);
    int d = n - 1;
    while (d >= 0) {
      const auto sd = static_cast<std::size_t>(d);
      if (++cur[sd] <= hi[sd]) break;
      cur[sd] = lo[sd];
      --d;
    }
    if (d < 0) break;
  }
}

}  // namespace gsj
