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
// Every window walk (the 3^n adjacency of a cell, the shells around a
// location, and the ε-range query for_each_in_range built on them) runs
// one private odometer, walk_window. Its cells come in ascending id
// order, so it looks them up with seek_cell's forward-galloping cursor
// instead of a binary search per cell.
#pragma once

#include <algorithm>
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

  /// find_cell for ascending id sequences. `cursor` is an index into
  /// cells() (start it at 0) that only moves forward: the call gallops
  /// it (1, 2, 4, ... cells, then a binary search over the last jump)
  /// to the first cell whose linear id is >= `linear_id`, and returns
  /// that cell's index when its id matches, npos otherwise. A lookup
  /// therefore costs O(log gap) in the number of cells skipped, not
  /// O(log |cells|). Exact as long as no cell before the cursor has an
  /// id >= `linear_id` — guaranteed when the ids passed to one cursor
  /// never decrease (repeats are fine: a hit leaves the cursor on the
  /// matched cell). The window walks below rely on it: in odometer
  /// order the in-bounds cells of a window have strictly increasing
  /// linear ids.
  [[nodiscard]] std::size_t seek_cell(std::uint32_t& cursor,
                                      std::uint64_t linear_id) const noexcept {
    const GridCell* const first = cells_.data();
    const GridCell* const last = first + cells_.size();
    const GridCell* lo = first + cursor;
    if (lo != last && lo->linear_id < linear_id) {
      // Invariant: lo->linear_id < linear_id. Gallop until the jump
      // target reaches the id (or the end), then search the jump.
      std::size_t jump = 1;
      while (static_cast<std::size_t>(last - lo) > jump &&
             lo[jump].linear_id < linear_id) {
        lo += jump;
        jump *= 2;
      }
      const GridCell* hi =
          static_cast<std::size_t>(last - lo) > jump ? lo + jump : last;
      lo = std::lower_bound(
          lo + 1, hi, linear_id,
          [](const GridCell& c, std::uint64_t id) { return c.linear_id < id; });
    }
    cursor = static_cast<std::uint32_t>(lo - first);
    return lo != last && lo->linear_id == linear_id
               ? static_cast<std::size_t>(lo - first)
               : npos;
  }

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
  [[nodiscard]] std::uint64_t encode(const CellCoords& cc) const noexcept {
    std::uint64_t id = 0;
    for (int d = 0; d < dims(); ++d) {
      id += static_cast<std::uint64_t>(cc[d]) * stride(d);
    }
    return id;
  }

  /// Linear-id step of one cell along dimension `d` (row-major: the
  /// last dimension has stride 1).
  [[nodiscard]] std::uint64_t stride(int d) const noexcept {
    return stride_[static_cast<std::size_t>(d)];
  }

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

  /// Invokes `fn(cell_index, cell_coords, linear_id)` for every
  /// non-empty cell adjacent to the cell coordinates `oc` (all offsets
  /// in {-1,0,+1}^dims, `oc`'s own cell included), in ascending linear
  /// id order: lexicographic in the offset vector, the nested-loop order
  /// of the CUDA kernels. `oc` need not name a non-empty cell or lie in
  /// the grid (probe coordinates banded by probe_cell_coord): only the
  /// in-bounds part of the window is visited.
  template <typename Fn>
  void for_each_adjacent_to(const CellCoords& oc, Fn&& fn) const {
    std::array<double, kMaxDims> base{};
    for (int d = 0; d < dims(); ++d) base[static_cast<std::size_t>(d)] = oc[d];
    walk_window(base, 1.0, fn);
  }

  /// The same walk over every non-empty cell within `shells` cells of
  /// the location `coords` (dims() entries) in every dimension. The
  /// location is not clamped to the grid: an out-of-bounds location
  /// visits only the in-bounds part of its window (possibly nothing),
  /// never a spurious border cell.
  template <typename Fn>
  void for_each_within(std::span<const double> coords, int shells,
                       Fn&& fn) const {
    walk_window(location_cell(coords), shells, fn);
  }

  /// The ε-range query: invokes `fn(point_id, dist2)` for every indexed
  /// point within `eps` of the location `coords` (dims() entries, inside
  /// the grid or not), in walk order. dist2 sums (coords[d] − x_d)² in
  /// dimension order, as Dataset::dist2 does, and a point is in range
  /// iff dist2 <= eps². Walks ceil(eps / epsilon()) shells, the fewest
  /// that hold every cell a point within `eps` can lie in.
  template <typename Fn>
  void for_each_in_range(std::span<const double> coords, double eps,
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
  /// Unclamped cell coordinates of a location, floor((x − min) / ε) per
  /// dimension, kept in double so far-out locations cannot overflow.
  [[nodiscard]] std::array<double, kMaxDims> location_cell(
      std::span<const double> coords) const noexcept {
    std::array<double, kMaxDims> base{};
    for (int d = 0; d < dims(); ++d) {
      const auto sd = static_cast<std::size_t>(d);
      base[sd] = std::floor((coords[sd] - min_[sd]) / epsilon_);
    }
    return base;
  }
  /// The one window odometer: `fn(cell_index, cell_coords, linear_id)`
  /// for every non-empty cell within `shells` cells of `base` in every
  /// dimension, clipped to the grid, in ascending linear id order.
  template <typename Fn>
  void walk_window(const std::array<double, kMaxDims>& base, double shells,
                   Fn& fn) const;

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
void GridIndex::walk_window(const std::array<double, kMaxDims>& base,
                            double shells, Fn& fn) const {
  const int n = dims();
  const int last = n - 1;
  CellCoords lo;
  CellCoords hi;
  for (int d = 0; d < n; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    const double top = static_cast<double>(cells_per_dim(d) - 1);
    const double l = std::max(base[sd] - shells, 0.0);
    const double h = std::min(base[sd] + shells, top);
    if (l > h) return;
    lo[d] = static_cast<std::int32_t>(l);
    hi[d] = static_cast<std::int32_t>(h);
  }
  // Odometer over the box, last dimension fastest: linear ids ascend,
  // so one seek_cell cursor serves the whole walk. A row (the last
  // dimension's run) is one id interval: seek its start once, then
  // take the cells up to its end.
  const auto row_span = static_cast<std::uint64_t>(hi[last] - lo[last]);
  std::uint32_t cursor = 0;
  CellCoords cc = lo;
  std::uint64_t row = encode(lo);
  for (;;) {
    (void)seek_cell(cursor, row);
    for (; cursor < cells_.size() && cells_[cursor].linear_id <= row + row_span;
         ++cursor) {
      const std::uint64_t id = cells_[cursor].linear_id;
      cc[last] = lo[last] + static_cast<std::int32_t>(id - row);
      fn(std::size_t{cursor}, cc, id);
    }
    int d = last - 1;
    for (; d >= 0; --d) {
      if (cc[d] < hi[d]) {
        ++cc[d];
        row += stride(d);
        break;
      }
      row -= static_cast<std::uint64_t>(cc[d] - lo[d]) * stride(d);
      cc[d] = lo[d];
    }
    if (d < 0) return;
  }
}

template <typename Fn>
void GridIndex::for_each_in_range(std::span<const double> coords, double eps,
                                  Fn&& fn) const {
  const int n = dims();
  const double eps2 = eps * eps;
  // Query coordinates and column pointers hoisted: the scan reads one
  // candidate coordinate per dimension and nothing else.
  std::array<double, kMaxDims> x{};
  std::array<const double*, kMaxDims> col{};
  for (int d = 0; d < n; ++d) {
    x[static_cast<std::size_t>(d)] = coords[static_cast<std::size_t>(d)];
    col[static_cast<std::size_t>(d)] = ds_->dim(d).data();
  }
  auto scan = [&](std::size_t ci, const CellCoords&, std::uint64_t) {
    const GridCell& c = cells_[ci];
    for (std::uint32_t pos = c.begin; pos < c.end; ++pos) {
      const PointId p = point_ids_[pos];
      double s = 0.0;
      for (int d = 0; d < n; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        const double diff = x[sd] - col[sd][p];
        s += diff * diff;
      }
      if (s <= eps2) fn(p, s);
    }
  };
  walk_window(location_cell(coords), std::ceil(eps / epsilon_), scan);
}

}  // namespace gsj
