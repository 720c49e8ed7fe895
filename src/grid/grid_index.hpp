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
//   * an occupancy table — for every 64-id block of the linear id space
//                      that holds a non-empty cell, its occupancy word and
//                      the cells() index of its first cell, hashed by block
//                      number, so occupancy() answers "which of these ≤ 64
//                      consecutive ids are non-empty cells, and which
//                      cells" with one or two hash probes and a popcount.
//                      O(non-empty cells) space, whatever the grid's id
//                      space.
// Every window walk (the 3^n adjacency of a cell, the shells around a
// location, and the ε-range query for_each_in_range built on them) runs
// one private odometer, walk_window, which reads each row of its box
// (a run of ids) from the occupancy table; the kernels' walks and
// workload quantification read the same table.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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

  /// One entry of the occupancy table: a 64-id block that holds a
  /// non-empty cell. An empty table slot has word 0.
  struct OccupancyBlock {
    std::uint64_t block = 0;  ///< linear id / 64
    std::uint64_t word = 0;   ///< bit i: id 64·block + i is non-empty
    std::uint32_t first = 0;  ///< cells() index of its first cell
  };

  /// Which of the `n` consecutive linear ids first, first + 1, ...,
  /// first + n − 1 (1 <= n <= 64, modulo 2^64) name non-empty cells:
  /// bit i of `bits` is set iff id first + i does. The cells of the set
  /// bits are consecutive in cells(), in bit order, from index `cell`;
  /// so the cell of set bit i is cell + popcount(bits below i). `cell`
  /// is meaningless when `bits` is 0. One hash probe of the occupancy
  /// table, two when the run crosses a 64-id block.
  struct Occupancy {
    std::uint64_t bits = 0;
    std::uint32_t cell = 0;
  };
  [[nodiscard]] Occupancy occupancy(std::uint64_t first,
                                    std::uint32_t n) const noexcept {
    const std::uint64_t block = first / 64;
    const auto off = static_cast<std::uint32_t>(first % 64);
    const OccupancyBlock& lo = block_at(block);
    const std::uint64_t low = lo.word >> off;
    Occupancy r{low, 0};
    const OccupancyBlock* hi = &lo;
    if (off + n > 64) {
      // The next block; past id 2^64 − 1 the run wraps to block 0.
      hi = &block_at((block + 1) % (std::uint64_t{1} << 58));
      r.bits |= hi->word << (64 - off);
    }
    r.bits &= ~std::uint64_t{0} >> (64 - n);
    if (r.bits == 0) return r;
    // The first set bit is lo's when lo has one at or past `off` (all of
    // them lie in the run when it crosses into hi), else hi's first.
    r.cell = low != 0 ? lo.first + static_cast<std::uint32_t>(std::popcount(
                                       lo.word & ((std::uint64_t{1} << off) - 1)))
                      : hi->first;
    return r;
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

  /// Heap footprint of the index: the cell array, the three per-point
  /// arrays and the occupancy table; feeds JoinService cache accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return cells_.size() * sizeof(GridCell) +
           point_ids_.size() * sizeof(PointId) +
           point_cell_.size() * sizeof(std::uint32_t) +
           point_rank_.size() * sizeof(std::uint32_t) +
           occupancy_.size() * sizeof(OccupancyBlock);
  }

 private:
  /// Digest of the full index content (epsilon, dims, generation, every
  /// cell's (linear_id, begin) and every grid-ordered point id) —
  /// shared by the constructor and repair() so digest equality between
  /// a repaired index and a from-scratch rebuild proves bit-identity.
  void recompute_content_key();
  /// Rebuilds the occupancy table from cells_ (constructor and repair):
  /// 2^⌈log2(2·blocks)⌉ slots, linear probing, so a probe that misses
  /// stops at an empty slot after about two reads.
  void build_occupancy();
  /// The table entry of block `block`, or an empty slot (word 0) when no
  /// non-empty cell lies in it.
  [[nodiscard]] const OccupancyBlock& block_at(
      std::uint64_t block) const noexcept {
    const std::size_t mask = occupancy_.size() - 1;
    for (std::size_t h = block_hash(block);; h = (h + 1) & mask) {
      const OccupancyBlock& b = occupancy_[h];
      if (b.block == block || b.word == 0) return b;
    }
  }
  [[nodiscard]] std::size_t block_hash(std::uint64_t block) const noexcept {
    return static_cast<std::size_t>((block * 0x9E3779B97F4A7C15ull) >>
                                    occupancy_shift_);
  }
  /// Fills cells_, point_ids_, point_cell_ and point_rank_ from the n
  /// (cell id, point id) pairs that successive `entry()` calls yield in
  /// (cell, id) order, then stamps the generation and rebuilds the
  /// content key and occupancy table. The constructor and repair() both
  /// build through it, so a repaired index equals a rebuild.
  template <typename Entry>
  void materialize(std::size_t n, Entry&& entry);
  /// Linear cell id of the location whose coordinate in dimension d is
  /// x(d) (max-boundary coordinates fold into the last cell).
  template <typename X>
  [[nodiscard]] std::uint64_t clamped_id(X&& x) const;
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
  std::vector<OccupancyBlock> occupancy_;  ///< hashed by block_hash
  int occupancy_shift_ = 63;  ///< 64 − log2(occupancy_.size())
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
  // Odometer over the box, last dimension fastest: linear ids ascend.
  // A row (the last dimension's run) is one id interval, read from the
  // occupancy table up to 64 ids at a time.
  const auto row_len = static_cast<std::uint32_t>(hi[last] - lo[last]) + 1;
  CellCoords cc = lo;
  std::uint64_t row = encode(lo);
  for (;;) {
    for (std::uint32_t at = 0; at < row_len; at += 64) {
      const Occupancy occ = occupancy(row + at, std::min(64u, row_len - at));
      std::size_t ci = occ.cell;
      for (std::uint64_t m = occ.bits; m != 0; m &= m - 1, ++ci) {
        const auto b = at + static_cast<std::uint32_t>(std::countr_zero(m));
        cc[last] = lo[last] + static_cast<std::int32_t>(b);
        fn(ci, cc, row + b);
      }
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
