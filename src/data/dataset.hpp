// n-dimensional point dataset in structure-of-arrays layout.
//
// Coordinates are stored as one contiguous array per dimension so the
// join kernels stream a single dimension at a time (the layout the GPU
// implementation in Gowanlock & Karsin [18] uses for coalesced access).
//
// Mutation contract (docs/STREAMING.md): the dataset is mutated through
// explicit operations — insert / erase / move_point / set_coord — and
// every one of them (a) bumps the coarse generation counter that
// external caches key on, and (b) appends a Mutation record to a
// bounded dirty log. Consumers that cached derived state at generation
// g call mutations_since(g): a contiguous view of exactly the
// mutations between g and now lets them repair incrementally
// (grid/grid_index.hpp repair, sj/engine.hpp cache repair); a lost
// window (too much churn, or dims beyond the log's coordinate
// capacity) returns nullopt and the consumer rebuilds from scratch.
// There is deliberately no non-const coord() accessor any more — reads
// can never invalidate anything.
//
// erase() keeps PointIds dense by swap-and-pop: the last point is
// renamed into the erased slot, and the rename is part of the Mutation
// record so log consumers can track identity exactly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gsj {

/// Index of a point within a Dataset.
using PointId = std::uint32_t;

/// Sentinel for "no point" (used by Mutation::renamed_from and churn
/// summaries for deleted points).
inline constexpr PointId kInvalidPointId =
    std::numeric_limits<PointId>::max();

/// One entry of the dataset's dirty log. Coordinates are stored inline
/// (first dims() entries of the arrays are meaningful) so the log never
/// allocates per mutation; datasets wider than kCoordCap dimensions are
/// not logged (their consumers always rebuild).
struct Mutation {
  /// Widest dimensionality the log records coordinates for. Matches
  /// the grid index's kMaxDims — wider datasets cannot be grid-joined
  /// anyway.
  static constexpr int kCoordCap = 8;

  enum class Kind : std::uint8_t {
    Insert,  ///< new point appended at `id` (== previous size())
    Erase,   ///< point `id` removed; `renamed_from` moved into its slot
    Move,    ///< point `id` re-positioned from old_coords to new_coords
  };

  Kind kind = Kind::Insert;
  /// The slot the mutation applied to, in the id space current at the
  /// time of the mutation.
  PointId id = 0;
  /// Erase only: the previous id of the point that now lives at `id`
  /// (the swap-and-pop rename), or kInvalidPointId when the erased
  /// point was the last one (no rename happened).
  PointId renamed_from = kInvalidPointId;
  std::array<double, kCoordCap> old_coords{};  ///< Erase / Move
  std::array<double, kCoordCap> new_coords{};  ///< Insert / Move
};

class Dataset {
 public:
  Dataset() = default;

  /// Creates an empty dataset of `dims` dimensions (1..16 supported).
  explicit Dataset(int dims);

  /// Creates a dataset of `n` zero points in `dims` dimensions.
  Dataset(int dims, std::size_t n);

  /// Copies take a fresh uid: a copy is a distinct dataset whose
  /// content diverges independently, so cache keys built from
  /// (uid, generation) must never alias it to the original. Moves keep
  /// the uid — the moved-to object *is* the same dataset.
  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  Dataset(Dataset&&) noexcept = default;
  Dataset& operator=(Dataset&&) noexcept = default;
  ~Dataset() = default;

  /// Process-unique dataset identity, assigned at construction (and
  /// refreshed on copy). Combined with generation() it identifies the
  /// exact point-set content of this object — the pair the R×S/KNN
  /// join caches fold into their keys for the *second* dataset, which
  /// (unlike the attached one) carries no SharedDataset identity of
  /// its own (sj/pipeline.hpp make_result_key).
  [[nodiscard]] std::uint64_t uid() const noexcept { return uid_; }

  [[nodiscard]] int dims() const noexcept { return dims_; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  /// Coordinate of point `i` in dimension `d` (0-based). Read-only:
  /// writes go through set_coord / move_point, which log the mutation.
  [[nodiscard]] double coord(std::size_t i, int d) const noexcept {
    return coords_[static_cast<std::size_t>(d)][i];
  }

  /// Mutation counter: bumped once by every mutating operation
  /// (insert/push_back, erase, move_point, set_coord). Cached derived
  /// structures — grid indexes, workload tables — record the
  /// generation they were built at; a mismatch means stale, and
  /// mutations_since(their generation) tells them exactly what changed.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// Whole coordinate column for dimension `d`.
  [[nodiscard]] std::span<const double> dim(int d) const noexcept {
    return coords_[static_cast<std::size_t>(d)];
  }

  /// Appends one point; `p.size()` must equal dims() and every
  /// coordinate must be finite (CheckError naming the point and
  /// dimension otherwise). Returns the new point's id (== size() before
  /// the call).
  PointId insert(std::span<const double> p);

  /// Appends one point (insert without the returned id — the
  /// historical spelling, kept for the call sites that predate the
  /// mutation API).
  void push_back(std::span<const double> p) { (void)insert(p); }

  /// Removes point `i` by swap-and-pop: the last point is renamed to
  /// id `i` (recorded in the mutation log), keeping ids dense in
  /// [0, size()).
  void erase(PointId i);

  /// Re-positions point `i` to `p` (`p.size()` must equal dims();
  /// every coordinate must be finite, as for insert).
  void move_point(PointId i, std::span<const double> p);

  /// Sets one coordinate of point `i` — a single-dimension move_point.
  void set_coord(PointId i, int d, double v);

  /// Bulk-load write access to a whole coordinate column, for loaders
  /// and generators filling a freshly constructed dataset. Bumps the
  /// generation and invalidates the dirty log and bbox cache once per
  /// call — not per element — so incremental consumers see it as an
  /// unrepairable (full-rebuild) change.
  [[nodiscard]] std::span<double> fill_dim(int d);

  /// Reserves capacity for `n` points.
  void reserve(std::size_t n);

  /// Squared Euclidean distance between points `a` and `b`.
  [[nodiscard]] double dist2(std::size_t a, std::size_t b) const noexcept {
    double s = 0.0;
    for (int d = 0; d < dims_; ++d) {
      const double diff = coord(a, d) - coord(b, d);
      s += diff * diff;
    }
    return s;
  }

  /// The dirty log since generation `gen`: a view of exactly the
  /// mutations that transformed the dataset from generation `gen` to
  /// generation(). Empty span when gen == generation(). nullopt when
  /// the window is no longer available (gen predates the bounded log,
  /// gen is in the future, or dims() > Mutation::kCoordCap) — the
  /// caller must fall back to a full rebuild. The view is invalidated
  /// by the next mutation.
  [[nodiscard]] std::optional<std::span<const Mutation>> mutations_since(
      std::uint64_t gen) const;

  /// Per-dimension minimum/maximum over all points. Dataset must be
  /// non-empty. Served from a cache that mutations maintain
  /// incrementally: inserts and inward moves extend/keep it in O(d);
  /// only a mutation that removes a boundary point re-scans (just the
  /// affected dimensions, on the next call or mutation). Reads never
  /// write the cache, so concurrent readers are safe; before the first
  /// mutation (or after a bulk load) each call scans the columns.
  [[nodiscard]] std::vector<double> min_corner() const;
  [[nodiscard]] std::vector<double> max_corner() const;

  /// Returns a dataset containing this dataset's points in the order
  /// given by `perm` (a permutation of [0, size())).
  [[nodiscard]] Dataset permuted(std::span<const PointId> perm) const;

  /// Human-readable one-line description (size / dims / bounding box).
  [[nodiscard]] std::string describe() const;

  /// Most-recent mutations guaranteed retained by the bounded log
  /// (amortized trimming keeps between kLogWindow and 2*kLogWindow
  /// entries once exceeded). Consumers that poll at least this often
  /// never hit the lost-window fallback.
  static constexpr std::size_t kLogWindow = 4096;

 private:
  [[nodiscard]] static std::uint64_t next_uid() noexcept;
  void log_mutation(Mutation m);
  [[nodiscard]] bool logging() const noexcept {
    return dims_ <= Mutation::kCoordCap;
  }
  /// Copies point `i`'s coordinates into a log-entry array.
  void capture(std::size_t i, std::array<double, Mutation::kCoordCap>& out)
      const noexcept;

  /// Builds the bbox cache, or folds outstanding dirty dimensions back
  /// into it (called at the head of every mutation, where exclusive
  /// access is guaranteed; const readers recompute dirty dims without
  /// caching).
  void refresh_bbox();
  /// Extends the cached bbox with a point now present in the dataset.
  void bbox_extend(std::span<const double> p);
  /// Marks dimensions where a removed (or moved-away-from) coordinate
  /// sat on the cached boundary as needing a rescan.
  void bbox_mark_removed(std::span<const double> old);

  int dims_ = 0;
  std::size_t n_ = 0;
  std::uint64_t uid_ = next_uid();
  std::uint64_t generation_ = 0;
  std::vector<std::vector<double>> coords_;  // [dim][point]

  // --- dirty log (docs/STREAMING.md) ---
  std::vector<Mutation> log_;
  /// Generation the dataset was at before log_[0] applied.
  std::uint64_t log_base_gen_ = 0;

  // --- incrementally maintained bounding box ---
  bool bbox_valid_ = false;               ///< cache holds current values
  std::vector<double> bbox_min_;          ///< per-dim cached minimum
  std::vector<double> bbox_max_;          ///< per-dim cached maximum
  std::vector<std::uint8_t> bbox_min_dirty_;  ///< dim needs a rescan
  std::vector<std::uint8_t> bbox_max_dirty_;
};

}  // namespace gsj
