// The self-join GPU kernel, expressed for the SIMT simulator.
//
// One kernel type covers all of the paper's variants; the configuration
// selects behaviour exactly the way the CUDA implementations differ:
//
//  * GPUCALCGLOBAL [18]        — pattern FULL, Static assignment, k=1
//  * UNICOMP [18]              — pattern UNICOMP
//  * LID-UNICOMP (§III-B)      — pattern LID-UNICOMP
//  * k-granularity (§III-A)    — k>1 lanes per query point; candidate
//                                ranges are strided across the k lanes
//                                of a cooperative group
//  * WORKQUEUE (§III-D)        — points taken from a device-global
//                                atomic counter over the launch's chunk
//                                of the workload-sorted order D'; with
//                                k>1 only the group leader increments
//                                and broadcasts the grabbed index
//                                (cooperative groups / __shfl_sync)
//
// A lane's program is the CUDA kernel's loop nest unrolled into lockstep
// work units:
//   NextCell step — advance the 3^n adjacency odometer by one slot:
//       bounds check + pattern predicate (cost_pattern_check), plus a
//       binary search into the non-empty cell array when the slot
//       survives (cost_cell_probe);
//   Scan step     — one candidate distance calculation (cost_dist) and,
//       within epsilon, result emission (cost_emit).
// The model charges the GPU's work; the host takes shortcuts with the
// same outcome. step() is the per-step reference: a NextCell step is
// one read of the kernel's SlotTable (grid/cell_access.hpp), two mask
// tests against the lane's origin, and a one-id GridIndex::occupancy
// read, so a slot costs O(1) host work while cost_cell_probe still
// models the binary search (docs/PERFORMANCE.md, "NextCell window walk"
// and "Occupancy words"). simt::launch instead calls run_warp once per
// warp, which replays the whole warp (docs/PERFORMANCE.md, "Warp
// replay"): each cooperative group walks its window once, ANDing its
// accepted-slot mask with the window's occupancy a row at a time, each
// lane's steps become 64-step bitmasks per cost class, and the warp
// reduces them to each step's max cost in the device's cost order. The
// modeled steps, cycles and emissions are exactly the per-step ones.
// In 2-D the replay's hit tests read the candidates' coordinates from
// the run's scan columns (scan_columns: x and y copied into grid order),
// two candidates per vector compare, instead of gathering them through
// point_ids (docs/PERFORMANCE.md, "Contiguous 2-D scan").
//
// Result-pair semantics match reference.hpp: all ordered pairs with
// self pairs. FULL evaluates both directions and emits one pair per
// evaluation; the unidirectional patterns evaluate each unordered pair
// once (adjacent cells via the pattern predicate, the own cell via the
// grid-rank rule) and emit both ordered pairs.
//
// Buffer overflow: emissions go through ResultSet's batch window (see
// result_set.hpp) — like the CUDA kernel's atomicAdd into a fixed
// pinned buffer, a lane keeps *counting* past the capacity while writes
// are dropped, and lane behaviour never branches on the shared count
// (what keeps the parallel host path bit-identical). The host aborts
// an overflowing launch at warp-block granularity via simt::launch's
// abort hook and rolls the batch back (sj/execute.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "grid/cell_access.hpp"
#include "grid/grid_index.hpp"
#include "simt/counter.hpp"
#include "simt/device.hpp"
#include "simt/launch.hpp"
#include "sj/result_set.hpp"

namespace gsj {

/// How query points are bound to thread groups.
enum class Assignment {
  Static,     ///< group g processes points[g]
  WorkQueue,  ///< group leader atomically pops the next index of `points`
};

[[nodiscard]] std::string to_string(Assignment a);

struct KernelParams {
  const GridIndex* grid = nullptr;
  CellPattern pattern = CellPattern::Full;
  Assignment assignment = Assignment::Static;
  /// R×S mode: query ids index this dataset instead of the gridded one
  /// (candidate ids still index the grid's dataset). Each in-ε
  /// candidate emits exactly one (probe_id, grid_id) pair — no mirror,
  /// no self-pair, no own-cell rank rule, and `pattern` is ignored
  /// (every cell of the probe's 3^n window must be scanned). nullptr
  /// keeps the classic self-join semantics.
  const Dataset* probe = nullptr;
  int k = 1;  ///< lanes per query point; must divide warp_size
  /// The launch's query points, one per cooperative group: a strided
  /// batch list, or a contiguous chunk of D' (the workload-sorted
  /// order) that WorkQueue leaders pop in execution order through the
  /// kernel's own counter. The launch must use points.size() * k
  /// threads.
  std::span<const PointId> points;
  const simt::DeviceConfig* device = nullptr;
  ResultSet* results = nullptr;
  /// scan_columns(*grid): required, 2·n long, when the grid is 2-D;
  /// ignored otherwise. Must outlive the kernel.
  std::span<const double> columns;
};

/// The 2-D replay's scan columns: the gridded points' x coordinates,
/// then their y coordinates, each in grid order (position i holds point
/// grid.point_ids()[i]), so a cell's candidates are one contiguous range
/// of each column. Empty when the grid is not 2-D. A run builds them
/// once and hands them to every launch through KernelParams::columns.
[[nodiscard]] std::vector<double> scan_columns(const GridIndex& grid);

class SelfJoinKernel {
 public:
  explicit SelfJoinKernel(const KernelParams& p);

  /// 48 bytes: the parallel host path keeps one per lane of a
  /// 4,096-warp block.
  struct LaneState {
    SlotTable::Origin origin{};     ///< q's cell (R×S: banded probe cell)
    PointId q = 0;
    std::uint32_t rank = 0;         ///< grid rank of q (own-cell rule)
    std::uint32_t group_rank = 0;   ///< 0..k-1 within the cooperative group
    std::uint32_t slot = 0;         ///< odometer over the 3^n slots
    std::uint32_t cand_pos = 0;     ///< current candidate (into point_ids)
    std::uint32_t cand_end = 0;
    bool scanning = false;
  };

  /// Per-warp side-effect sink for parallel host execution (see
  /// simt::ParallelHostKernel): each warp's step loop emits into a
  /// private ResultSet; merge_shard appends them to the shared set in
  /// dispatch order, reproducing the sequential emission stream byte
  /// for byte.
  struct Shard {
    ResultSet results;
    std::uint64_t emitted = 0;

    /// `capacity` bounds the shard's own pair storage to the batch
    /// buffer capacity (counting continues past it), so even a single
    /// runaway warp cannot materialize unbounded memory while its
    /// launch is overflowing.
    Shard(bool store_pairs, std::uint64_t capacity) : results(store_pairs) {
      results.begin_batch(capacity);
    }
  };

  simt::InitResult init_lane(LaneState& s, const simt::LaneCtx& ctx,
                             simt::WarpScratch& scratch);
  simt::StepResult step(LaneState& s) {
    return step_into(s, *p_.results, emitted_);
  }

  // --- parallel host execution (simt::ParallelHostKernel) ---
  [[nodiscard]] Shard make_shard() const {
    return Shard(p_.results->stores_pairs(), p_.results->batch_capacity());
  }
  /// Thread-safe step: all mutation goes to `shard` (the kernel's own
  /// state is read-only here; init_lane already ran sequentially).
  simt::StepResult step(LaneState& s, Shard& shard) {
    return step_into(s, shard.results, shard.emitted);
  }
  void merge_shard(Shard&& shard) {
    emitted_ += shard.emitted;
    p_.results->absorb(std::move(shard.results));
  }

  // --- warp replay (simt::WarpRunKernel) ---
  /// Runs the warp's whole lockstep loop at once, leaving exactly the
  /// stats and emission stream the loop over step() leaves.
  simt::detail::WarpRun run_warp(LaneState* lanes, const std::uint8_t* active,
                                 int warp_size) {
    return replay(lanes, active, warp_size, *p_.results, emitted_);
  }
  simt::detail::WarpRun run_warp(LaneState* lanes, const std::uint8_t* active,
                                 int warp_size, Shard& shard) {
    return replay(lanes, active, warp_size, shard.results, shard.emitted);
  }

  [[nodiscard]] std::uint64_t atomics_executed() const noexcept {
    return atomics_;
  }
  [[nodiscard]] std::uint64_t results_emitted() const noexcept {
    return emitted_;
  }

 private:
  /// A lane step's cost class: the replay keeps one step bitmask per
  /// class. The costs are next_cell()'s and scan()'s.
  enum StepClass : std::uint8_t {
    kCheck,      ///< rejected, out-of-bounds or centre slot
    kCheckEmit,  ///< the centre slot, emitting the group's (q, q) pair
    kProbe,      ///< accepted slot: pattern check plus cell probe
    kDist,       ///< candidate outside ε
    kDistEmit,   ///< candidate within ε, emitted
    kRetire,     ///< the step past the last slot
    kClasses,
  };
  /// One non-empty cell of a window: its slot and the group's
  /// candidate range there (group rank r scans begin + r, begin + r + k,
  /// ...).
  struct WindowCell {
    std::uint32_t slot, begin, end;
  };
  /// Window cells one warp's replay keeps, shared out evenly among its
  /// groups' rings.
  static constexpr std::uint32_t kRingCells = 1024;

  simt::StepResult step_into(LaneState& s, ResultSet& out,
                             std::uint64_t& emitted) const;
  simt::StepResult next_cell(LaneState& s, ResultSet& out,
                             std::uint64_t& emitted) const;
  simt::StepResult scan(LaneState& s, ResultSet& out,
                        std::uint64_t& emitted) const;
  simt::detail::WarpRun replay(LaneState* lanes, const std::uint8_t* active,
                               int warp_size, ResultSet& out,
                               std::uint64_t& emitted) const;
  /// The first cell of `s`'s window at a slot in [from, limit) that the
  /// slot mask `walked` names, moving `from` past it; or false, with
  /// `from` past every such slot, if none. A resumable walk is its
  /// `from`.
  bool find_cell(const LaneState& s, const std::uint64_t* walked,
                 std::uint32_t& from, std::uint32_t limit,
                 WindowCell& out) const;
  /// Bit i set iff candidate point_ids_[pos + i·k] is within ε of `q`,
  /// for i < len <= 64: scan()'s test over a run of candidates. Outside
  /// 2-D it is within_eps itself; in 2-D it reads the scan columns, two
  /// candidates per vector compare, with scan()'s sum and bound.
  [[nodiscard]] std::uint64_t hit_mask(PointId q, std::uint32_t pos,
                                       std::uint32_t len) const noexcept;

  /// Query `a` (probe dataset in R×S mode, gridded dataset otherwise)
  /// against candidate `b` (always the gridded dataset). qcoords_
  /// aliases coords_ for the self-join, so this is the one distance
  /// routine for both modes.
  [[nodiscard]] double dist2(PointId a, PointId b) const noexcept {
    double sum = 0.0;
    for (int d = 0; d < dims_; ++d) {
      const double diff = qcoords_[static_cast<std::size_t>(d)][a] -
                          coords_[static_cast<std::size_t>(d)][b];
      sum += diff * diff;
    }
    return sum;
  }

  /// dist(a, b) <= epsilon with per-dimension short-circuit for
  /// dims > 2 (host-side speedup only — the modeled cost_dist is
  /// charged in full either way, like SUPER-EGO's early termination).
  /// The hit test of scan() and, outside 2-D, of the replay's
  /// hit_mask, so the two paths cannot disagree on a pair.
  [[nodiscard]] bool within_eps(PointId a, PointId b) const noexcept {
    if (dims_ <= 2) return dist2(a, b) <= eps2_;
    double sum = 0.0;
    for (int d = 0; d < dims_; ++d) {
      const double diff = qcoords_[static_cast<std::size_t>(d)][a] -
                          coords_[static_cast<std::size_t>(d)][b];
      sum += diff * diff;
      if (sum > eps2_) return false;
    }
    return true;
  }

  KernelParams p_;
  SlotTable slots_;  ///< the 3^n window (FULL's for R×S)
  // Cached hot fields.
  const GridCell* cells_ = nullptr;
  const PointId* point_ids_ = nullptr;
  std::array<const double*, kMaxDims> coords_{};   ///< gridded dataset
  std::array<const double*, kMaxDims> qcoords_{};  ///< query side (== coords_ for Self)
  /// 2-D: the scan columns' x and y halves, indexed by grid position.
  const double* col_x_ = nullptr;
  const double* col_y_ = nullptr;
  int dims_ = 0;
  double eps2_ = 0.0;
  bool unidirectional_ = false;
  bool rxs_ = false;
  std::uint32_t cost_dist_ = 0;
  std::array<std::uint32_t, kClasses> class_cost_{};
  /// Classes by descending cost under the device's cost table: the
  /// order in which the replay charges each step its slowest lane.
  std::array<std::uint8_t, kClasses> class_order_{};
  /// WorkQueue head over points: a launch's queue is its own batch,
  /// so every launch starts at index 0.
  simt::DeviceCounter counter_;
  std::uint64_t atomics_ = 0;
  std::uint64_t emitted_ = 0;
  /// The previous init_lane's q and what it derived from it.
  struct LastInit {
    SlotTable::Origin origin{};
    PointId q = kInvalidPointId;
    std::uint32_t rank = 0;
  } last_;
};

// The per-lane step is defined here, not in kernels.cpp, so that
// simt::launch's step loop inlines it: on NextCell-bound joins the call
// was a measurable share of the host time per lane-step.
inline simt::StepResult SelfJoinKernel::step_into(
    LaneState& s, ResultSet& out, std::uint64_t& emitted) const {
  return s.scanning ? scan(s, out, emitted) : next_cell(s, out, emitted);
}

inline simt::StepResult SelfJoinKernel::scan(LaneState& s, ResultSet& out,
                                             std::uint64_t& emitted) const {
  const PointId c = point_ids_[s.cand_pos];
  std::uint32_t cost = cost_dist_;
  if (within_eps(s.q, c)) {
    out.emit(s.q, c);
    ++emitted;
    if (unidirectional_) {
      // This evaluation is the only one for the unordered pair {q, c}:
      // mirror it (the CUDA code writes both pairs to the buffer).
      out.emit(c, s.q);
      ++emitted;
    }
    cost += p_.device->cost_emit;
  }
  s.cand_pos += static_cast<std::uint32_t>(p_.k);
  if (s.cand_pos >= s.cand_end) s.scanning = false;
  return {true, cost};
}

inline simt::StepResult SelfJoinKernel::next_cell(
    LaneState& s, ResultSet& out, std::uint64_t& emitted) const {
  if (s.slot >= slots_.size()) return {false, 1};
  const std::uint32_t cur = s.slot++;
  std::uint32_t cost = p_.device->cost_pattern_check;

  if (!rxs_ && cur == slots_.centre()) {
    // The origin cell itself: q's own.
    const GridCell& cell = cells_[p_.grid->cell_of_point(s.q)];
    std::uint32_t begin, end = cell.end;
    if (p_.pattern == CellPattern::Full) {
      begin = cell.begin;  // every own-cell point, q included (self pair)
    } else {
      // Rank rule: only own-cell points after q in grid order; each
      // evaluation emits both pairs. The (q,q) self pair is written
      // directly, once per group.
      if (s.group_rank == 0) {
        out.emit(s.q, s.q);
        ++emitted;
        cost += p_.device->cost_emit;
      }
      begin = s.rank + 1;
    }
    begin += s.group_rank;  // k-way split of the candidate range
    if (begin < end) {
      s.cand_pos = begin;
      s.cand_end = end;
      s.scanning = true;
    }
    return {true, cost};
  }

  const SlotTable::Slot& slot = slots_[cur];
  if (!SlotTable::in_bounds(slot, s.origin) ||
      !SlotTable::accepts(slot, s.origin)) {
    return {true, cost};
  }
  cost += p_.device->cost_cell_probe;
  const GridIndex::Occupancy occ =
      p_.grid->occupancy(s.origin.id + slot.delta, 1);
  if (occ.bits == 0) return {true, cost};

  const GridCell& cell = cells_[occ.cell];
  const std::uint32_t begin = cell.begin + s.group_rank;
  if (begin < cell.end) {
    s.cand_pos = begin;
    s.cand_end = cell.end;
    s.scanning = true;
  }
  return {true, cost};
}

static_assert(sizeof(SelfJoinKernel::LaneState) <= 48,
              "LaneState is per-lane host memory on the parallel path");

}  // namespace gsj
