#include "grid/grid_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "data/churn.hpp"

namespace gsj {

template <typename X>
std::uint64_t GridIndex::clamped_id(X&& x) const {
  std::uint64_t id = 0;
  for (int d = 0; d < dims(); ++d) {
    const auto sd = static_cast<std::size_t>(d);
    auto c =
        static_cast<std::int32_t>(std::floor((x(d) - min_[sd]) / epsilon_));
    // Points exactly on the max boundary fold into the last cell.
    c = std::clamp(c, std::int32_t{0}, cells_per_dim_[sd] - 1);
    id += static_cast<std::uint64_t>(c) * stride_[sd];
  }
  return id;
}

GridIndex::GridIndex(const Dataset& ds, double epsilon, ThreadPool* pool)
    : ds_(&ds), epsilon_(epsilon) {
  GSJ_CHECK_MSG(epsilon > 0.0, "epsilon must be positive");
  GSJ_CHECK_MSG(!ds.empty(), "cannot index an empty dataset");
  GSJ_CHECK_MSG(ds.dims() <= kMaxDims, "dims " << ds.dims() << " > " << kMaxDims);

  const int n = ds.dims();
  const auto lo = ds.min_corner();
  const auto hi = ds.max_corner();
  std::uint64_t total_cells = 1;
  for (int d = 0; d < n; ++d) {
    min_[static_cast<std::size_t>(d)] = lo[static_cast<std::size_t>(d)];
    const double extent =
        hi[static_cast<std::size_t>(d)] - lo[static_cast<std::size_t>(d)];
    const auto cnt =
        static_cast<std::int32_t>(std::floor(extent / epsilon)) + 1;
    cells_per_dim_[static_cast<std::size_t>(d)] = cnt;
    GSJ_CHECK_MSG(total_cells <= (std::uint64_t{1} << 62) / static_cast<std::uint64_t>(cnt),
                  "grid too fine: linear ids would overflow (epsilon too small)");
    total_cells *= static_cast<std::uint64_t>(cnt);
  }
  // Row-major strides: last dimension is contiguous, so linear ids are
  // lexicographic in coordinate order (required by LID-UNICOMP's
  // monotonicity argument).
  std::uint64_t s = 1;
  for (int d = n - 1; d >= 0; --d) {
    stride_[static_cast<std::size_t>(d)] = s;
    s *= static_cast<std::uint64_t>(cells_per_dim_[static_cast<std::size_t>(d)]);
  }

  // Compute each point's linear cell id (independent per point, so
  // trivially parallel), then sort points by id.
  const std::size_t npts = ds.size();
  std::vector<std::uint64_t> ids(npts);
  const auto compute_ids = [&](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      ids[i] = clamped_id([&](int d) { return ds.coord(i, d); });
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for_chunks(npts, compute_ids);
  } else {
    compute_ids(0, npts);
  }

  point_ids_.resize(npts);
  std::iota(point_ids_.begin(), point_ids_.end(), PointId{0});
  // The comparator is a strict total order (id, then point id), so the
  // sorted order — and with it every downstream structure — is unique:
  // the parallel sort cannot diverge from the sequential one.
  parallel_stable_sort(
      point_ids_,
      [&ids](PointId a, PointId b) {
        return ids[a] != ids[b] ? ids[a] < ids[b] : a < b;
      },
      pool);

  // Materialize over the sorted order (each position's write rewrites
  // the point id just read from it).
  std::size_t next = 0;
  materialize(npts, [&] {
    const PointId p = point_ids_[next++];
    return std::pair{ids[p], p};
  });
}

template <typename Entry>
void GridIndex::materialize(std::size_t n, Entry&& entry) {
  cells_.clear();
  // Grow to exactly n, as a rebuild would: resize() alone doubles the
  // capacity of an array that churn grew by a single point.
  point_ids_.reserve(n);
  point_ids_.resize(n);
  point_cell_.assign(n, 0);
  point_rank_.assign(n, 0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const auto [id, p] = entry();
    point_ids_[pos] = p;
    point_rank_[p] = static_cast<std::uint32_t>(pos);
    if (cells_.empty() || cells_.back().linear_id != id) {
      cells_.push_back({id, static_cast<std::uint32_t>(pos),
                        static_cast<std::uint32_t>(pos)});
    }
    cells_.back().end = static_cast<std::uint32_t>(pos + 1);
    point_cell_[p] = static_cast<std::uint32_t>(cells_.size() - 1);
  }
  generation_ = ds_->generation();
  recompute_content_key();
  build_occupancy();
}

void GridIndex::build_occupancy() {
  // The blocks that hold a cell, in id order: cells_ is sorted by id.
  std::vector<OccupancyBlock> blocks;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const std::uint64_t id = cells_[i].linear_id;
    if (blocks.empty() || blocks.back().block != id / 64) {
      blocks.push_back({id / 64, 0, static_cast<std::uint32_t>(i)});
    }
    blocks.back().word |= std::uint64_t{1} << (id % 64);
  }
  // At most half the slots are taken, and at least one is empty.
  const std::size_t slots = std::bit_ceil(2 * blocks.size());
  occupancy_.assign(slots, OccupancyBlock{});
  occupancy_shift_ = 64 - std::countr_zero(slots);
  for (const OccupancyBlock& b : blocks) {
    std::size_t h = block_hash(b.block);
    while (occupancy_[h].word != 0) h = (h + 1) & (slots - 1);
    occupancy_[h] = b;
  }
}

void GridIndex::recompute_content_key() {
  // FNV-1a over the build inputs, the grid shape, and the full cell /
  // point-order content. Folding the content (not just the shape)
  // means digest equality between a repaired index and a from-scratch
  // rebuild certifies the arrays are bit-identical.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  mix(std::bit_cast<std::uint64_t>(epsilon_));
  mix(static_cast<std::uint64_t>(point_ids_.size()));
  mix(static_cast<std::uint64_t>(dims()));
  mix(generation_);
  mix(static_cast<std::uint64_t>(cells_.size()));
  for (int d = 0; d < dims(); ++d) {
    mix(static_cast<std::uint64_t>(cells_per_dim_[static_cast<std::size_t>(d)]));
  }
  for (const GridCell& c : cells_) {
    mix(c.linear_id);
    mix(c.begin);
  }
  for (const PointId p : point_ids_) mix(p);
  content_key_ = h;
}

GridRepairOutcome GridIndex::repair(ThreadPool* pool) {
  GridRepairOutcome out;
  const Dataset& ds = *ds_;
  GSJ_CHECK_MSG(!ds.empty(), "cannot repair an index over an empty dataset");
  if (generation_ == ds.generation()) {
    out.repaired = true;
    return out;
  }

  const auto window = ds.mutations_since(generation_);
  bool can_patch = window.has_value();

  // The patch keeps min_ / cells_per_dim_ / stride_ fixed; if churn
  // changed the bounding box enough to alter the grid shape, linear
  // ids are incomparable and only a rebuild is correct.
  if (can_patch) {
    const auto lo = ds.min_corner();
    const auto hi = ds.max_corner();
    for (int d = 0; d < dims(); ++d) {
      const auto sd = static_cast<std::size_t>(d);
      const auto cnt =
          static_cast<std::int32_t>(std::floor((hi[sd] - lo[sd]) / epsilon_)) +
          1;
      if (lo[sd] != min_[sd] || cnt != cells_per_dim_[sd]) {
        can_patch = false;
        break;
      }
    }
  }
  if (!can_patch) {
    *this = GridIndex(ds, epsilon_, pool);
    return out;
  }

  const ChurnSummary churn = summarize_churn(ds, *window);
  out.touched_points = churn.touched.size();
  out.removed_points = churn.removed.size();
  out.pure_moves = churn.pure_moves;

  const std::size_t new_n = ds.size();
  std::vector<std::uint8_t> touched(new_n, 0);
  for (const auto& t : churn.touched) touched[t.id] = 1;

  // New (cell, id) entries for the touched points, plus the dirty-cell
  // set: every cell a touched/removed point left or entered.
  std::vector<std::pair<std::uint64_t, PointId>> fresh;
  fresh.reserve(churn.touched.size());
  std::vector<std::uint64_t> dirty;
  dirty.reserve(2 * churn.touched.size() + churn.removed.size());
  const auto old_id = [this](const auto& churned) {
    return clamped_id([&churned](int d) {
      return churned.old_coords[static_cast<std::size_t>(d)];
    });
  };
  for (const auto& t : churn.touched) {
    const std::uint64_t nid =
        clamped_id([&](int d) { return ds.coord(t.id, d); });
    fresh.emplace_back(nid, t.id);
    dirty.push_back(nid);
    if (t.existed_before) dirty.push_back(old_id(t));
  }
  for (const auto& r : churn.removed) dirty.push_back(old_id(r));
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  std::sort(fresh.begin(), fresh.end());

  // Untouched points kept the same id, the same coordinates (hence the
  // same cell), and their relative (cell, id) order — harvest them from
  // the current grid order in one pass.
  std::vector<std::pair<std::uint64_t, PointId>> kept;
  kept.reserve(new_n - fresh.size());
  for (const GridCell& c : cells_) {
    for (std::uint32_t pos = c.begin; pos < c.end; ++pos) {
      const PointId p = point_ids_[pos];
      if (p < new_n && touched[p] == 0) kept.emplace_back(c.linear_id, p);
    }
  }
  GSJ_CHECK(kept.size() + fresh.size() == new_n);

  // Merge the two sorted runs under the build's strict (cell, id)
  // total order and materialize them as the constructor does — the
  // result cannot differ from a from-scratch sort of the same entries.
  std::size_t a = 0;
  std::size_t b = 0;
  materialize(new_n, [&] {
    const bool take_kept =
        b >= fresh.size() || (a < kept.size() && kept[a] < fresh[b]);
    return take_kept ? kept[a++] : fresh[b++];
  });

  out.repaired = true;
  out.dirty_cell_ids = std::move(dirty);
  return out;
}

std::span<const PointId> GridIndex::cell_points(std::size_t cell_idx) const {
  GSJ_CHECK(cell_idx < cells_.size());
  const GridCell& c = cells_[cell_idx];
  return {point_ids_.data() + c.begin, c.size()};
}

std::size_t GridIndex::find_cell(std::uint64_t linear_id) const noexcept {
  auto it = std::lower_bound(
      cells_.begin(), cells_.end(), linear_id,
      [](const GridCell& c, std::uint64_t id) { return c.linear_id < id; });
  if (it == cells_.end() || it->linear_id != linear_id) return npos;
  return static_cast<std::size_t>(it - cells_.begin());
}

CellCoords GridIndex::coords_of_point(PointId p) const {
  return decode(cells_[point_cell_[p]].linear_id);
}

CellCoords GridIndex::decode(std::uint64_t linear_id) const noexcept {
  CellCoords cc;
  for (int d = 0; d < dims(); ++d) {
    const std::uint64_t s = stride_[static_cast<std::size_t>(d)];
    cc[d] = static_cast<std::int32_t>(linear_id / s);
    linear_id %= s;
  }
  return cc;
}

}  // namespace gsj
