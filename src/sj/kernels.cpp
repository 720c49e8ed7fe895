#include "sj/kernels.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.hpp"

namespace gsj {

std::string to_string(Assignment a) {
  return a == Assignment::Static ? "STATIC" : "WORKQUEUE";
}

namespace {

/// The launch's grid, checked before the member initializers use it.
const GridIndex& grid_of(const KernelParams& p) {
  GSJ_CHECK(p.grid != nullptr);
  return *p.grid;
}

}  // namespace

SelfJoinKernel::SelfJoinKernel(const KernelParams& p)
    : p_(p),
      // R×S scans every cell of the window — the unidirectional
      // patterns' "evaluate each unordered pair once" trick has nothing
      // to save when queries and candidates come from different
      // datasets — and its centre is an ordinary slot.
      slots_(grid_of(p), p.probe != nullptr ? CellPattern::Full : p.pattern) {
  GSJ_CHECK(p.device != nullptr && p.results != nullptr);
  GSJ_CHECK_MSG(p.k >= 1 && p.device->warp_size % p.k == 0,
                "k=" << p.k << " must divide warp_size="
                     << p.device->warp_size);
  if (p.assignment == Assignment::WorkQueue) {
    GSJ_CHECK(p.counter != nullptr && !p.queue.empty());
  }

  const GridIndex& grid = *p.grid;
  cells_ = grid.cells().data();
  point_ids_ = grid.point_ids().data();
  dims_ = grid.dims();
  for (int d = 0; d < dims_; ++d) {
    coords_[static_cast<std::size_t>(d)] = grid.dataset().dim(d).data();
  }
  rxs_ = p.probe != nullptr;
  if (rxs_) {
    GSJ_CHECK_MSG(p.probe->dims() == dims_,
                  "probe dims=" << p.probe->dims() << " vs grid dims="
                                << dims_);
    for (int d = 0; d < dims_; ++d) {
      qcoords_[static_cast<std::size_t>(d)] = p.probe->dim(d).data();
    }
  } else {
    qcoords_ = coords_;
  }
  eps2_ = grid.epsilon() * grid.epsilon();
  unidirectional_ = !rxs_ && is_unidirectional(p.pattern);
  cost_dist_ = p.device->cost_dist(dims_);
}

simt::InitResult SelfJoinKernel::init_lane(LaneState& s,
                                           const simt::LaneCtx& ctx,
                                           simt::WarpScratch& scratch) {
  const auto k = static_cast<std::uint64_t>(p_.k);
  const std::uint64_t group_global = ctx.global_thread_id / k;
  s.group_rank = static_cast<std::uint32_t>(ctx.global_thread_id % k);

  std::uint32_t cost = 2;  // thread-id math / guard
  if (p_.assignment == Assignment::Static) {
    GSJ_DCHECK(group_global < p_.points.size());
    s.q = p_.points[group_global];
  } else {
    // Cooperative group: the leader lane pops the queue head and
    // broadcasts through warp scratch (lanes initialize in order, so
    // the leader has always run first).
    const std::size_t group_in_warp = static_cast<std::size_t>(ctx.lane_id) / k;
    if (static_cast<std::uint64_t>(ctx.lane_id) % k == 0) {
      scratch[group_in_warp] = p_.counter->fetch_add(1);
      ++atomics_;
      cost += p_.device->cost_atomic;
    }
    const std::uint64_t idx = scratch[group_in_warp];
    GSJ_DCHECK(idx < p_.queue.size());
    s.q = p_.queue[idx];
  }

  const GridIndex& grid = *p_.grid;
  CellCoords oc;
  if (rxs_) {
    // Probe points have no cell of their own in the grid: anchor the
    // 3^n window at their banded coordinates (grid/grid_index.hpp).
    // rank stays at its default — the R×S scan never consults it.
    for (int d = 0; d < dims_; ++d) {
      oc[d] = grid.probe_cell_coord(p_.probe->coord(s.q, d), d);
    }
  } else {
    s.rank = grid.grid_rank(s.q);
    oc = grid.coords_of_point(s.q);
  }
  s.origin = slots_.origin(oc);
  s.slot = 0;
  s.cell_cursor = 0;
  s.scanning = false;
  cost += 4;  // point load + cell decode
  return {true, cost};
}

simt::FastForward SelfJoinKernel::fast_forward_into(
    LaneState* lanes, const std::uint8_t* active, int warp_size,
    ResultSet& out, std::uint64_t& emitted) const {
  // Eligible only when every active lane is mid-scan: the warp can then
  // run the shortest remaining run with no lane leaving Scan early, so
  // every one of those steps is a scan step on every active lane. The
  // first lane that is not scanning, or whose run is shorter than the
  // threshold, declines at once (this check runs before every step).
  const auto k = static_cast<std::uint32_t>(p_.k);
  const std::uint32_t min_cands = (kMinFastForwardSteps - 1) * k + 1;
  std::array<std::uint8_t, 32> lane_of{};  // active lanes, in lane order
  std::uint32_t nactive = 0;
  std::uint32_t min_left = std::numeric_limits<std::uint32_t>::max();
  for (int l = 0; l < warp_size; ++l) {
    if (!active[l]) continue;
    const LaneState& s = lanes[l];
    if (!s.scanning || s.cand_end - s.cand_pos < min_cands) return {};
    min_left = std::min(min_left, s.cand_end - s.cand_pos);
    lane_of[nactive++] = static_cast<std::uint8_t>(l);
  }
  if (nactive == 0) return {};
  const std::uint32_t steps = (min_left - 1) / k + 1;  // ⌈min_left / k⌉

  const std::uint64_t pairs_per_hit = unidirectional_ ? 2 : 1;
  std::array<std::uint64_t, 32> masks{};
  std::array<std::uint32_t, 32> first{};  // chunk's first candidate per lane
  std::uint64_t cycles = 0;
  for (std::uint32_t done = 0; done < steps;) {
    const std::uint32_t len = std::min<std::uint32_t>(steps - done, 64);
    std::uint64_t any = 0;
    std::uint64_t hits = 0;
    for (std::uint32_t a = 0; a < nactive; ++a) {
      LaneState& s = lanes[lane_of[a]];
      first[a] = s.cand_pos;
      masks[a] = hit_mask(s.q, s.cand_pos, len);
      s.cand_pos += len * k;
      any |= masks[a];
      hits += static_cast<std::uint64_t>(std::popcount(masks[a]));
    }
    // A step costs its slowest lane: cost_dist, plus cost_emit when any
    // lane hit.
    cycles += static_cast<std::uint64_t>(len) * cost_dist_ +
              static_cast<std::uint64_t>(std::popcount(any)) *
                  p_.device->cost_emit;
    emitted += hits * pairs_per_hit;
    if (!out.stores_pairs()) {
      out.add_count(hits * pairs_per_hit);
    } else {
      // (step, lane) order with each mirror right after its primary:
      // the per-step loop's emission stream, so the batch-capacity
      // clamp keeps the same pairs.
      for (std::uint64_t rest = any; rest != 0; rest &= rest - 1) {
        const int j = std::countr_zero(rest);
        for (std::uint32_t a = 0; a < nactive; ++a) {
          if (((masks[a] >> j) & 1) == 0) continue;
          const PointId q = lanes[lane_of[a]].q;
          const PointId c =
              point_ids_[first[a] + static_cast<std::uint32_t>(j) * k];
          out.emit(q, c);
          if (unidirectional_) out.emit(c, q);
        }
      }
    }
    done += len;
  }
  for (std::uint32_t a = 0; a < nactive; ++a) {
    LaneState& s = lanes[lane_of[a]];
    if (s.cand_pos >= s.cand_end) s.scanning = false;
  }
  return {steps, cycles, nactive};
}

}  // namespace gsj
