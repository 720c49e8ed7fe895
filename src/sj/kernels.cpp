#include "sj/kernels.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "common/check.hpp"

namespace gsj {

std::string to_string(Assignment a) {
  return a == Assignment::Static ? "STATIC" : "WORKQUEUE";
}

std::vector<double> scan_columns(const GridIndex& grid) {
  if (grid.dims() != 2) return {};
  const std::span<const PointId> ids = grid.point_ids();
  const std::size_t n = ids.size();
  const Dataset& ds = grid.dataset();
  std::vector<double> columns(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    columns[i] = ds.coord(ids[i], 0);
    columns[n + i] = ds.coord(ids[i], 1);
  }
  return columns;
}

namespace {

/// The launch's grid, checked before the member initializers use it.
const GridIndex& grid_of(const KernelParams& p) {
  GSJ_CHECK(p.grid != nullptr);
  return *p.grid;
}

// Two doubles and two 64-bit masks: GCC/Clang vector extensions, one
// SSE2 register on x86-64 and one NEON register on AArch64. A compare
// of two f64x2 yields all-ones or zero per lane.
using f64x2 = double __attribute__((vector_size(16)));
using u64x2 = std::uint64_t __attribute__((vector_size(16)));

}  // namespace

std::uint64_t SelfJoinKernel::hit_mask(PointId q, std::uint32_t pos,
                                       std::uint32_t len) const noexcept {
  const auto k = static_cast<std::uint32_t>(p_.k);
  if (dims_ != 2) {
    std::uint64_t mask = 0;
    for (std::uint32_t i = 0; i < len; ++i, pos += k) {
      mask |= std::uint64_t{within_eps(q, point_ids_[pos])} << i;
    }
    return mask;
  }
  // Candidates i and i + 1 at once: lane j of `bit` holds bit i + j, so
  // each compare ORs its hits into `hits` in place. The sum is
  // dx·dx + dy·dy, which equals scan()'s 0 + dx·dx + dy·dy bit for bit.
  const double qx = qcoords_[0][q];
  const double qy = qcoords_[1][q];
  u64x2 hits = {0, 0};
  u64x2 bit = {1, 2};
  std::uint32_t i = 0;
  for (; i + 1 < len; i += 2, pos += 2 * k) {
    const f64x2 dx = qx - f64x2{col_x_[pos], col_x_[pos + k]};
    const f64x2 dy = qy - f64x2{col_y_[pos], col_y_[pos + k]};
    hits |= (u64x2)(dx * dx + dy * dy <= eps2_) & bit;
    bit <<= 2;
  }
  std::uint64_t mask = hits[0] | hits[1];
  if (i < len) {  // an odd last candidate
    const double dx = qx - col_x_[pos];
    const double dy = qy - col_y_[pos];
    mask |= std::uint64_t{dx * dx + dy * dy <= eps2_} << i;
  }
  return mask;
}

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

  const GridIndex& grid = *p.grid;
  cells_ = grid.cells().data();
  point_ids_ = grid.point_ids().data();
  dims_ = grid.dims();
  for (int d = 0; d < dims_; ++d) {
    coords_[static_cast<std::size_t>(d)] = grid.dataset().dim(d).data();
  }
  if (dims_ == 2) {
    const std::size_t n = grid.point_ids().size();
    GSJ_CHECK_MSG(p.columns.size() == 2 * n,
                  "2-D launch needs scan_columns(grid): got "
                      << p.columns.size() << " doubles for " << n
                      << " points");
    col_x_ = p.columns.data();
    col_y_ = col_x_ + n;
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

  // The step costs of next_cell() and scan(), with their uint32 sums.
  const simt::DeviceConfig& dev = *p.device;
  class_cost_[kCheck] = dev.cost_pattern_check;
  class_cost_[kCheckEmit] = dev.cost_pattern_check + dev.cost_emit;
  class_cost_[kProbe] = dev.cost_pattern_check + dev.cost_cell_probe;
  class_cost_[kDist] = cost_dist_;
  class_cost_[kDistEmit] = cost_dist_ + dev.cost_emit;
  class_cost_[kRetire] = 1;
  std::iota(class_order_.begin(), class_order_.end(), std::uint8_t{0});
  std::sort(class_order_.begin(), class_order_.end(),
            [this](std::uint8_t a, std::uint8_t b) {
              return class_cost_[a] > class_cost_[b];
            });
}

simt::InitResult SelfJoinKernel::init_lane(LaneState& s,
                                           const simt::LaneCtx& ctx,
                                           simt::WarpScratch& scratch) {
  const auto k = static_cast<std::uint64_t>(p_.k);
  const std::uint64_t group_global = ctx.global_thread_id / k;
  s.group_rank = static_cast<std::uint32_t>(ctx.global_thread_id % k);

  std::uint32_t cost = 2;  // thread-id math / guard
  std::uint64_t idx = group_global;
  if (p_.assignment == Assignment::WorkQueue) {
    // Cooperative group: the leader lane pops the queue head and
    // broadcasts through warp scratch (lanes initialize in order, so
    // the leader has always run first).
    const std::size_t group_in_warp = static_cast<std::size_t>(ctx.lane_id) / k;
    if (static_cast<std::uint64_t>(ctx.lane_id) % k == 0) {
      scratch[group_in_warp] = counter_.fetch_add(1);
      ++atomics_;
      cost += p_.device->cost_atomic;
    }
    idx = scratch[group_in_warp];
  }
  GSJ_DCHECK(idx < p_.points.size());
  s.q = p_.points[idx];

  // Origin and rank are functions of q alone, and a cooperative
  // group's k lanes initialize back to back with the same q: only the
  // first derives them. The modeled cost below stays per lane.
  if (last_.q != s.q) {
    const GridIndex& grid = *p_.grid;
    CellCoords oc;
    std::uint32_t rank = 0;  // R×S: the scan never consults it
    if (rxs_) {
      // Probe points have no cell of their own in the grid: anchor the
      // 3^n window at their banded coordinates (grid/grid_index.hpp).
      for (int d = 0; d < dims_; ++d) {
        oc[d] = grid.probe_cell_coord(p_.probe->coord(s.q, d), d);
      }
    } else {
      rank = grid.grid_rank(s.q);
      oc = grid.coords_of_point(s.q);
    }
    last_ = {slots_.origin(oc), s.q, rank};
  }
  s.origin = last_.origin;
  s.rank = last_.rank;
  s.slot = 0;
  s.scanning = false;
  cost += 4;  // point load + cell decode
  return {true, cost};
}

bool SelfJoinKernel::find_cell(const LaneState& s, const std::uint64_t* walked,
                               std::uint32_t& from, std::uint32_t limit,
                               WindowCell& out) const {
  // next_cell()'s lookups for the walked slots only: the rejected ones
  // are skipped a mask word at a time, and a row of three slots (three
  // consecutive ids) is one occupancy read.
  for (std::uint32_t i = slots_.next_in(walked, from); i < limit;
       i = slots_.next_in(walked, from)) {
    const std::uint32_t row = i - i % 3;
    const GridIndex::Occupancy occ =
        p_.grid->occupancy(s.origin.id + slots_[row].delta, 3);
    const std::uint64_t found =
        occ.bits & mask_run(walked, row, 3) & (~std::uint64_t{0} << (i - row));
    if (found == 0) {
      from = row + 3;
      continue;
    }
    const auto b = static_cast<std::uint32_t>(std::countr_zero(found));
    if (row + b >= limit) break;
    from = row + b + 1;
    // The row's cells before slot row + b: a popcount of at most 2 bits.
    const std::uint64_t before = occ.bits & ((std::uint64_t{1} << b) - 1);
    const GridCell& cell = cells_[occ.cell + (before & 1) + (before >> 1)];
    // q's own cell: FULL scans all of it, the unidirectional patterns
    // only the points after q (the rank rule).
    const bool own = !rxs_ && row + b == slots_.centre();
    out = {row + b,
           own && p_.pattern != CellPattern::Full ? s.rank + 1 : cell.begin,
           cell.end};
    return true;
  }
  from = std::max(from, limit);
  return false;
}

simt::detail::WarpRun SelfJoinKernel::replay(LaneState* lanes,
                                             const std::uint8_t* active,
                                             int warp_size, ResultSet& out,
                                             std::uint64_t& emitted) const {
  const auto k = static_cast<std::uint32_t>(p_.k);
  const std::uint32_t nslots = slots_.size();
  const std::uint32_t centre = slots_.centre();
  const bool store = out.stores_pairs();

  // Lanes still stepping, in lane order, and their groups.
  std::array<std::uint8_t, 32> live{};
  std::array<std::uint8_t, 32> group{};
  std::uint32_t nlive = 0;
  for (int l = 0; l < warp_size; ++l) {
    GSJ_DCHECK(active[l] == active[l - l % p_.k]);
    if (!active[l]) continue;
    live[nlive] = static_cast<std::uint8_t>(l);
    group[nlive++] = static_cast<std::uint8_t>(static_cast<std::uint32_t>(l) / k);
  }

  // One window walk per cooperative group — the k consecutive lanes
  // that share q, whose NextCell steps differ only in where their scans
  // start. The walk runs lazily: a lane asks for cells only as far as
  // its next 64 steps reach, and the group's ring keeps the cells its
  // trailing lanes have yet to pass (lower group ranks scan longer, so
  // they trail). A lane the ring has left behind walks on alone.
  // ring, walked and hit_cand are written before they are read, so
  // they are left unzeroed (about 45 KB per warp).
  const auto ngroups = static_cast<std::uint32_t>(warp_size) / k;
  const std::uint32_t ring_size = std::bit_floor(kRingCells / ngroups);
  std::array<WindowCell, kRingCells> ring;
  // Each group's walked slots: the accepted ones, plus the centre of a
  // self-join window (its own cell, which next_cell() finds unprobed).
  const std::uint32_t words = slots_.words();
  std::array<std::uint64_t, 32 * SlotTable::kMaxWords> walked;
  for (std::uint32_t g = 0; g < ngroups; ++g) {
    if (!active[g * k]) continue;
    for (std::uint32_t w = 0; w < words; ++w) {
      walked[g * words + w] = slots_.accepted(lanes[g * k].origin, w) |
                              (rxs_ ? 0 : slots_.centre_bit(w));
    }
  }
  std::array<std::uint32_t, 32> group_walk{};
  std::array<std::uint32_t, 32> group_found{};
  std::array<std::uint32_t, 32> own{};      // per live lane
  std::array<std::uint32_t, 32> passed{};   // per live lane: cells passed
  // Passes the cells of the lane at live[a] up to its next scanning
  // cell below `limit`; false if there is none.
  const auto next_scan = [&](std::uint32_t a, std::uint32_t limit,
                             WindowCell& c) {
    const LaneState& s = lanes[live[a]];
    const std::uint32_t g = group[a];
    const std::uint64_t* slots = walked.data() + g * words;
    WindowCell* cells = ring.data() + g * ring_size;
    for (std::uint32_t& i = passed[a];; ++i) {
      if (i + ring_size < group_found[g]) {
        if (!find_cell(s, slots, own[a], limit, c)) return false;
      } else if (i < group_found[g]) {
        c = cells[i & (ring_size - 1)];
        if (c.slot >= limit) return false;
      } else {
        if (!find_cell(s, slots, group_walk[g], limit, c)) return false;
        cells[group_found[g]++ & (ring_size - 1)] = c;
      }
      own[a] = c.slot + 1;
      if (c.begin + s.group_rank < c.end) {
        ++i;
        return true;
      }
    }
  };

  const auto low_bits = [](std::uint32_t n) {
    return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  };
  const std::uint64_t pairs_per_hit = unidirectional_ ? 2 : 1;
  // Per live lane: the chunk's emitting steps (scan hits, and the own
  // cell's (q, q) pair) and each hit's candidate.
  std::array<std::uint64_t, 32> hit_steps{};
  std::array<std::uint64_t, 32> self_steps{};
  std::array<std::array<PointId, 64>, 32> hit_cand;  // stored pairs only
  // Records the candidates of the scan steps t + i, i in `hits`, of the
  // lane at live[a], whose scan stood at `pos`.
  const auto keep_hits = [&](std::uint32_t a, std::uint32_t t,
                             std::uint64_t hits, std::uint32_t pos) {
    for (std::uint64_t h = hits; h != 0; h &= h - 1) {
      const auto b = static_cast<std::uint32_t>(std::countr_zero(h));
      hit_cand[a][t + b] = point_ids_[pos + b * k];
    }
  };
  simt::detail::WarpRun run;
  while (nlive > 0) {
    // Each live lane's next 64 steps, one bitmask per cost class: the
    // steps step() would take, in order. `warp` ORs them over the lanes.
    std::array<std::uint64_t, kClasses> warp{};
    std::uint64_t hit_total = 0;
    std::uint64_t self_total = 0;
    std::uint32_t retired = 0;  // bit a: the lane at live[a]
    for (std::uint32_t a = 0; a < nlive; ++a) {
      LaneState& s = lanes[live[a]];
      if (s.scanning && s.cand_end - s.cand_pos > 63 * k) {
        // The common case on dense data: the whole chunk scans.
        const std::uint64_t hits = hit_mask(s.q, s.cand_pos, 64);
        if (store) keep_hits(a, 0, hits, s.cand_pos);
        s.cand_pos += 64 * k;
        s.scanning = s.cand_pos < s.cand_end;
        warp[kDist] |= ~hits;
        warp[kDistEmit] |= hits;
        hit_total += static_cast<std::uint64_t>(std::popcount(hits));
        hit_steps[a] = hits;
        self_steps[a] = 0;
        run.active_lane_steps += 64;
        continue;
      }
      const std::uint32_t r = s.group_rank;
      std::uint64_t m[kClasses] = {};
      std::uint32_t t = 0;
      while (t < 64) {
        if (s.scanning) {
          // min(room, ⌈left / k⌉), dividing only when the scan ends
          // within this chunk.
          const std::uint32_t room = 64 - t;
          const std::uint32_t left = s.cand_end - s.cand_pos;
          const std::uint32_t n =
              left > (room - 1) * k ? room : (left - 1) / k + 1;
          const std::uint64_t hits = hit_mask(s.q, s.cand_pos, n);
          m[kDistEmit] |= hits << t;
          m[kDist] |= (low_bits(n) & ~hits) << t;
          if (store) keep_hits(a, t, hits, s.cand_pos);
          s.cand_pos += n * k;
          s.scanning = s.cand_pos < s.cand_end;
          t += n;
          continue;
        }
        if (s.slot == nslots) {
          m[kRetire] = std::uint64_t{1} << t++;
          break;
        }
        // NextCell steps up to and including the next cell this lane
        // scans; the cells it has no candidate in are ordinary probes.
        WindowCell c;
        const bool scans = next_scan(a, std::min(nslots, s.slot + 64 - t), c);
        const std::uint32_t stop =
            scans ? c.slot + 1 : std::min(nslots, s.slot + 64 - t);
        const std::uint32_t n = stop - s.slot;
        std::uint64_t probe =
            mask_run(walked.data() + group[a] * words, s.slot, n);
        std::uint64_t check = low_bits(n) & ~probe;
        if (!rxs_ && centre - s.slot < n) {
          // The own cell is not probed: a check step, which also emits
          // (q, q) on the group leader of a unidirectional pattern.
          const std::uint64_t cb = std::uint64_t{1} << (centre - s.slot);
          probe &= ~cb;
          check |= cb;
          if (unidirectional_ && r == 0) {
            check &= ~cb;
            m[kCheckEmit] |= cb << t;
          }
        }
        m[kProbe] |= probe << t;
        m[kCheck] |= check << t;
        s.slot = stop;
        t += n;
        if (scans) {
          s.cand_pos = c.begin + r;
          s.cand_end = c.end;
          s.scanning = true;
        }
      }
      run.active_lane_steps += t;
      for (std::size_t c = 0; c < kClasses; ++c) warp[c] |= m[c];
      hit_total += static_cast<std::uint64_t>(std::popcount(m[kDistEmit]));
      self_total += static_cast<std::uint64_t>(std::popcount(m[kCheckEmit]));
      hit_steps[a] = m[kDistEmit];
      self_steps[a] = m[kCheckEmit];
      if (m[kRetire] != 0) retired |= std::uint32_t{1} << a;
    }

    // A step costs its slowest lane: walk the classes from the most
    // expensive down, charging each step the first class it has.
    std::uint64_t charged = 0;
    for (const std::uint8_t c : class_order_) {
      run.cycles += static_cast<std::uint64_t>(
                        std::popcount(warp[c] & ~charged)) *
                    class_cost_[c];
      charged |= warp[c];
    }
    run.steps += static_cast<std::uint64_t>(std::popcount(charged));

    const std::uint64_t emits = hit_total * pairs_per_hit + self_total;
    emitted += emits;
    if (!store) {
      out.add_count(emits);
    } else {
      // (step, lane) order with each mirror right after its primary:
      // the lockstep loop's emission stream, so the batch-capacity
      // clamp keeps the same pairs.
      for (std::uint64_t rest = warp[kDistEmit] | warp[kCheckEmit]; rest != 0;
           rest &= rest - 1) {
        const int j = std::countr_zero(rest);
        for (std::uint32_t a = 0; a < nlive; ++a) {
          const PointId q = lanes[live[a]].q;
          if (((hit_steps[a] >> j) & 1) != 0) {
            const PointId c = hit_cand[a][static_cast<std::size_t>(j)];
            out.emit(q, c);
            if (unidirectional_) out.emit(c, q);
          } else if (((self_steps[a] >> j) & 1) != 0) {
            out.emit(q, q);
          }
        }
      }
    }

    if (retired != 0) {
      std::uint32_t kept = 0;
      for (std::uint32_t a = 0; a < nlive; ++a) {
        if (((retired >> a) & 1) != 0) continue;
        live[kept] = live[a];
        group[kept] = group[a];
        own[kept] = own[a];
        passed[kept++] = passed[a];
      }
      nlive = kept;
    }
  }
  return run;
}

}  // namespace gsj
