#include "sj/delta.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <span>
#include <utility>

#include "common/check.hpp"

namespace gsj {

namespace {

double dist2_to_point(const Dataset& ds, const double* a, PointId q,
                      int dims) {
  double s = 0.0;
  for (int d = 0; d < dims; ++d) {
    const double diff = a[d] - ds.coord(q, d);
    s += diff * diff;
  }
  return s;
}

double dist2_arrays(const double* a, const double* b, int dims) {
  double s = 0.0;
  for (int d = 0; d < dims; ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

void emit_both(std::vector<ResultPair>& out, PointId a, PointId b) {
  out.emplace_back(a, b);
  out.emplace_back(b, a);
}

/// Sorts `pairs` lexicographically by an LSD radix sort of the key
/// (first << b) | second, where b is the bit width of ids below
/// `id_range`, in digits of at most 11 bits; one histogram pass serves
/// every digit. O(digits · (|pairs| + 2^11)).
void radix_sort_pairs(std::vector<ResultPair>& pairs, std::size_t id_range,
                      std::vector<ResultPair>& scratch) {
  if (pairs.size() < 2) return;
  unsigned id_bits = 1;
  while (id_bits < 8 * sizeof(PointId) &&
         (std::size_t{1} << id_bits) < id_range) {
    ++id_bits;
  }
  const auto key = [id_bits](const ResultPair& p) {
    return std::uint64_t{p.first} << id_bits | p.second;
  };
  constexpr unsigned kMaxDigitBits = 11;
  const unsigned digits = (2 * id_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned width = (2 * id_bits + digits - 1) / digits;
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::vector<std::size_t> count(std::size_t{digits} << width);
  for (const ResultPair& p : pairs) {
    const std::uint64_t k = key(p);
    for (unsigned d = 0; d < digits; ++d) {
      ++count[(std::size_t{d} << width) + ((k >> (width * d)) & mask)];
    }
  }
  scratch.resize(pairs.size());
  for (unsigned d = 0; d < digits; ++d) {
    std::size_t* c = count.data() + (std::size_t{d} << width);
    const unsigned shift = width * d;
    std::size_t offset = 0;
    for (std::uint64_t b = 0; b <= mask; ++b) {
      offset += std::exchange(c[b], offset);
    }
    for (const ResultPair& p : pairs) {
      scratch[c[(key(p) >> shift) & mask]++] = p;
    }
    pairs.swap(scratch);
  }
}

}  // namespace

PairDelta compute_pair_delta(const GridIndex& grid, const ChurnSummary& churn,
                             double epsilon) {
  GSJ_CHECK_MSG(epsilon > 0.0, "delta join requires epsilon > 0");
  GSJ_CHECK_MSG(epsilon <= grid.epsilon(),
                "delta join needs a grid at least as coarse as the query"
                " (epsilon "
                    << epsilon << " > cell width " << grid.epsilon() << ")");
  const Dataset& ds = grid.dataset();
  GSJ_CHECK_MSG(grid.generation() == ds.generation(),
                "delta join requires a repaired (current) grid");
  const int dims = grid.dims();
  const auto sdims = static_cast<std::size_t>(dims);
  const double eps2 = epsilon * epsilon;

  PairDelta out;
  out.stats.touched_points = churn.touched.size();
  out.stats.removed_points = churn.removed.size();
  if (churn.touched.empty() && churn.removed.empty()) return out;

  // One slot per id that names a churned point on either side of the
  // window (delta.hpp): `now` when a live point holds the id, `was` the
  // base-generation position of the point that held it, if any.
  struct Slot {
    PointId id = 0;
    bool now = false;
    const double* was = nullptr;
  };
  constexpr auto kNoSlot = std::numeric_limits<std::uint32_t>::max();
  // Ids on both sides lie below this bound: n_before is at most the
  // live count plus the removed count.
  const std::size_t id_range = ds.size() + churn.removed.size();
  std::vector<std::uint32_t> slot_of(id_range, kNoSlot);
  std::vector<Slot> slots;
  slots.reserve(2 * churn.touched.size() + churn.removed.size());
  const auto slot = [&](PointId id) -> Slot& {
    std::uint32_t& s = slot_of[id];
    if (s == kNoSlot) {
      s = static_cast<std::uint32_t>(slots.size());
      slots.push_back({id, false, nullptr});
    }
    return slots[s];
  };
  for (const auto& t : churn.touched) {
    slot(t.id).now = true;
    if (t.existed_before) slot(t.pre_id).was = t.old_coords.data();
  }
  for (const auto& r : churn.removed) {
    slot(r.pre_id).was = r.old_coords.data();
  }

  // Slot against untouched points: one walk over the union of the
  // `now` and `was` windows. A candidate is within ε on a side only if
  // that side's own window holds it, exactly as two separate walks
  // would find it, and the pair flips when the sides disagree.
  std::array<double, Mutation::kCoordCap> cur{};
  std::vector<std::size_t> now_cells, was_cells;
  const auto window = [&](const double* at, std::vector<std::size_t>& cells) {
    cells.clear();
    if (at == nullptr) return;
    grid.for_each_within(
        {at, sdims}, 1,
        [&](std::size_t ci, const CellCoords&, std::uint64_t) {
          cells.push_back(ci);  // ascending: the walk is in id order
        });
  };
  for (const Slot& s : slots) {
    if (s.now) {
      for (int d = 0; d < dims; ++d) {
        cur[static_cast<std::size_t>(d)] = ds.coord(s.id, d);
      }
    }
    if (s.now != (s.was != nullptr)) {  // the self pair
      (s.now ? out.gained : out.lost).emplace_back(s.id, s.id);
    }
    window(s.now ? cur.data() : nullptr, now_cells);
    window(s.was, was_cells);
    std::size_t i = 0, j = 0;
    while (i < now_cells.size() || j < was_cells.size()) {
      const std::size_t a =
          i < now_cells.size() ? now_cells[i] : GridIndex::npos;
      const std::size_t b =
          j < was_cells.size() ? was_cells[j] : GridIndex::npos;
      const std::size_t ci = std::min(a, b);
      const bool in_now = a == ci;
      const bool in_was = b == ci;
      i += in_now ? 1 : 0;
      j += in_was ? 1 : 0;
      const std::span<const PointId> points = grid.cell_points(ci);
      if (in_now && in_was) {
        for (const PointId q : points) {
          if (slot_of[q] != kNoSlot) continue;  // slot pairs: below
          ++out.stats.candidates;
          const bool after = dist2_to_point(ds, cur.data(), q, dims) <= eps2;
          const bool before = dist2_to_point(ds, s.was, q, dims) <= eps2;
          if (after != before) {
            emit_both(after ? out.gained : out.lost, s.id, q);
          }
        }
        continue;
      }
      // A cell in one window only: every pair within ε there flips.
      const double* at = in_now ? cur.data() : s.was;
      std::vector<ResultPair>& flips = in_now ? out.gained : out.lost;
      for (const PointId q : points) {
        if (slot_of[q] != kNoSlot) continue;
        ++out.stats.candidates;
        if (dist2_to_point(ds, at, q, dims) <= eps2) emit_both(flips, s.id, q);
      }
    }
  }

  // Slot against slot: a pair holds on a side when both ids name a
  // point there within ε of each other.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = i + 1; j < slots.size(); ++j) {
      const Slot& a = slots[i];
      const Slot& b = slots[j];
      ++out.stats.candidates;
      const bool after = a.now && b.now && ds.dist2(a.id, b.id) <= eps2;
      const bool before = a.was != nullptr && b.was != nullptr &&
                          dist2_arrays(a.was, b.was, dims) <= eps2;
      if (after != before) {
        emit_both(after ? out.gained : out.lost, a.id, b.id);
      }
    }
  }

  std::vector<ResultPair> scratch;
  radix_sort_pairs(out.gained, id_range, scratch);
  radix_sort_pairs(out.lost, id_range, scratch);
  return out;
}

std::vector<ResultPair> apply_pair_delta(std::span<const ResultPair> pairs,
                                         const PairDelta& delta) {
  std::vector<ResultPair> survivors;
  survivors.reserve(pairs.size());
  std::set_difference(pairs.begin(), pairs.end(), delta.lost.begin(),
                      delta.lost.end(), std::back_inserter(survivors));
  std::vector<ResultPair> next;
  next.reserve(survivors.size() + delta.gained.size());
  std::set_union(survivors.begin(), survivors.end(), delta.gained.begin(),
                 delta.gained.end(), std::back_inserter(next));
  return next;
}

}  // namespace gsj
