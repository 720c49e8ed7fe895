// Cell access patterns: which adjacent cells a query point's thread
// evaluates, and whether one evaluation yields one or both ordered
// result pairs.
//
//  * FULL        — evaluate every adjacent cell (the GPUCALCGLOBAL
//                  baseline [18]); each unordered pair of points is
//                  computed twice, once from each side, and each
//                  evaluation emits one ordered pair.
//  * UNICOMP     — the unidirectional pattern of [18] (Algorithm 2,
//                  generalized to n dims): for each dimension d whose
//                  origin coordinate is odd, evaluate the adjacent cells
//                  whose *highest differing dimension* is d. Each
//                  unordered adjacent-cell pair is evaluated exactly
//                  once, and each point-pair evaluation emits both
//                  ordered pairs. Inner cells evaluate between 0 and
//                  3^n - 1 neighbors depending on coordinate parity —
//                  the imbalance this paper's LID-UNICOMP removes.
//  * LID_UNICOMP — this paper's pattern (§III-B): evaluate exactly the
//                  adjacent cells with a *larger linear id* than the
//                  origin. Every inner cell evaluates (3^n - 1)/2
//                  neighbors, balancing per-cell work.
//
// For all three patterns, the origin cell itself is handled by the
// kernels directly: FULL compares a query point against every point of
// its own cell (itself included); the unidirectional patterns compare
// only against own-cell points with a larger grid rank and emit both
// ordered pairs (plus the (q,q) self pair), so all patterns produce the
// identical ordered result set.
//
// SlotTable precomputes a grid's 3^n adjacency window once, so a walk
// over it (the kernels' NextCell step) decides each slot with a table
// read and two mask tests, equal to the bounds check plus
// pattern_accepts, and looks the cell up with GridIndex::occupancy.
// Whole-window walks skip the rejected slots 64 at a time through the
// per-origin accepted-slot bitmask (SlotTable::accepted), and find the
// cells of the rest a row of three slots per occupancy read.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "grid/grid_index.hpp"

namespace gsj {

enum class CellPattern {
  Full,
  Unicomp,
  LidUnicomp,
};

[[nodiscard]] std::string to_string(CellPattern p);

/// True when one point-pair evaluation under `p` emits both ordered
/// pairs (the pattern visits each unordered cell pair once).
[[nodiscard]] constexpr bool is_unidirectional(CellPattern p) noexcept {
  return p != CellPattern::Full;
}

/// Decides whether the origin cell evaluates the adjacent cell
/// (origin != neighbor; both must be adjacent). `oc`/`nc` are the cell
/// coordinate vectors, `oid`/`nid` the linear ids. The patterns'
/// definition: the window walks use SlotTable's equivalent bit tests,
/// which the tests check against this predicate slot by slot.
[[nodiscard]] bool pattern_accepts(CellPattern p, int dims,
                                   const CellCoords& oc, const CellCoords& nc,
                                   std::uint64_t oid,
                                   std::uint64_t nid) noexcept;

/// The 3^dims adjacency window of one grid under one pattern. Slot i is
/// the i-th offset vector of {-1,0,+1}^dims in odometer order (last
/// dimension fastest, the order of GridIndex::for_each_adjacent_to), so
/// the centre is slot (3^dims - 1) / 2. Linear ids are lexicographic in
/// coordinates, hence the in-bounds slots of any origin name strictly
/// increasing ids in slot order. A row, the slots 3r, 3r + 1, 3r + 2,
/// differs only in the last dimension's offset (−1, 0, +1): around any
/// origin it names three consecutive ids, so one GridIndex::occupancy
/// read of three ids from o.id + delta(3r) tells which of the row's
/// slots hold a cell (the centre is the middle of its row).
///
/// Per origin, Origin holds which dimensions each offset class would
/// carry outside the grid; a slot is in bounds iff none of its
/// dimensions falls in its class's mask. The pattern gate is a bit test
/// too. LID-UNICOMP's nid > oid is "slot after the centre", and
/// UNICOMP's test reads the origin's parity in the slot's highest
/// dimension with a non-zero offset.
///
/// The same tests, slot-parallel: bit i % 64 of word i / 64 of a slot
/// mask stands for slot i. The table keeps one mask per (offset class,
/// dimension) — the slots whose offset in that dimension is that class
/// — and one per pattern gate bit, so accepted(o, w) builds word w of
/// the origin's accepted-slot mask with a few AND-NOTs and ORs.
class SlotTable {
 public:
  struct Slot {
    /// Linear id of the slot's cell minus the centre's, modulo 2^64.
    std::uint64_t delta = 0;
    /// Bit d set in dims[o + 1] iff the offset in dimension d is o.
    std::array<std::uint8_t, 3> dims{};
    /// The origin evaluates the slot iff gate & Origin::gate != 0.
    /// FULL: 1. LID-UNICOMP: 1 iff the slot follows the centre.
    /// UNICOMP: the bit of the highest dimension with a non-zero
    /// offset (0 for the centre).
    std::uint8_t gate = 0;
  };

  /// A window's centre.
  struct Origin {
    /// Linear id of the centre cell, modulo 2^64 (wrapped when a probe
    /// centre lies outside the grid): id + Slot::delta is the linear id
    /// of every in-bounds slot.
    std::uint64_t id = 0;
    /// Bit d set in out[o + 1] iff offset o in dimension d leaves the
    /// grid.
    std::array<std::uint8_t, 3> out{};
    /// FULL, LID-UNICOMP: 1. UNICOMP: the dimensions whose centre
    /// coordinate is odd.
    std::uint8_t gate = 0;
  };

  SlotTable(const GridIndex& grid, CellPattern pattern);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }
  [[nodiscard]] std::uint32_t centre() const noexcept {
    return (size() - 1) / 2;
  }
  [[nodiscard]] const Slot& operator[](std::uint32_t i) const noexcept {
    return slots_[i];
  }

  /// The window around cell coordinates `oc`: grid cells, or probe
  /// coordinates banded by GridIndex::probe_cell_coord.
  [[nodiscard]] Origin origin(const CellCoords& oc) const noexcept;

  /// Slot `s` of the window around `o` lies inside the grid.
  [[nodiscard]] static bool in_bounds(const Slot& s, const Origin& o) noexcept {
    return ((s.dims[0] & o.out[0]) | (s.dims[1] & o.out[1]) |
            (s.dims[2] & o.out[2])) == 0;
  }

  /// pattern_accepts for the centre of `o` and the in-bounds slot `s`.
  [[nodiscard]] static bool accepts(const Slot& s, const Origin& o) noexcept {
    return (s.gate & o.gate) != 0;
  }

  /// Words of a slot mask: at most kMaxWords.
  [[nodiscard]] std::uint32_t words() const noexcept { return words_; }
  static constexpr std::uint32_t kMaxWords = [] {
    std::uint32_t slots = 1;
    for (int d = 0; d < kMaxDims; ++d) slots *= 3;
    return (slots + 63) / 64;
  }();

  /// Word `w` of the accepted-slot mask around `o`: bit i set iff slot
  /// 64·w + i is in bounds and accepted (in_bounds && accepts). FULL's
  /// centre is accepted; LID-UNICOMP's and UNICOMP's never is.
  [[nodiscard]] std::uint64_t accepted(const Origin& o,
                                       std::uint32_t w) const noexcept {
    std::uint64_t m = 0;
    for (std::uint32_t g = o.gate; g != 0; g &= g - 1) {
      m |= masks_[gate_mask(std::countr_zero(g)) + w];
    }
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::uint32_t x = o.out[c]; x != 0; x &= x - 1) {
        m &= ~masks_[offset_mask(c, std::countr_zero(x)) + w];
      }
    }
    return m;
  }

  /// The centre's bit in word `w` of a slot mask (0 in every other word).
  [[nodiscard]] std::uint64_t centre_bit(std::uint32_t w) const noexcept {
    return w == centre() / 64 ? std::uint64_t{1} << (centre() % 64) : 0;
  }

  /// The first slot at or after `from` that the slot mask `mask` holds,
  /// or size() when none does.
  [[nodiscard]] std::uint32_t next_in(const std::uint64_t* mask,
                                      std::uint32_t from) const noexcept {
    std::uint32_t w = from / 64;
    if (w >= words_) return size();
    for (std::uint64_t m = mask[w] & (~std::uint64_t{0} << (from % 64));;
         m = mask[w]) {
      if (m != 0) return w * 64 + static_cast<std::uint32_t>(std::countr_zero(m));
      if (++w == words_) return size();
    }
  }

 private:
  /// Offset into masks_ of the slots whose Slot::gate has bit `b`
  /// (FULL and LID-UNICOMP: b = 0).
  [[nodiscard]] std::size_t gate_mask(int b) const noexcept {
    return static_cast<std::size_t>(b) * words_;
  }
  /// Offset into masks_ of the slots whose offset in dimension `d` is
  /// c − 1.
  [[nodiscard]] std::size_t offset_mask(std::size_t c, int d) const noexcept {
    return (kMaxDims + c * kMaxDims + static_cast<std::size_t>(d)) * words_;
  }

  CellPattern pattern_;
  int dims_;
  std::array<std::int32_t, kMaxDims> cells_per_dim_{};
  std::array<std::uint64_t, kMaxDims> stride_{};
  std::vector<Slot> slots_;
  std::uint32_t words_ = 0;
  /// kMaxDims gate masks, then 3·kMaxDims offset masks, words_ each.
  std::vector<std::uint64_t> masks_;
};

/// Bit i set iff bit first + i of the slot mask `words` is, for
/// i < n <= 64. Reads only the words that hold slots first .. first +
/// n − 1.
[[nodiscard]] inline std::uint64_t mask_run(const std::uint64_t* words,
                                            std::uint32_t first,
                                            std::uint32_t n) noexcept {
  const std::uint32_t w = first / 64;
  const std::uint32_t b = first % 64;
  std::uint64_t m = words[w] >> b;
  if (b + n > 64) m |= words[w + 1] << (64 - b);
  return n == 64 ? m : m & ((std::uint64_t{1} << n) - 1);
}

/// Number of adjacent (non-origin) cell slots the pattern would accept
/// for an inner cell at coordinates `oc` — grid-boundary and emptiness
/// ignored. Used by tests and by workload analysis.
[[nodiscard]] std::uint64_t pattern_fanout(CellPattern p, int dims,
                                           const CellCoords& oc);

}  // namespace gsj
