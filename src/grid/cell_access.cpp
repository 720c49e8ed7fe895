#include "grid/cell_access.hpp"

#include "common/check.hpp"

namespace gsj {

std::string to_string(CellPattern p) {
  switch (p) {
    case CellPattern::Full: return "FULL";
    case CellPattern::Unicomp: return "UNICOMP";
    case CellPattern::LidUnicomp: return "LID-UNICOMP";
  }
  return "?";
}

bool pattern_accepts(CellPattern p, int dims, const CellCoords& oc,
                     const CellCoords& nc, std::uint64_t oid,
                     std::uint64_t nid) noexcept {
  switch (p) {
    case CellPattern::Full:
      return true;
    case CellPattern::LidUnicomp:
      // §III-B: only neighbors with a larger linear id. Linear ids are
      // lexicographic in coordinates, so exactly one direction of every
      // unordered adjacent pair is accepted.
      return nid > oid;
    case CellPattern::Unicomp: {
      // Generalized Algorithm 2 of [18]: let d* be the highest
      // dimension where the cells differ (they are adjacent, so the
      // difference there is +/-1 and exactly one of the two coordinates
      // is odd). Pass d* is executed by the cell whose d*-coordinate is
      // odd; that pass fixes dimensions > d* and sweeps dimensions < d*,
      // so it reaches exactly the neighbors whose highest differing
      // dimension is d*. In 2-D this reduces verbatim to the paper's
      // green arrows (d*=0: x differs, y fixed, run when x odd) and red
      // arrows (d*=1: y differs, x sweeps, run when y odd).
      int dstar = -1;
      for (int d = dims - 1; d >= 0; --d) {
        if (oc[d] != nc[d]) {
          dstar = d;
          break;
        }
      }
      if (dstar < 0) return false;  // same cell: handled by the kernel
      return (oc[dstar] & 1) != 0;
    }
  }
  return false;
}

static_assert(kMaxDims <= 8, "SlotTable packs dimension sets into 8 bits");

SlotTable::SlotTable(const GridIndex& grid, CellPattern pattern)
    : pattern_(pattern), dims_(grid.dims()) {
  for (int d = 0; d < dims_; ++d) {
    cells_per_dim_[static_cast<std::size_t>(d)] = grid.cells_per_dim(d);
    stride_[static_cast<std::size_t>(d)] = grid.stride(d);
  }
  slots_.resize(static_cast<std::size_t>(grid.adjacency_volume()));
  words_ = (size() + 63) / 64;
  masks_.assign(4 * kMaxDims * std::size_t{words_}, 0);
  for (std::uint32_t i = 0; i < size(); ++i) {
    Slot& slot = slots_[i];
    int top = -1;  // highest dimension with a non-zero offset
    std::uint32_t rem = i;
    for (int d = dims_ - 1; d >= 0; --d) {
      const auto off = static_cast<std::int64_t>(rem % 3) - 1;
      rem /= 3;
      slot.dims[static_cast<std::size_t>(off + 1)] |=
          static_cast<std::uint8_t>(1u << d);
      slot.delta += static_cast<std::uint64_t>(off) *
                    stride_[static_cast<std::size_t>(d)];
      if (off != 0 && top < 0) top = d;
    }
    switch (pattern) {
      case CellPattern::Full:
        slot.gate = 1;
        break;
      case CellPattern::LidUnicomp:
        slot.gate = i > centre() ? 1 : 0;
        break;
      case CellPattern::Unicomp:
        slot.gate = top < 0 ? 0 : static_cast<std::uint8_t>(1u << top);
        break;
    }
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    for (std::uint32_t g = slot.gate; g != 0; g &= g - 1) {
      masks_[gate_mask(std::countr_zero(g)) + i / 64] |= bit;
    }
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::uint32_t x = slot.dims[c]; x != 0; x &= x - 1) {
        masks_[offset_mask(c, std::countr_zero(x)) + i / 64] |= bit;
      }
    }
  }
}

SlotTable::Origin SlotTable::origin(const CellCoords& oc) const noexcept {
  Origin o;
  o.gate = pattern_ == CellPattern::Unicomp ? 0 : 1;
  for (int d = 0; d < dims_; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    const auto bit = static_cast<std::uint8_t>(1u << d);
    for (std::int32_t off = -1; off <= 1; ++off) {
      const std::int32_t v = oc[d] + off;
      if (v < 0 || v >= cells_per_dim_[sd]) {
        o.out[static_cast<std::size_t>(off + 1)] |= bit;
      }
    }
    if (pattern_ == CellPattern::Unicomp && (oc[d] & 1) != 0) o.gate |= bit;
    o.id += static_cast<std::uint64_t>(std::int64_t{oc[d]}) * stride_[sd];
  }
  return o;
}

std::uint64_t pattern_fanout(CellPattern p, int dims, const CellCoords& oc) {
  GSJ_CHECK(dims >= 1 && dims <= kMaxDims);
  std::uint64_t pow3 = 1;
  for (int d = 0; d < dims; ++d) pow3 *= 3;
  switch (p) {
    case CellPattern::Full:
      return pow3 - 1;
    case CellPattern::LidUnicomp:
      return (pow3 - 1) / 2;
    case CellPattern::Unicomp: {
      // Pass d contributes 2 * 3^d cells (neighbor coordinate in d takes
      // two values, dimensions below d sweep freely) when oc[d] is odd.
      std::uint64_t total = 0;
      std::uint64_t p3 = 1;
      for (int d = 0; d < dims; ++d) {
        if ((oc[d] & 1) != 0) total += 2 * p3;
        p3 *= 3;
      }
      return total;
    }
  }
  return 0;
}

}  // namespace gsj
