// Morton-order (Z-curve) self-join — the space-filling-curve family of
// approaches from the paper's related work (§II-B2, the LSS algorithm
// [24] turns the similarity join into sort-and-search along a curve).
// LSS computes an approximate result; this implementation keeps the
// curve's sort-and-search structure but remains EXACT by searching, for
// each query point, the 3^n epsilon-cells around it in a Morton-sorted
// cell directory (a non-materialized grid keyed by Morton code instead
// of row-major linear id).
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/cpu_join.hpp"
#include "data/dataset.hpp"

namespace gsj {

/// Interleaves the low `bits` bits of each of `dims` coordinates into a
/// Morton code (dimension 0 contributes the least-significant bit of
/// each group). dims * bits must be <= 64.
[[nodiscard]] std::uint64_t morton_encode(std::span<const std::uint32_t> cells,
                                          int bits);

/// Inverse of morton_encode.
[[nodiscard]] std::vector<std::uint32_t> morton_decode(std::uint64_t code,
                                                       int dims, int bits);

/// Exact epsilon self-join over a Morton-sorted epsilon-cell directory.
/// Same ordered-pair semantics as the other joins in this library.
[[nodiscard]] CpuJoinOutput morton_self_join(const Dataset& ds,
                                             double epsilon,
                                             std::size_t nthreads = 0,
                                             bool store_pairs = false);

}  // namespace gsj
