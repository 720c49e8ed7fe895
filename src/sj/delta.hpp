// Streaming delta joins (docs/STREAMING.md): given the churn summary
// of a mutation window and a grid over the *current* dataset, compute
// exactly how the self-join result changed — the pairs gained and the
// pairs lost — without re-joining anything farther than one ε shell
// from the churn.
//
// Pair semantics match the full join (sj/result_set.hpp): ordered
// pairs, self pairs included, lexicographically sorted. Pairs on the
// "lost" side are labeled with the ids points had at the window's base
// generation (ChurnSummary tracks identity through swap-and-pop
// renames), so gained/lost equal the literal set differences of
// brute-force results computed after and before the window — the
// invariant the differential churn tests assert.
//
// The work is keyed by id, not by point. An erase renames the tail
// point into the erased id and a later insert takes the vacated tail
// id, so one id can name two different points across a window. Each id
// that names a churned point on either side gets one slot: `now`, the
// point holding it at the current generation, and `was`, the point
// holding it at the base generation (either may be absent). Every
// other id is an untouched point with the same id and position on
// both sides, so only pairs naming a slot can change:
//   * slot × untouched: one walk over the union of the slot's `now`
//     and `was` windows tests each candidate against both sides and
//     emits (id, q) and (q, id) only when the two answers disagree;
//   * slot × slot: the pair holds on a side when both slots have a
//     point there within ε; the self pair flips when exactly one side
//     is present.
// Both lists are then ordered by a radix sort.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/churn.hpp"
#include "grid/grid_index.hpp"
#include "sj/result_set.hpp"

namespace gsj {

struct DeltaStats {
  std::size_t touched_points = 0;  ///< live points whose position/id changed
  std::size_t removed_points = 0;  ///< points that left the dataset
  /// Pairs examined: each (slot id, untouched point) in the union of
  /// the slot's windows once, plus each pair of slots once.
  std::uint64_t candidates = 0;
};

/// The join-result difference across a mutation window.
struct PairDelta {
  /// Ordered pairs present now and absent at the base generation,
  /// lexicographically sorted.
  std::vector<ResultPair> gained;
  /// Ordered pairs present at the base generation (labeled with
  /// base-generation ids) and absent now, lexicographically sorted.
  std::vector<ResultPair> lost;
  DeltaStats stats;

  [[nodiscard]] bool empty() const noexcept {
    return gained.empty() && lost.empty();
  }
};

/// Computes the pair delta for query radius `epsilon` from `churn`.
/// `grid` must be current (grid.generation() == dataset generation)
/// and at least as coarse as the query: epsilon <= grid.epsilon().
/// Cost: the candidates of the slots' union windows, plus slots², plus
/// O(output + id range) to index the slots and sort the output.
[[nodiscard]] PairDelta compute_pair_delta(const GridIndex& grid,
                                           const ChurnSummary& churn,
                                           double epsilon);

/// Carries `pairs`, the canonical pair set at a window's base
/// generation, across the window: (pairs ∖ delta.lost) ∪ delta.gained.
/// Survivors of the difference are untouched pairs, whose ids are
/// stable across the window, and gained carries current ids, so the
/// result is the canonical pair set now.
[[nodiscard]] std::vector<ResultPair> apply_pair_delta(
    std::span<const ResultPair> pairs, const PairDelta& delta);

}  // namespace gsj
