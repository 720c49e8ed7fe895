// Self-join result collection.
//
// The full result of a similarity self-join is the set of *ordered*
// pairs (a, b) with dist(a, b) <= epsilon, including the (a, a) self
// pairs — the convention of Gowanlock & Karsin [18], which makes the
// result directly usable as epsilon-neighborhood lists (|N(p)| counts p
// itself, as DBSCAN expects).
//
// Large joins produce result sets far beyond memory, so the collector
// supports a count-only mode; pair storage is reserved for tests,
// examples and small workloads.
//
// Batch capacity. A real GPU join writes each batch's pairs into a
// fixed pinned buffer; writes past the end are dropped while the atomic
// result counter keeps incrementing, and the host detects the overflow
// from the final count. begin_batch(capacity) reproduces exactly that:
// emit() always counts, but storage is clamped at `capacity` pairs past
// the batch base, so memory stays bounded no matter how badly the size
// estimate undershot. The host side polls batch_overflowed() (the
// launch abort hook) and either commits the batch or rolls it back with
// rollback_batch() before re-planning (docs/ROBUSTNESS.md).
#pragma once

#include <cstdint>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#include "data/dataset.hpp"

namespace gsj {

using ResultPair = std::pair<PointId, PointId>;

class ResultSet {
 public:
  /// No capacity set: storage is unbounded, as before.
  static constexpr std::uint64_t kUnlimited =
      std::numeric_limits<std::uint64_t>::max();

  /// `store_pairs == false` keeps only the count (benchmark mode).
  explicit ResultSet(bool store_pairs = true) : store_(store_pairs) {}

  void emit(PointId a, PointId b) {
    ++count_;
    if (store_ && count_ <= store_limit_) pairs_.emplace_back(a, b);
  }

  /// Folds in pairs that were counted elsewhere (thread-local merge in
  /// count-only mode).
  void add_count(std::uint64_t n) noexcept { count_ += n; }

  /// Appends another collector's content in its emission order and
  /// empties it — the per-warp-shard merge of the parallel host
  /// execution path. Both sides must share the storage mode.
  void absorb(ResultSet&& other);

  /// Pre-sizes pair storage for `expected_pairs` total pairs (from the
  /// batch estimator) so store-pairs joins don't pay realloc churn
  /// mid-kernel. No-op in count-only mode. The reservation is a hint
  /// from an *untrusted* estimate: callers clamp it to the batch buffer
  /// capacity, it is bounded to max_size here, and a failed allocation
  /// is swallowed — a wildly high estimate must not abort the join
  /// before it starts; emit() simply grows storage amortized as usual.
  void reserve(std::uint64_t expected_pairs) {
    if (!store_) return;
    try {
      pairs_.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(expected_pairs, pairs_.max_size())));
    } catch (const std::bad_alloc&) {
    }
  }

  // --- per-batch capacity (the fixed pinned buffer of one launch) ---

  /// Opens a batch of at most `capacity` pairs: emissions keep counting
  /// past it, but storage is clamped (bounded memory) and
  /// batch_overflowed() turns true. kUnlimited disables the check.
  void begin_batch(std::uint64_t capacity) {
    batch_base_ = count_;
    batch_capacity_ = capacity;
    store_limit_ = capacity == kUnlimited || count_ > kUnlimited - capacity
                       ? kUnlimited
                       : count_ + capacity;
  }

  /// Pairs emitted since begin_batch.
  [[nodiscard]] std::uint64_t batch_count() const noexcept {
    return count_ - batch_base_;
  }

  [[nodiscard]] std::uint64_t batch_capacity() const noexcept {
    return batch_capacity_;
  }

  /// True once the current batch emitted more pairs than its capacity —
  /// the condition the launch abort hook and the recovery loop poll.
  [[nodiscard]] bool batch_overflowed() const noexcept {
    return count_ - batch_base_ > batch_capacity_;
  }

  /// Discards everything emitted since begin_batch (count and storage):
  /// the rollback before a failed batch is split and re-executed.
  void rollback_batch() {
    count_ = batch_base_;
    if (store_ && pairs_.size() > count_) {
      pairs_.resize(static_cast<std::size_t>(count_));
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool stores_pairs() const noexcept { return store_; }
  [[nodiscard]] const std::vector<ResultPair>& pairs() const noexcept {
    return pairs_;
  }

  /// Exact heap bytes held by pair storage (capacity, not size — the
  /// allocation is what a byte budget has to account for). 0 in
  /// count-only mode. Used by the service's result-cache accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return pairs_.capacity() * sizeof(ResultPair);
  }

  /// Sorts stored pairs lexicographically — the canonical form used to
  /// compare results across kernel variants (which emit in different
  /// orders but must produce the same set).
  void canonicalize();

  /// Converts stored ordered pairs into per-point neighbor lists
  /// (CSR-style offsets + flattened neighbor ids). Requires stored
  /// pairs; `n` is the dataset size.
  struct NeighborLists {
    std::vector<std::uint64_t> offsets;  ///< size n+1
    std::vector<PointId> neighbors;
  };
  [[nodiscard]] NeighborLists neighbor_lists(std::size_t n) const;

  void clear() noexcept {
    count_ = 0;
    pairs_.clear();
    batch_base_ = 0;
    batch_capacity_ = kUnlimited;
    store_limit_ = kUnlimited;
  }

  // --- storage recycling (the run's scratch arena) ---

  /// Donates an empty-but-capacitated buffer for pair storage: the
  /// vector is cleared and used in place of a fresh allocation, so a
  /// long-lived service can reuse one pair buffer across queries
  /// instead of reallocating per call. Content (if any) is discarded;
  /// no observable state changes besides capacity.
  void adopt_storage(std::vector<ResultPair>&& buffer) noexcept {
    pairs_ = std::move(buffer);
    pairs_.clear();
  }

  /// Releases the pair buffer (capacity included) back to the caller
  /// and resets the collector — the inverse of adopt_storage, used by
  /// JoinService::recycle to reclaim a consumed output's allocation.
  [[nodiscard]] std::vector<ResultPair> take_storage() noexcept {
    std::vector<ResultPair> out = std::move(pairs_);
    clear();
    return out;
  }

 private:
  bool store_;
  std::uint64_t count_ = 0;
  // Batch window: emissions beyond store_limit_ are counted, not stored.
  std::uint64_t batch_base_ = 0;
  std::uint64_t batch_capacity_ = kUnlimited;
  std::uint64_t store_limit_ = kUnlimited;
  std::vector<ResultPair> pairs_;
};

}  // namespace gsj
