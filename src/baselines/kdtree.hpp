// k-d tree index and self-join — the classic tree baseline the paper's
// related work discusses (§II-B1, [8]): a binary tree over k-dimensional
// points where each node splits space on one dimension. Trees prune
// well on the CPU but, as the paper notes, their branchy recursive
// traversal is a poor fit for the GPU — this implementation is the CPU
// comparator used to put the grid-based approaches in context.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "baselines/cpu_join.hpp"
#include "data/dataset.hpp"

namespace gsj {

class KdTree {
 public:
  /// Builds a balanced tree (median splits, cycling dimensions) over
  /// `ds`. The dataset must outlive the tree.
  explicit KdTree(const Dataset& ds, std::size_t leaf_size = 16);

  [[nodiscard]] const Dataset& dataset() const noexcept { return *ds_; }
  [[nodiscard]] std::size_t size() const noexcept { return ds_->size(); }
  [[nodiscard]] std::size_t leaf_size() const noexcept { return leaf_size_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Maximum root-to-leaf depth (diagnostic; balanced builds give
  /// O(log n)).
  [[nodiscard]] std::size_t depth() const;

  /// All point ids within `epsilon` of point `q` (q included), ascending.
  [[nodiscard]] std::vector<PointId> range_query(PointId q,
                                                 double epsilon) const;

  /// All point ids within `epsilon` of an arbitrary center, ascending.
  [[nodiscard]] std::vector<PointId> range_query(std::span<const double> center,
                                                 double epsilon) const;

  /// Number of distance evaluations performed since construction
  /// (diagnostic for pruning effectiveness; not thread-safe).
  [[nodiscard]] std::uint64_t distance_calcs() const noexcept {
    return dist_calcs_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    // Internal nodes: split dimension/value and children. Leaves:
    // children == -1 and [begin, end) into order_.
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t split_dim = -1;
    double split_value = 0.0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;

    [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
  };

  std::int32_t build(std::uint32_t begin, std::uint32_t end, int depth);
  void query(std::int32_t node, std::span<const double> center, double eps,
             double eps2, std::vector<PointId>& out) const;
  [[nodiscard]] std::size_t depth_of(std::int32_t node) const;

  const Dataset* ds_;
  std::size_t leaf_size_;
  std::vector<Node> nodes_;
  std::vector<PointId> order_;
  mutable std::atomic<std::uint64_t> dist_calcs_{0};
};

/// Parallel self-join via per-point range queries on the k-d tree.
/// Same ordered-pair semantics as the other joins.
[[nodiscard]] CpuJoinOutput kdtree_self_join(const Dataset& ds, double epsilon,
                                             std::size_t nthreads = 0,
                                             bool store_pairs = false,
                                             std::size_t leaf_size = 16);

}  // namespace gsj
