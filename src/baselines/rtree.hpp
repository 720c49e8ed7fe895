// R-tree index and self-join — the other tree baseline of the paper's
// related work (§II-B1, [9]-[11]): bounding-box hierarchy over the
// points. Built with Sort-Tile-Recursive (STR) bulk loading, which
// yields well-packed leaves without the insertion-order pathologies of
// dynamic R-trees. Range queries descend every child whose box
// intersects the epsilon ball's bounding box (with an exact distance
// refine at the leaves).
//
// As the paper notes, bounding boxes overlap increasingly with
// dimensionality, so pruning degrades in higher dimensions — visible in
// this implementation's distance_calcs diagnostic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "baselines/cpu_join.hpp"
#include "data/dataset.hpp"

namespace gsj {

class RTree {
 public:
  /// STR bulk load over `ds` with the given leaf/fanout capacity. The
  /// dataset must outlive the tree.
  explicit RTree(const Dataset& ds, std::size_t node_capacity = 16);

  [[nodiscard]] const Dataset& dataset() const noexcept { return *ds_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }

  /// All point ids within `epsilon` of point `q` (q included), ascending.
  [[nodiscard]] std::vector<PointId> range_query(PointId q,
                                                 double epsilon) const;

  /// All point ids within `epsilon` of an arbitrary center, ascending.
  [[nodiscard]] std::vector<PointId> range_query(std::span<const double> center,
                                                 double epsilon) const;

  /// Distance evaluations since construction (pruning diagnostic).
  [[nodiscard]] std::uint64_t distance_calcs() const noexcept {
    return dist_calcs_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kMaxBoxDims = 8;

  struct Box {
    std::array<double, kMaxBoxDims> lo{};
    std::array<double, kMaxBoxDims> hi{};
  };

  struct Node {
    Box box;
    std::int32_t first_child = -1;  ///< nodes_ index; -1 for leaves
    std::int32_t child_count = 0;
    std::uint32_t begin = 0;  ///< leaves: range into order_
    std::uint32_t end = 0;

    [[nodiscard]] bool is_leaf() const noexcept { return first_child < 0; }
  };

  void query(std::int32_t node, std::span<const double> center, double eps,
             double eps2, std::vector<PointId>& out) const;
  [[nodiscard]] bool box_within_eps(const Box& box,
                                    std::span<const double> center,
                                    double eps) const noexcept;

  const Dataset* ds_;
  std::size_t capacity_;
  std::size_t height_ = 0;
  std::int32_t root_ = -1;
  std::vector<Node> nodes_;
  std::vector<PointId> order_;
  mutable std::atomic<std::uint64_t> dist_calcs_{0};
};

/// Parallel self-join via per-point range queries on the R-tree.
[[nodiscard]] CpuJoinOutput rtree_self_join(const Dataset& ds, double epsilon,
                                            std::size_t nthreads = 0,
                                            bool store_pairs = false,
                                            std::size_t node_capacity = 16);

}  // namespace gsj
