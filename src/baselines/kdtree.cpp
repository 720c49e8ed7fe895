#include "baselines/kdtree.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace gsj {

KdTree::KdTree(const Dataset& ds, std::size_t leaf_size)
    : ds_(&ds), leaf_size_(leaf_size) {
  GSJ_CHECK_MSG(!ds.empty(), "cannot index an empty dataset");
  GSJ_CHECK(leaf_size >= 1);
  order_.resize(ds.size());
  std::iota(order_.begin(), order_.end(), PointId{0});
  nodes_.reserve(2 * ds.size() / leaf_size + 2);
  (void)build(0, static_cast<std::uint32_t>(ds.size()), 0);
}

std::int32_t KdTree::build(std::uint32_t begin, std::uint32_t end, int depth) {
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  if (end - begin <= leaf_size_) {
    nodes_[id].begin = begin;
    nodes_[id].end = end;
    // Sorted leaves make range-query output merging cheap.
    std::sort(order_.begin() + begin, order_.begin() + end);
    return id;
  }
  const int dim = depth % ds_->dims();
  const std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end, [&](PointId a, PointId b) {
                     return ds_->coord(a, dim) < ds_->coord(b, dim);
                   });
  const double split = ds_->coord(order_[mid], dim);
  // Children are built after this node; store indices afterwards (the
  // vector may reallocate during recursion, so never hold a reference).
  const std::int32_t left = build(begin, mid, depth + 1);
  const std::int32_t right = build(mid, end, depth + 1);
  nodes_[id].left = left;
  nodes_[id].right = right;
  nodes_[id].split_dim = dim;
  nodes_[id].split_value = split;
  return id;
}

std::size_t KdTree::depth() const { return depth_of(0); }

std::size_t KdTree::depth_of(std::int32_t node) const {
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  if (nd.is_leaf()) return 1;
  return 1 + std::max(depth_of(nd.left), depth_of(nd.right));
}

void KdTree::query(std::int32_t node, std::span<const double> center,
                   double eps, double eps2, std::vector<PointId>& out) const {
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  if (nd.is_leaf()) {
    for (std::uint32_t i = nd.begin; i < nd.end; ++i) {
      const PointId c = order_[i];
      double s = 0.0;
      for (int d = 0; d < ds_->dims(); ++d) {
        const double diff =
            ds_->coord(c, d) - center[static_cast<std::size_t>(d)];
        s += diff * diff;
        if (s > eps2) break;
      }
      dist_calcs_.fetch_add(1, std::memory_order_relaxed);
      if (s <= eps2) out.push_back(c);
    }
    return;
  }
  const double delta =
      center[static_cast<std::size_t>(nd.split_dim)] - nd.split_value;
  // Descend the near side first, the far side only if the splitting
  // plane is within eps of the center (points beyond the plane are then
  // separated by more than eps in this dimension alone).
  if (delta < 0.0) {
    query(nd.left, center, eps, eps2, out);
    if (-delta <= eps) query(nd.right, center, eps, eps2, out);
  } else {
    query(nd.right, center, eps, eps2, out);
    if (delta <= eps) query(nd.left, center, eps, eps2, out);
  }
}

std::vector<PointId> KdTree::range_query(PointId q, double epsilon) const {
  GSJ_CHECK(q < ds_->size());
  std::vector<double> center(static_cast<std::size_t>(ds_->dims()));
  for (int d = 0; d < ds_->dims(); ++d) {
    center[static_cast<std::size_t>(d)] = ds_->coord(q, d);
  }
  return range_query(center, epsilon);
}

std::vector<PointId> KdTree::range_query(std::span<const double> center,
                                         double epsilon) const {
  GSJ_CHECK(static_cast<int>(center.size()) == ds_->dims());
  GSJ_CHECK(epsilon > 0.0);
  std::vector<PointId> out;
  query(0, center, epsilon, epsilon * epsilon, out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace gsj
