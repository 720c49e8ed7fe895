#include "baselines/rtree.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/check.hpp"

namespace gsj {

RTree::RTree(const Dataset& ds, std::size_t node_capacity)
    : ds_(&ds), capacity_(node_capacity) {
  GSJ_CHECK_MSG(!ds.empty(), "cannot index an empty dataset");
  GSJ_CHECK(node_capacity >= 2);
  GSJ_CHECK_MSG(ds.dims() <= kMaxBoxDims, "dims > " << kMaxBoxDims);

  const int dims = ds.dims();
  const std::size_t n = ds.size();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), PointId{0});

  // --- STR bulk load, bottom level ---
  // Recursively tile: sort by dim 0 into slabs of equal leaf count,
  // within each slab sort by dim 1, and so on; the innermost runs of
  // `capacity_` points become leaves.
  const std::size_t nleaves = (n + capacity_ - 1) / capacity_;
  {
    // Points per tile along each dimension: nleaves^(1/dims) slabs.
    std::function<void(std::size_t, std::size_t, int)> tile =
        [&](std::size_t begin, std::size_t end, int dim) {
          if (dim >= dims - 1 || end - begin <= capacity_) {
            std::sort(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                      order_.begin() + static_cast<std::ptrdiff_t>(end),
                      [&](PointId a, PointId b) {
                        return ds.coord(a, dim) < ds.coord(b, dim);
                      });
            return;
          }
          std::sort(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                    order_.begin() + static_cast<std::ptrdiff_t>(end),
                    [&](PointId a, PointId b) {
                      return ds.coord(a, dim) < ds.coord(b, dim);
                    });
          // Slab size: leaves in this range split into ~S slabs, where
          // S = ceil(L^(1/remaining_dims)) with L leaves in range.
          const auto leaves_here =
              static_cast<double>((end - begin + capacity_ - 1) / capacity_);
          const double frac = 1.0 / static_cast<double>(dims - dim);
          const auto slabs = static_cast<std::size_t>(
              std::max(1.0, std::ceil(std::pow(leaves_here, frac))));
          const std::size_t leaves_per_slab =
              (static_cast<std::size_t>(leaves_here) + slabs - 1) / slabs;
          const std::size_t pts_per_slab = leaves_per_slab * capacity_;
          for (std::size_t b = begin; b < end; b += pts_per_slab) {
            tile(b, std::min(b + pts_per_slab, end), dim + 1);
          }
        };
    tile(0, n, 0);
  }

  // Leaf nodes over consecutive runs of `capacity_` points.
  std::vector<std::int32_t> level;
  level.reserve(nleaves);
  for (std::size_t begin = 0; begin < n; begin += capacity_) {
    const std::size_t end = std::min(begin + capacity_, n);
    Node leaf;
    leaf.begin = static_cast<std::uint32_t>(begin);
    leaf.end = static_cast<std::uint32_t>(end);
    for (int d = 0; d < dims; ++d) {
      double lo = ds.coord(order_[begin], d), hi = lo;
      for (std::size_t i = begin + 1; i < end; ++i) {
        lo = std::min(lo, ds.coord(order_[i], d));
        hi = std::max(hi, ds.coord(order_[i], d));
      }
      leaf.box.lo[static_cast<std::size_t>(d)] = lo;
      leaf.box.hi[static_cast<std::size_t>(d)] = hi;
    }
    // Ascending ids inside each leaf keep query output merge cheap.
    std::sort(order_.begin() + static_cast<std::ptrdiff_t>(begin),
              order_.begin() + static_cast<std::ptrdiff_t>(end));
    level.push_back(static_cast<std::int32_t>(nodes_.size()));
    nodes_.push_back(leaf);
  }
  height_ = 1;

  // --- pack upper levels until a single root remains ---
  while (level.size() > 1) {
    std::vector<std::int32_t> next;
    next.reserve(level.size() / capacity_ + 1);
    for (std::size_t begin = 0; begin < level.size(); begin += capacity_) {
      const std::size_t end = std::min(begin + capacity_, level.size());
      // Children of one parent must be contiguous in nodes_: STR levels
      // are appended in order, so consecutive level entries are
      // consecutive node indices.
      Node parent;
      parent.first_child = level[begin];
      parent.child_count = static_cast<std::int32_t>(end - begin);
      for (int d = 0; d < dims; ++d) {
        double lo = nodes_[level[begin]].box.lo[static_cast<std::size_t>(d)];
        double hi = nodes_[level[begin]].box.hi[static_cast<std::size_t>(d)];
        for (std::size_t c = begin + 1; c < end; ++c) {
          lo = std::min(lo, nodes_[level[c]].box.lo[static_cast<std::size_t>(d)]);
          hi = std::max(hi, nodes_[level[c]].box.hi[static_cast<std::size_t>(d)]);
        }
        parent.box.lo[static_cast<std::size_t>(d)] = lo;
        parent.box.hi[static_cast<std::size_t>(d)] = hi;
      }
      next.push_back(static_cast<std::int32_t>(nodes_.size()));
      nodes_.push_back(parent);
    }
    level = std::move(next);
    ++height_;
  }
  root_ = level.front();
}

bool RTree::box_within_eps(const Box& box, std::span<const double> center,
                           double eps) const noexcept {
  // Minimum distance from center to box must be <= eps; compare squared.
  double s = 0.0;
  const double eps2 = eps * eps;
  for (int d = 0; d < ds_->dims(); ++d) {
    const double c = center[static_cast<std::size_t>(d)];
    double diff = 0.0;
    if (c < box.lo[static_cast<std::size_t>(d)]) {
      diff = box.lo[static_cast<std::size_t>(d)] - c;
    } else if (c > box.hi[static_cast<std::size_t>(d)]) {
      diff = c - box.hi[static_cast<std::size_t>(d)];
    }
    s += diff * diff;
    if (s > eps2) return false;
  }
  return true;
}

void RTree::query(std::int32_t node, std::span<const double> center,
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
  for (std::int32_t c = 0; c < nd.child_count; ++c) {
    const std::int32_t child = nd.first_child + c;
    if (box_within_eps(nodes_[static_cast<std::size_t>(child)].box, center,
                       eps)) {
      query(child, center, eps, eps2, out);
    }
  }
}

std::vector<PointId> RTree::range_query(PointId q, double epsilon) const {
  GSJ_CHECK(q < ds_->size());
  std::vector<double> center(static_cast<std::size_t>(ds_->dims()));
  for (int d = 0; d < ds_->dims(); ++d) {
    center[static_cast<std::size_t>(d)] = ds_->coord(q, d);
  }
  return range_query(center, epsilon);
}

std::vector<PointId> RTree::range_query(std::span<const double> center,
                                        double epsilon) const {
  GSJ_CHECK(static_cast<int>(center.size()) == ds_->dims());
  GSJ_CHECK(epsilon > 0.0);
  std::vector<PointId> out;
  query(root_, center, epsilon, epsilon * epsilon, out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace gsj
