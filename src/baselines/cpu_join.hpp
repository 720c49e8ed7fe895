// What every related-work CPU comparator join returns (k-d tree,
// R-tree, Morton curve).
#pragma once

#include <cstdint>

#include "sj/result_set.hpp"

namespace gsj {

struct CpuJoinStats {
  double build_seconds = 0.0;  ///< index build; Morton: the curve sort
  double join_seconds = 0.0;
  std::uint64_t distance_calcs = 0;
  std::uint64_t result_pairs = 0;
};

struct CpuJoinOutput {
  ResultSet results{false};
  CpuJoinStats stats;
};

}  // namespace gsj
