// The k-d tree and R-tree self-joins: one range query per point on the
// index, through the CPU comparators' pair collector.
#include "baselines/kdtree.hpp"
#include "baselines/rtree.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "sj/reference.hpp"

namespace gsj {

namespace {

template <typename Index>
CpuJoinOutput tree_self_join(const Dataset& ds, double epsilon,
                             std::size_t nthreads, bool store_pairs,
                             std::size_t node_size) {
  GSJ_CHECK_MSG(epsilon > 0.0, "epsilon must be positive");
  CpuJoinOutput out;
  Timer build_timer;
  const Index tree(ds, node_size);
  out.stats.build_seconds = build_timer.seconds();

  Timer join_timer;
  ThreadPool pool(nthreads);
  out.results = collect_pairs(
      pool, ds.size(), store_pairs,
      [&](std::size_t begin, std::size_t end, ResultSet& rs) {
        for (std::size_t q = begin; q < end; ++q) {
          const auto p = static_cast<PointId>(q);
          for (const PointId c : tree.range_query(p, epsilon)) rs.emit(p, c);
        }
      });
  out.stats.join_seconds = join_timer.seconds();
  out.stats.distance_calcs = tree.distance_calcs();
  out.stats.result_pairs = out.results.count();
  return out;
}

}  // namespace

CpuJoinOutput kdtree_self_join(const Dataset& ds, double epsilon,
                               std::size_t nthreads, bool store_pairs,
                               std::size_t leaf_size) {
  return tree_self_join<KdTree>(ds, epsilon, nthreads, store_pairs, leaf_size);
}

CpuJoinOutput rtree_self_join(const Dataset& ds, double epsilon,
                              std::size_t nthreads, bool store_pairs,
                              std::size_t node_capacity) {
  return tree_self_join<RTree>(ds, epsilon, nthreads, store_pairs,
                               node_capacity);
}

}  // namespace gsj
