// Plan-stage golden: every join mode's resolved plan, its modeled
// execution and the artifact-cache traffic it causes, pinned bit for
// bit across cold and warm runs on one attached dataset.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"
#include "support/oracle.hpp"

namespace gsj {
namespace {

using testsupport::all_variants;

/// FNV-1a over full 64-bit values, byte by byte.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

/// The sj.cache.{grid,workload,order,estimate}.{hits,misses} counters,
/// in that order.
using CacheCounts = std::array<std::uint64_t, 8>;

CacheCounts cache_counts(obs::Registry& reg) {
  CacheCounts c{};
  std::size_t i = 0;
  for (const char* artifact : {"grid", "workload", "order", "estimate"}) {
    for (const char* event : {".hits", ".misses"}) {
      c[i++] =
          reg.counter(std::string("sj.cache.") + artifact + event).value();
    }
  }
  return c;
}

struct Golden {
  std::uint64_t estimated_total_pairs, num_batches, batch_points_digest,
      makespan_cycles, active_lane_steps, pairs_digest;
  CacheCounts cold, warm;
};

struct Observed {
  std::uint64_t estimated_total_pairs, num_batches, batch_points_digest,
      makespan_cycles, active_lane_steps, pairs_digest;
};

Observed observe(const SelfJoinOutput& out) {
  Fnv batches;
  for (const BatchStats& b : out.stats.batches) batches.fold(b.query_points);
  Fnv pairs;
  for (const ResultPair& p : out.results.pairs()) {
    pairs.fold(p.first);
    pairs.fold(p.second);
  }
  return {out.stats.estimated_total_pairs,
          out.stats.num_batches,
          batches.h,
          out.stats.kernel.makespan_cycles,
          out.stats.kernel.active_lane_steps,
          pairs.h};
}

TEST(PlanStage, GoldenPlansUnchanged) {
  // Small buffers split every plan into several batches. Recorded
  // before the plan stage became one non-template run function.
  // Row: estimate, batches, digest of per-batch query points,
  // makespan cycles, active lane-steps, digest of the stored pairs;
  // then the sj.cache.{grid,workload,order,estimate}.{hits,misses}
  // counters after the cold run and after the warm run.
  constexpr Golden kGolden[] = {
      {360900, 91, 0x39de2b9c59a758d5ull, 3039251, 875462,
       0x448efcbd564a0a67ull,
       {0, 1, 0, 0, 0, 0, 0, 1},
       {1, 1, 0, 0, 0, 0, 1, 1}},  // GPUCALCGLOBAL Self x1
      {360900, 91, 0x39de2b9c59a758d5ull, 2695547, 446731,
       0x448efcbd564a0a67ull,
       {2, 1, 0, 0, 0, 0, 2, 1},
       {3, 1, 0, 0, 0, 0, 3, 1}},  // UNICOMP Self x1
      {360900, 91, 0x39de2b9c59a758d5ull, 1803351, 446731,
       0x448efcbd564a0a67ull,
       {4, 1, 0, 0, 0, 0, 4, 1},
       {5, 1, 0, 0, 0, 0, 5, 1}},  // LID-UNICOMP Self x1
      {360900, 91, 0x39de2b9c59a758d5ull, 3039251, 875462,
       0x448efcbd564a0a67ull,
       {6, 1, 0, 1, 0, 0, 6, 1},
       {7, 1, 1, 1, 0, 0, 7, 1}},  // SORTBYWL Self x1
      {631400, 354, 0xa4f994c0ba4ab42full, 7116386, 875462,
       0x448efcbd564a0a67ull,
       {8, 1, 2, 1, 0, 1, 7, 2},
       {9, 1, 3, 1, 1, 1, 8, 2}},  // WORKQUEUE Self x1
      {640800, 228, 0x8ece97477b4749c5ull, 439364, 586731,
       0x448efcbd564a0a67ull,
       {10, 1, 3, 2, 1, 2, 8, 3},
       {11, 1, 4, 2, 2, 2, 9, 3}},  // COMBINED Self x1
      {261000, 66, 0xa007744e49b9d783ull, 2188222, 638840,
       0x27afedf1ed180c40ull,
       {12, 1, 4, 2, 2, 2, 9, 4},
       {13, 1, 4, 2, 2, 2, 10, 4}},  // GPUCALCGLOBAL R×S x1
      {261000, 66, 0xa007744e49b9d783ull, 2188222, 638840,
       0x27afedf1ed180c40ull,
       {14, 1, 4, 2, 2, 2, 11, 4},
       {15, 1, 4, 2, 2, 2, 12, 4}},  // UNICOMP R×S x1
      {261000, 66, 0xa007744e49b9d783ull, 2188222, 638840,
       0x27afedf1ed180c40ull,
       {16, 1, 4, 2, 2, 2, 13, 4},
       {17, 1, 4, 2, 2, 2, 14, 4}},  // LID-UNICOMP R×S x1
      {261000, 66, 0xa007744e49b9d783ull, 2188222, 638840,
       0x27afedf1ed180c40ull,
       {18, 1, 4, 3, 2, 2, 15, 4},
       {19, 1, 5, 3, 2, 2, 16, 4}},  // SORTBYWL R×S x1
      {456800, 255, 0x0aaaf750f114cd25ull, 5071527, 638840,
       0x27afedf1ed180c40ull,
       {20, 1, 6, 3, 2, 3, 16, 5},
       {21, 1, 7, 3, 3, 3, 17, 5}},  // WORKQUEUE R×S x1
      {456800, 255, 0x0aaaf750f114cd25ull, 855707, 743840,
       0x27afedf1ed180c40ull,
       {22, 1, 8, 3, 4, 3, 18, 5},
       {23, 1, 9, 3, 5, 3, 19, 5}},  // COMBINED R×S x1
      {360900, 98, 0xe940e6cbf77f4467ull, 1088094, 875462,
       0x448efcbd564a0a67ull,
       {24, 1, 10, 3, 5, 3, 20, 5},
       {25, 1, 11, 3, 5, 3, 21, 5}},  // GPUCALCGLOBAL Self x2
      {360900, 99, 0x4fe959e867fa5b4dull, 913976, 446731, 0x448efcbd564a0a67ull,
       {26, 1, 11, 4, 5, 3, 22, 5},
       {27, 1, 12, 4, 5, 3, 23, 5}},  // UNICOMP Self x2
      {360900, 99, 0xdb77e1ed9ea4b815ull, 727498, 446731, 0x448efcbd564a0a67ull,
       {28, 1, 13, 4, 5, 3, 24, 5},
       {29, 1, 14, 4, 5, 3, 25, 5}},  // LID-UNICOMP Self x2
      {360900, 98, 0xe940e6cbf77f4467ull, 1088328, 875462,
       0x448efcbd564a0a67ull,
       {30, 1, 15, 4, 5, 3, 26, 5},
       {31, 1, 16, 4, 5, 3, 27, 5}},  // SORTBYWL Self x2
      {631400, 336, 0x1a09b5cd57213da3ull, 3595169, 875462,
       0x448efcbd564a0a67ull,
       {32, 1, 17, 4, 6, 3, 28, 5},
       {33, 1, 18, 4, 7, 3, 29, 5}},  // WORKQUEUE Self x2
      {640800, 194, 0xdfb89845fdc89471ull, 204932, 586731,
       0x448efcbd564a0a67ull,
       {34, 1, 19, 4, 8, 3, 30, 5},
       {35, 1, 20, 4, 9, 3, 31, 5}},  // COMBINED Self x2
      {261000, 79, 0xa24f0520a011f795ull, 1282377, 638840,
       0x27afedf1ed180c40ull,
       {36, 1, 21, 4, 9, 3, 32, 5},
       {37, 1, 22, 4, 9, 3, 33, 5}},  // GPUCALCGLOBAL R×S x2
      {261000, 79, 0xa24f0520a011f795ull, 1282377, 638840,
       0x27afedf1ed180c40ull,
       {38, 1, 23, 4, 9, 3, 34, 5},
       {39, 1, 24, 4, 9, 3, 35, 5}},  // UNICOMP R×S x2
      {261000, 79, 0xa24f0520a011f795ull, 1282377, 638840,
       0x27afedf1ed180c40ull,
       {40, 1, 25, 4, 9, 3, 36, 5},
       {41, 1, 26, 4, 9, 3, 37, 5}},  // LID-UNICOMP R×S x2
      {261000, 79, 0xa24f0520a011f795ull, 1282377, 638840,
       0x27afedf1ed180c40ull,
       {42, 1, 27, 4, 9, 3, 38, 5},
       {43, 1, 28, 4, 9, 3, 39, 5}},  // SORTBYWL R×S x2
      {456800, 260, 0xa8812f08e56f0223ull, 2704101, 638840,
       0x27afedf1ed180c40ull,
       {44, 1, 29, 4, 10, 3, 40, 5},
       {45, 1, 30, 4, 11, 3, 41, 5}},  // WORKQUEUE R×S x2
      {456800, 260, 0xa8812f08e56f0223ull, 455679, 743840,
       0x27afedf1ed180c40ull,
       {46, 1, 31, 4, 12, 3, 42, 5},
       {47, 1, 32, 4, 13, 3, 43, 5}},  // COMBINED R×S x2
      {0, 0, 0x14650fb0739d0383ull, 0, 0, 0x6f09254a14a3cb3dull,
       {48, 7, 32, 4, 13, 3, 43, 5},
       {55, 7, 32, 4, 13, 3, 43, 5}},  // KNN
  };

  struct Case {
    std::string name;
    SelfJoinConfig cfg;
  };
  const Dataset ds = gen_exponential(2000, 2, /*seed=*/71);
  const Dataset probe = gen_exponential(1500, 2, /*seed=*/73);
  constexpr double kEps = 0.01;
  std::vector<Case> cases;
  for (const int devices : {1, 2}) {
    for (const JoinMode mode : {JoinMode::Self, JoinMode::RxS}) {
      for (auto& [name, base] : all_variants(kEps)) {
        SelfJoinConfig cfg = base;
        cfg.mode = mode;
        if (mode == JoinMode::RxS) cfg.probe = &probe;
        cfg.fleet.num_devices = devices;
        cfg.store_pairs = true;
        cfg.batching.buffer_pairs = 6000;
        cases.push_back({name + (mode == JoinMode::RxS ? " R×S" : " Self") +
                             " x" + std::to_string(devices),
                         cfg});
      }
    }
  }
  SelfJoinConfig knn;
  knn.mode = JoinMode::Knn;
  knn.probe = &probe;
  knn.knn_k = 4;
  knn.knn_initial_epsilon = 0.25 * kEps;
  knn.store_pairs = true;
  cases.push_back({"KNN", knn});

  obs::Registry reg;
  ServiceConfig scfg;
  scfg.obs.metrics = &reg;
  // Room for every KNN widening round, so the warm KNN run hits.
  scfg.max_cached_grids = 8;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);
  ASSERT_EQ(cases.size(), std::size(kGolden));
  std::size_t i = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Observed cold = observe(svc.run(*sd, c.cfg));
    const CacheCounts after_cold = cache_counts(reg);
    const Observed warm = observe(svc.run(*sd, c.cfg));
    const CacheCounts after_warm = cache_counts(reg);
    const Golden& g = kGolden[i++];
    for (const Observed& o : {cold, warm}) {
      EXPECT_EQ(o.estimated_total_pairs, g.estimated_total_pairs);
      EXPECT_EQ(o.num_batches, g.num_batches);
      EXPECT_EQ(o.batch_points_digest, g.batch_points_digest);
      EXPECT_EQ(o.makespan_cycles, g.makespan_cycles);
      EXPECT_EQ(o.active_lane_steps, g.active_lane_steps);
      EXPECT_EQ(o.pairs_digest, g.pairs_digest);
    }
    EXPECT_EQ(after_cold, g.cold);
    EXPECT_EQ(after_warm, g.warm);
  }
}

TEST(PlanStage, EachPlanSpanOpensAtMostOnce) {
  // One fixed plan-span sequence for every variant and device count,
  // cold and warm: grid_build; workload_quantify (fleet, WORKQUEUE,
  // SORTBYWL); sortbywl_sort around D' (WORKQUEUE); batch_plan around
  // estimation_sample and the planner, whose SORTBYWL striding and
  // sorts run under their own sortbywl_sort.
  const Dataset ds = gen_exponential(1500, 2, /*seed=*/79);
  JoinService svc;
  const auto sd = svc.attach(ds);
  for (const int devices : {1, 2}) {
    for (auto& [name, base] : all_variants(0.01)) {
      SelfJoinConfig cfg = base;
      cfg.fleet.num_devices = devices;
      cfg.batching.buffer_pairs = 6000;
      const bool fleet = devices > 1;
      for (const char* pass : {"cold", "warm"}) {
        SCOPED_TRACE(name + " x" + std::to_string(devices) + " " + pass);
        obs::Tracer tracer(obs::TimeMode::Logical);
        cfg.tracer = &tracer;
        (void)svc.run(*sd, cfg);
        const std::vector<obs::HostSpan> spans = tracer.host_spans();
        const auto named = [&spans](const char* span_name) {
          std::vector<obs::HostSpan> out;
          std::copy_if(spans.begin(), spans.end(), std::back_inserter(out),
                       [span_name](const obs::HostSpan& h) {
                         return h.name == span_name;
                       });
          return out;
        };
        const auto within = [](const obs::HostSpan& in,
                               const obs::HostSpan& out) {
          return in.ts >= out.ts && in.ts + in.dur <= out.ts + out.dur;
        };
        const auto plan = named("batch_plan");
        const auto estimate = named("estimation_sample");
        const auto quantify = named("workload_quantify");
        const auto sort = named("sortbywl_sort");
        ASSERT_EQ(named("grid_build").size(), 1u);
        ASSERT_EQ(plan.size(), 1u);
        ASSERT_EQ(estimate.size(), 1u);
        EXPECT_TRUE(within(estimate[0], plan[0]));
        ASSERT_EQ(quantify.size(),
                  fleet || cfg.work_queue || cfg.sort_by_workload ? 1u : 0u);
        if (!quantify.empty()) {
          EXPECT_FALSE(within(quantify[0], plan[0]));
        }
        ASSERT_EQ(sort.size(),
                  cfg.work_queue || (cfg.sort_by_workload && !fleet) ? 1u
                                                                     : 0u);
        if (!sort.empty()) {
          EXPECT_EQ(within(sort[0], plan[0]), !cfg.work_queue);
        }
      }
    }
  }
}

}  // namespace
}  // namespace gsj
