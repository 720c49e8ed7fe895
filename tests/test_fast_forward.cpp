// Equivalence suite for the warp replay (simt::WarpRunKernel):
// SelfJoinKernel's run_warp hook must leave every observable of a
// launch exactly as the per-step lockstep loop leaves it — every
// KernelStats field, the raw emission stream (order and batch-capacity
// clamp included), results_emitted and the WarpObserver records — for
// the six paper variants on self-join 2-D / 6-D and R×S 2-D inputs and
// a 2-D lattice full of exact-ε ties, with pairs stored or only
// counted, on the sequential and the parallel host path. A golden test
// pins the modeled counts and a digest of the emission stream to the
// values the per-step simulator produced; a second pins them for
// NextCell-bound inputs (sparse 6-D, R×S with out-of-bbox probes, 1-D,
// 8-D and one- or two-cell dimensions), whose lane-steps are almost all
// adjacency-slot steps. The edge tests cover narrow warps with
// cooperative groups, cost tables whose class order matches neither
// default, a lane its group's ring leaves behind, and the accepted-slot
// masks the window walks read.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "simt/launch.hpp"
#include "sj/kernels.hpp"

namespace gsj {
namespace {

/// Forwards SelfJoinKernel's lane and shard API. With kRunWarp false
/// it hides the run_warp hook, so simt::launch runs the plain per-step
/// loop: the reference. With it true it forwards the hook and counts
/// the lane-steps the replay covered (the hook runs on worker threads
/// on the parallel path, hence the atomic).
template <bool kRunWarp>
class ForwardingKernel {
 public:
  using LaneState = SelfJoinKernel::LaneState;
  using Shard = SelfJoinKernel::Shard;

  explicit ForwardingKernel(SelfJoinKernel& k) : k_(k) {}

  simt::InitResult init_lane(LaneState& s, const simt::LaneCtx& ctx,
                             simt::WarpScratch& scratch) {
    return k_.init_lane(s, ctx, scratch);
  }
  simt::StepResult step(LaneState& s) { return k_.step(s); }
  [[nodiscard]] Shard make_shard() const { return k_.make_shard(); }
  simt::StepResult step(LaneState& s, Shard& shard) {
    return k_.step(s, shard);
  }
  void merge_shard(Shard&& shard) { k_.merge_shard(std::move(shard)); }

  simt::detail::WarpRun run_warp(LaneState* lanes, const std::uint8_t* active,
                                 int warp_size)
    requires kRunWarp
  {
    return count(k_.run_warp(lanes, active, warp_size));
  }
  simt::detail::WarpRun run_warp(LaneState* lanes, const std::uint8_t* active,
                                 int warp_size, Shard& shard)
    requires kRunWarp
  {
    return count(k_.run_warp(lanes, active, warp_size, shard));
  }

  [[nodiscard]] std::uint64_t covered_lane_steps() const {
    return covered_.load();
  }

 private:
  simt::detail::WarpRun count(const simt::detail::WarpRun& run) {
    covered_.fetch_add(run.active_lane_steps, std::memory_order_relaxed);
    return run;
  }

  SelfJoinKernel& k_;
  std::atomic<std::uint64_t> covered_{0};
};

using PerStepKernel = ForwardingKernel<false>;
using FastKernel = ForwardingKernel<true>;

static_assert(simt::WarpRunKernel<SelfJoinKernel>);
static_assert(simt::WarpRunKernel<SelfJoinKernel, SelfJoinKernel::Shard>);
static_assert(!simt::WarpRunKernel<PerStepKernel>);
static_assert(simt::ParallelHostKernel<PerStepKernel>);
static_assert(simt::WarpRunKernel<FastKernel>);

struct Variant {
  const char* name;
  CellPattern pattern;
  bool sort_by_workload;
  bool work_queue;
  int k;
};

// The six paper variants as SelfJoinConfig's factories configure them.
constexpr Variant kVariants[] = {
    {"FULL", CellPattern::Full, false, false, 1},
    {"UNICOMP", CellPattern::Unicomp, false, false, 1},
    {"LID_UNICOMP", CellPattern::LidUnicomp, false, false, 1},
    {"SORTBYWL", CellPattern::Full, true, false, 1},
    {"WORKQUEUE", CellPattern::Full, false, true, 1},
    {"COMBINED", CellPattern::LidUnicomp, false, true, 8},
};

/// A gridded dataset, its scan columns and, for R×S, the probe side
/// (empty: self-join). Never moved once built: the grid points into
/// `ds`.
struct Input {
  Dataset ds;
  Dataset probe;
  GridIndex grid;
  std::vector<double> columns;  ///< as the batch driver builds them

  Input(Dataset d, double eps, Dataset p = Dataset())
      : ds(std::move(d)),
        probe(std::move(p)),
        grid(ds, eps),
        columns(scan_columns(grid)) {}
  [[nodiscard]] bool rxs() const { return probe.size() > 0; }
};

const Input& self_2d() {
  static const Input in(gen_exponential(3000, 2, 117), 0.04);
  return in;
}
const Input& self_6d() {
  static const Input in(gen_exponential(1200, 6, 119), 0.8);
  return in;
}
const Input& rxs_2d() {
  static const Input in(gen_exponential(2500, 2, 121), 0.04,
                        gen_exponential(1500, 2, 122));
  return in;
}

/// Exact-ε ties: a 20 × 20 lattice of spacing ε/2 with ε = 0.25, so
/// every coordinate, difference and square is exact in binary and each
/// site two steps away along an axis lies at exactly ε. Sites are
/// stacked 5 to 7 deep, interleaved: a cell holds 20 to 28 candidates,
/// more than two per lane of a k = 8 group, in runs of odd and even
/// length, and many of the 2-D hit test's candidate pairs straddle or
/// sit on the boundary.
const Input& tie_2d() {
  static const Input in(
      [] {
        Dataset ds(2);
        for (int copy = 0; copy < 7; ++copy) {
          for (int i = 0; i < 20; ++i) {
            for (int j = 0; j < 20; ++j) {
              if (copy < 5 + (3 * i + j) % 3) {
                ds.push_back(std::vector<double>{i * 0.125, j * 0.125});
              }
            }
          }
        }
        return ds;
      }(),
      0.25);
  return in;
}

/// Query points in the order a variant consumes them: id order
/// (static), non-increasing workload (SORTBYWL, and the WORKQUEUE's D′).
std::vector<PointId> query_order(const Input& in, const Variant& v) {
  if (!in.rxs() && (v.sort_by_workload || v.work_queue)) {
    return sort_by_workload(in.grid, v.pattern);
  }
  std::vector<PointId> ids(in.rxs() ? in.probe.size() : in.ds.size());
  std::iota(ids.begin(), ids.end(), PointId{0});
  if (in.rxs() && (v.sort_by_workload || v.work_queue)) {
    const std::vector<std::uint64_t> w =
        probe_point_workloads(in.grid, in.probe);
    std::stable_sort(ids.begin(), ids.end(),
                     [&w](PointId a, PointId b) { return w[a] > w[b]; });
  }
  return ids;
}

/// Launches one variant over a chosen kernel wrapper and accumulates
/// everything a launch makes observable.
template <typename Wrapper>
struct Harness {
  const Input& in;
  Variant v;
  simt::DeviceConfig dev;
  ResultSet results;
  simt::KernelStats stats;  ///< merged over launches
  std::uint64_t emitted = 0;
  std::uint64_t covered = 0;  ///< replayed lane-steps
  std::vector<simt::WarpRecord> records;

  Harness(const Input& input, const Variant& variant, bool store_pairs,
          int host_threads, int warp_size = 32)
      : in(input), v(variant), results(store_pairs) {
    dev.num_sms = 2;
    dev.warp_size = warp_size;
    dev.host.num_threads = host_threads;
  }

  /// One launch over `queries` against a `capacity`-pair buffer, with
  /// the overflow abort hook armed when the capacity is finite.
  void launch(std::span<const PointId> queries,
              std::uint64_t capacity = ResultSet::kUnlimited) {
    KernelParams p;
    p.grid = &in.grid;
    p.pattern = v.pattern;
    p.probe = in.rxs() ? &in.probe : nullptr;
    p.assignment = v.work_queue ? Assignment::WorkQueue : Assignment::Static;
    p.k = v.k;
    p.points = queries;
    p.device = &dev;
    p.results = &results;
    p.columns = in.columns;
    results.begin_batch(capacity);
    SelfJoinKernel kernel(p);
    Wrapper wrapped(kernel);
    const simt::WarpObserver observer = [this](const simt::WarpRecord& r) {
      records.push_back(r);
    };
    simt::LaunchAbort abort_hook;
    if (capacity != ResultSet::kUnlimited) {
      abort_hook = [this] { return results.batch_overflowed(); };
    }
    simt::KernelStats ks =
        simt::launch(dev, queries.size() * static_cast<std::uint64_t>(v.k),
                     wrapped, observer, abort_hook);
    ks.atomics_executed = kernel.atomics_executed();
    ks.results_emitted = kernel.results_emitted();
    stats.merge(ks);
    emitted += kernel.results_emitted();
    if constexpr (simt::WarpRunKernel<Wrapper>) {
      covered += wrapped.covered_lane_steps();
    }
  }

  /// Overflow recovery in the shape of sj/execute.cpp's static batches:
  /// an overflowing launch is rolled back and its halves re-run.
  void launch_with_recovery(std::vector<PointId> queries,
                            std::uint64_t capacity) {
    std::vector<std::vector<PointId>> work;
    work.push_back(std::move(queries));
    while (!work.empty()) {
      std::vector<PointId> batch = std::move(work.back());
      work.pop_back();
      launch(batch, capacity);
      if (!results.batch_overflowed()) continue;
      results.rollback_batch();
      const std::size_t mid = batch.size() / 2;
      work.emplace_back(batch.begin() + static_cast<std::ptrdiff_t>(mid),
                        batch.end());
      batch.resize(mid);
      work.push_back(std::move(batch));
    }
  }
};

template <typename A, typename B>
void expect_identical(const Harness<A>& ff, const Harness<B>& ref) {
  const simt::KernelStats& a = ff.stats;
  const simt::KernelStats& b = ref.stats;
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_EQ(a.aborted_launches, b.aborted_launches);
  EXPECT_EQ(a.warps_launched, b.warps_launched);
  EXPECT_EQ(a.warp_steps, b.warp_steps);
  EXPECT_EQ(a.active_lane_steps, b.active_lane_steps);
  EXPECT_EQ(a.busy_cycles, b.busy_cycles);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.tail_idle_cycles, b.tail_idle_cycles);
  EXPECT_EQ(a.atomics_executed, b.atomics_executed);
  EXPECT_EQ(a.results_emitted, b.results_emitted);
  EXPECT_EQ(ff.emitted, ref.emitted);
  EXPECT_EQ(ff.results.count(), ref.results.count());
  EXPECT_TRUE(ff.results.pairs() == ref.results.pairs())
      << "raw emission streams differ";
  ASSERT_EQ(ff.records.size(), ref.records.size());
  for (std::size_t i = 0; i < ff.records.size(); ++i) {
    const simt::WarpRecord& x = ff.records[i];
    const simt::WarpRecord& y = ref.records[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(x.warp_id, y.warp_id);
    EXPECT_EQ(x.dispatch_seq, y.dispatch_seq);
    EXPECT_EQ(x.start_cycle, y.start_cycle);
    EXPECT_EQ(x.cycles, y.cycles);
    EXPECT_EQ(x.steps, y.steps);
    EXPECT_EQ(x.active_lane_steps, y.active_lane_steps);
    EXPECT_EQ(x.slot, y.slot);
  }
}

struct InputCase {
  const char* name;
  const Input& (*get)();
};

constexpr InputCase kInputs[] = {{"Self2D", &self_2d},
                                  {"Self6D", &self_6d},
                                  {"RxS2D", &rxs_2d},
                                  {"Tie2D", &tie_2d}};

using Params = std::tuple<int, int, bool, int>;  // input, variant, store, threads

class FastForwardEquivalence : public ::testing::TestWithParam<Params> {};

TEST_P(FastForwardEquivalence, MatchesPerStepLoop) {
  const auto [input_idx, variant_idx, store, threads] = GetParam();
  const Input& in = kInputs[static_cast<std::size_t>(input_idx)].get();
  const Variant& v = kVariants[static_cast<std::size_t>(variant_idx)];
  const std::vector<PointId> queries = query_order(in, v);

  Harness<FastKernel> ff(in, v, store, threads);
  Harness<PerStepKernel> ref(in, v, store, threads);
  ff.launch(queries);
  ref.launch(queries);
  expect_identical(ff, ref);
  // The 2-D inputs are dense enough that the fast path must have run.
  if (in.ds.dims() == 2) {
    EXPECT_GT(ff.covered, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, FastForwardEquivalence,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 6),
                       ::testing::Bool(), ::testing::Values(0, 4)),
    [](const ::testing::TestParamInfo<Params>& param) {
      // std::get, not a structured binding: its commas would split the
      // macro argument.
      const Params& p = param.param;
      return std::string(kInputs[static_cast<std::size_t>(std::get<0>(p))].name) +
             "_" + kVariants[static_cast<std::size_t>(std::get<1>(p))].name +
             (std::get<2>(p) ? "_pairs" : "_count") + "_t" +
             std::to_string(std::get<3>(p));
    });

TEST(FastForward, SmallBufferOverflowsMidLaunchAndRecoversIdentically) {
  // 20,000 queries on 4-lane warps give 5,000 warps, so the abort hook
  // (polled every simt::detail::kWarpBlock warps) stops the first
  // launch mid-flight once the buffer of half the result overflows;
  // the halves then re-run. Both paths must abort, clamp, roll back and
  // recover in lockstep.
  static const Input in(gen_uniform(20000, 2, 131, 0.0, 2.0), 0.05);
  for (const std::size_t vi : {std::size_t{0}, std::size_t{4}}) {  // FULL, WQ
    const Variant& v = kVariants[vi];
    SCOPED_TRACE(v.name);
    const std::vector<PointId> queries = query_order(in, v);
    Harness<PerStepKernel> full(in, v, /*store_pairs=*/false, 0, 4);
    full.launch(queries);
    const std::uint64_t capacity = full.results.count() / 2;
    for (const int threads : {0, 3}) {
      SCOPED_TRACE(threads);
      Harness<FastKernel> ff(in, v, true, threads, 4);
      Harness<PerStepKernel> ref(in, v, true, threads, 4);
      ff.launch_with_recovery(queries, capacity);
      ref.launch_with_recovery(queries, capacity);
      EXPECT_GE(ff.stats.aborted_launches, 1u);
      EXPECT_GT(ff.covered, 0u);
      EXPECT_EQ(ff.results.count(), full.results.count());
      expect_identical(ff, ref);
    }
  }
}

/// FNV-1a over the raw emission stream, each id as 4 little-endian bytes.
std::uint64_t stream_digest(const std::vector<ResultPair>& pairs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](PointId id) {
    for (int b = 0; b < 4; ++b) {
      h ^= (id >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [a, c] : pairs) {
    mix(a);
    mix(c);
  }
  return h;
}

TEST(FastForward, GoldenCountsMatchPerStepSimulator) {
  // Recorded from the per-step simulator before the fast path existed
  // (self 2-D input, stored pairs, sequential host path).
  struct Golden {
    std::uint64_t makespan_cycles, warp_steps, active_lane_steps,
        busy_cycles, digest;
  };
  constexpr Golden kGolden[] = {
      {637310, 274638, 7845448, 9902838, 0x40083e3ad62a458dull},  // FULL
      {613470, 261424, 3936224, 9310690, 0x36caa4b29134f84dull},  // UNICOMP
      {420731, 169318, 3936224, 6170506, 0xb48a469971d2f345ull},  // LID_UNICOMP
      {604038, 247311, 7845448, 8857418, 0x9e7cedced65b85ddull},  // SORTBYWL
      {607062, 247325, 7845448, 8954754, 0x15db9fb8d9af8719ull},  // WORKQUEUE
      {305639, 130870, 4146224, 4887902, 0xa5212da2b267de05ull},  // COMBINED
  };
  static_assert(std::size(kGolden) == std::size(kVariants));
  for (std::size_t i = 0; i < std::size(kVariants); ++i) {
    const Variant& v = kVariants[i];
    SCOPED_TRACE(v.name);
    Harness<FastKernel> h(self_2d(), v, true, 0);
    h.launch(query_order(self_2d(), v));
    EXPECT_EQ(h.stats.makespan_cycles, kGolden[i].makespan_cycles);
    EXPECT_EQ(h.stats.warp_steps, kGolden[i].warp_steps);
    EXPECT_EQ(h.stats.active_lane_steps, kGolden[i].active_lane_steps);
    EXPECT_EQ(h.stats.busy_cycles, kGolden[i].busy_cycles);
    EXPECT_EQ(stream_digest(h.results.pairs()), kGolden[i].digest);
  }
}

/// Sparse uniform 6-D: 6 cells per dimension (46,656 cells for 3,000
/// points), the shape of the sparse-6d benchmark workload.
Dataset sparse_6d() { return gen_uniform(3000, 6, 141, 0.0, 6.0); }

const Input& sparse_self_6d() {
  static const Input in(sparse_6d(), 1.0);
  return in;
}

/// R×S over the sparse 6-D grid. Most probes lie outside the bounding
/// box in some dimension, reaching far enough on both sides that their
/// cell coordinates are banded to -2 and cells_per_dim + 1; the last
/// 500 lie inside.
const Input& sparse_rxs_6d() {
  static const Input in(sparse_6d(), 1.0, [] {
    Dataset probe = gen_uniform(1500, 6, 142, -2.5, 8.5);
    const Dataset inside = gen_uniform(500, 6, 143, 0.0, 6.0);
    std::vector<double> row(6);
    for (std::size_t i = 0; i < inside.size(); ++i) {
      for (int d = 0; d < 6; ++d) {
        row[static_cast<std::size_t>(d)] = inside.coord(i, d);
      }
      probe.push_back(row);
    }
    return probe;
  }());
  return in;
}

const Input& self_1d() {
  static const Input in(gen_uniform(2000, 1, 151, 0.0, 50.0), 0.1);
  return in;
}

/// kMaxDims: 4 cells per dimension, a 3^8 = 6,561-slot window.
const Input& self_8d() {
  static const Input in(gen_uniform(400, kMaxDims, 153, 0.0, 4.0), 1.0);
  return in;
}

/// 4-D with 1, 2, 1 and 30 cells per dimension: every ±1 offset in
/// dimensions 0 and 2 leaves the grid, and dimension 1 has no inner
/// cell.
const Input& narrow_4d() {
  static const Input in(
      [] {
        const double extent[] = {0.5, 1.5, 0.9, 30.0};
        Xoshiro256 rng(157);
        Dataset ds(4);
        std::vector<double> row(4);
        for (int i = 0; i < 1200; ++i) {
          for (std::size_t d = 0; d < 4; ++d) {
            row[d] = rng.uniform(0.0, extent[d]);
          }
          ds.push_back(row);
        }
        return ds;
      }(),
      1.0);
  return in;
}

TEST(NextCell, GoldenCountsMatchSlotWalk) {
  // Recorded from the odometer-decode / binary-search NextCell walk
  // (stored pairs, sequential host path); the 4-thread host path must
  // reproduce them too.
  struct Golden {
    std::uint64_t makespan_cycles, warp_steps, active_lane_steps,
        busy_cycles, digest;
  };
  struct Case {
    InputCase input;
    Golden golden[std::size(kVariants)];
  };
  const Case cases[] = {
      {{"SparseSelf6D", &sparse_self_6d},
       {{243730, 73521, 2261842, 3800630, 0x2cab7bb7ab943fedull},
        {226530, 72387, 2224421, 3519058, 0xf51648078de719bdull},
        {131602, 71258, 2224421, 2047810, 0x9665241f6d1b40a5ull},
        {239022, 70898, 2261842, 3636330, 0x91520c2454631d85ull},
        {238698, 70899, 2261842, 3733562, 0x7dd3ae77524ae57dull},
        {811919, 556122, 17554421, 12932522, 0x8ba606478a072395ull}}},
      {{"SparseRxS6D", &sparse_rxs_6d},
       {{129160, 47739, 1473503, 1658027, 0xf250aa323b0255f5ull},
        {129160, 47739, 1473503, 1658027, 0xf250aa323b0255f5ull},
        {129160, 47739, 1473503, 1658027, 0xf250aa323b0255f5ull},
        {83252, 46454, 1473503, 960299, 0x729fa9e8d2f83541ull},
        {73514, 46454, 1473503, 1024459, 0x810f85acb9635041ull},
        {390489, 368378, 11693503, 6207624, 0x762600a9cd81b461ull}}},
      {{"Self1D", &self_1d},
       {{4486, 1515, 33860, 68145, 0x826d1579103b6531ull},
        {3862, 1225, 19930, 57007, 0x9d9285ca82e7ff41ull},
        {3060, 969, 19930, 43631, 0x7c04592e669a6681ull},
        {3484, 1072, 33860, 51419, 0xe6da687b474f7ed1ull},
        {7396, 1074, 33860, 115409, 0x19194d20391ef541ull},
        {15586, 2986, 75930, 244500, 0xf9750deb56ccd2d1ull}}},
      {{"Self8D", &self_8d},
       {{297941, 85646, 2628730, 3841509, 0x80ab12542d64ccc5ull},
        {288105, 85528, 2626565, 3610857, 0x8dee2504bafbd015ull},
        {162177, 85504, 2626565, 2095657, 0x76848f6b692d5e95ull},
        {307105, 85455, 2628730, 3702961, 0x99d6cda921823dddull},
        {303665, 85464, 2628730, 3793557, 0x6371701c9698f875ull},
        {758883, 656653, 21000165, 11386596, 0xa9ebcb377bf582f5ull}}},
      {{"Narrow4D", &narrow_4d},
       {{23051, 8058, 238400, 291646, 0x5dd4efbb25bb4d89ull},
        {20255, 7560, 167800, 255214, 0x5a029041ebf9f6b5ull},
        {15835, 6518, 167800, 200318, 0x0dc14fc47f0aa78dull},
        {21323, 7561, 238400, 268278, 0x38ab825a992d91f9ull},
        {24115, 7571, 238400, 307162, 0xb823c1beef014a55ull},
        {25235, 27379, 856600, 399096, 0x0557e3dd1d1568adull}}},
  };
  for (const Case& c : cases) {
    const Input& in = c.input.get();
    for (std::size_t i = 0; i < std::size(kVariants); ++i) {
      const Variant& v = kVariants[i];
      SCOPED_TRACE(std::string(c.input.name) + " " + v.name);
      const std::vector<PointId> queries = query_order(in, v);
      for (const int threads : {0, 4}) {
        SCOPED_TRACE(threads);
        Harness<FastKernel> h(in, v, true, threads);
        h.launch(queries);
        EXPECT_EQ(h.stats.makespan_cycles, c.golden[i].makespan_cycles);
        EXPECT_EQ(h.stats.warp_steps, c.golden[i].warp_steps);
        EXPECT_EQ(h.stats.active_lane_steps, c.golden[i].active_lane_steps);
        EXPECT_EQ(h.stats.busy_cycles, c.golden[i].busy_cycles);
        EXPECT_EQ(stream_digest(h.results.pairs()), c.golden[i].digest);
      }
    }
  }
}

/// The first `n` queries of a variant's order: the 6-D edge tests keep
/// their per-step references short.
std::vector<PointId> first_queries(const Input& in, const Variant& v,
                                   std::size_t n) {
  std::vector<PointId> q = query_order(in, v);
  q.resize(std::min(q.size(), n));
  return q;
}

using ShapeParams = std::tuple<int, int, int>;  // warp size, k, threads

class FastForwardWarpShape : public ::testing::TestWithParam<ShapeParams> {};

TEST_P(FastForwardWarpShape, MatchesPerStepLoop) {
  // Cooperative groups of k lanes in narrow warps: several groups per
  // warp, each walking its window once, on the dense 2-D and the
  // sparse 6-D inputs, with pairs stored and counted.
  const auto [warp_size, k, threads] = GetParam();
  const InputCase inputs[] = {{"Self2D", &self_2d},
                              {"SparseSelf6D", &sparse_self_6d},
                              {"SparseRxS6D", &sparse_rxs_6d}};
  for (const InputCase& ic : inputs) {
    const Input& in = ic.get();
    for (const std::size_t vi : {std::size_t{0}, std::size_t{1},
                                 std::size_t{5}}) {  // FULL, UNICOMP, COMBINED
      Variant v = kVariants[vi];
      v.k = k;
      SCOPED_TRACE(std::string(ic.name) + " " + v.name);
      const std::vector<PointId> queries =
          first_queries(in, v, in.ds.dims() == 2 ? 1500 : 400);
      for (const bool store : {true, false}) {
        Harness<FastKernel> ff(in, v, store, threads, warp_size);
        Harness<PerStepKernel> ref(in, v, store, threads, warp_size);
        ff.launch(queries);
        ref.launch(queries);
        expect_identical(ff, ref);
        EXPECT_EQ(ff.covered, ff.stats.active_lane_steps);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NarrowWarps, FastForwardWarpShape,
    ::testing::Combine(::testing::Values(8, 16), ::testing::Values(2, 4, 8),
                       ::testing::Values(0, 4)),
    [](const ::testing::TestParamInfo<ShapeParams>& param) {
      const ShapeParams& p = param.param;
      std::string name = "w";
      name += std::to_string(std::get<0>(p));
      name += "_k";
      name += std::to_string(std::get<1>(p));
      name += "_t";
      name += std::to_string(std::get<2>(p));
      return name;
    });

TEST(FastForward, StepCostFollowsTheDeviceCostOrder) {
  // Cost tables whose class order matches neither default (2-D: probe >
  // dist+emit > dist > check+emit > check > retire; 6-D: dist first): a
  // pattern check dearer than a distance with free emits, and a free
  // check, cheaper than the retire step. A fixed class order charges
  // mixed steps the wrong lane's cost.
  struct Costs {
    std::uint32_t check, probe, dist_base, dist_per_dim, emit;
  };
  constexpr Costs kTables[] = {{100, 3, 5, 1, 0}, {0, 50, 1, 0, 0}};
  const InputCase inputs[] = {{"Self2D", &self_2d},
                              {"SparseSelf6D", &sparse_self_6d},
                              {"SparseRxS6D", &sparse_rxs_6d}};
  for (const Costs& c : kTables) {
    for (const InputCase& ic : inputs) {
      const Input& in = ic.get();
      for (const std::size_t vi : {std::size_t{0}, std::size_t{2},
                                   std::size_t{5}}) {  // FULL, LID, COMBINED
        const Variant& v = kVariants[vi];
        SCOPED_TRACE(std::string(ic.name) + " " + v.name + " check " +
                     std::to_string(c.check));
        const std::vector<PointId> queries =
            first_queries(in, v, in.ds.dims() == 2 ? 1000 : 300);
        for (const int threads : {0, 4}) {
          Harness<FastKernel> ff(in, v, true, threads);
          Harness<PerStepKernel> ref(in, v, true, threads);
          for (simt::DeviceConfig* dev : {&ff.dev, &ref.dev}) {
            dev->cost_pattern_check = c.check;
            dev->cost_cell_probe = c.probe;
            dev->cost_dist_base = c.dist_base;
            dev->cost_dist_per_dim = c.dist_per_dim;
            dev->cost_emit = c.emit;
          }
          ff.launch(queries);
          ref.launch(queries);
          expect_identical(ff, ref);
          EXPECT_EQ(ff.covered, ff.stats.active_lane_steps);
        }
      }
    }
  }
}

/// Dense uniform 6-D: 5 cells per dimension and about 0.8 points per
/// cell, so most slots of a window hold a one-point cell. With k = 2 a
/// group's lane 1 skips every such cell while lane 0 scans it, so lane
/// 1 runs far ahead and the group's ring (1024 / 16 groups = 64 cells)
/// cannot keep every cell lane 0 has yet to pass.
const Input& dense_self_6d() {
  static const Input in(gen_uniform(12000, 6, 161, 0.0, 5.0), 1.0);
  return in;
}

TEST(FastForward, LaneLeftBehindByItsGroupRingWalksAlone) {
  const Input& in = dense_self_6d();
  for (const std::size_t vi : {std::size_t{0}, std::size_t{5}}) {  // FULL, COMBINED
    Variant v = kVariants[vi];
    v.k = 2;
    SCOPED_TRACE(v.name);
    const std::vector<PointId> queries = first_queries(in, v, 256);
    for (const bool store : {true, false}) {
      for (const int threads : {0, 4}) {
        Harness<FastKernel> ff(in, v, store, threads);
        Harness<PerStepKernel> ref(in, v, store, threads);
        ff.launch(queries);
        ref.launch(queries);
        expect_identical(ff, ref);
      }
    }
  }
}

TEST(NextCell, ReplayCoversEveryLaneStep) {
  // Every warp runs through run_warp: no lane-step is left to the
  // lockstep loop, NextCell steps included.
  for (const InputCase& ic : {InputCase{"SparseSelf6D", &sparse_self_6d},
                              InputCase{"SparseRxS6D", &sparse_rxs_6d}}) {
    const Input& in = ic.get();
    for (const Variant& v : kVariants) {
      SCOPED_TRACE(std::string(ic.name) + " " + v.name);
      Harness<FastKernel> h(in, v, false, 0);
      h.launch(query_order(in, v));
      EXPECT_GT(h.stats.active_lane_steps, 0u);
      EXPECT_EQ(h.covered, h.stats.active_lane_steps);
    }
  }
}

TEST(NextCell, AcceptedMaskMatchesSlotTests) {
  // SlotTable::accepted(o, w) against in_bounds && accepts, slot by
  // slot, for grid cells and for R×S probe centres banded around the
  // grid.
  const InputCase inputs[] = {{"SparseRxS6D", &sparse_rxs_6d},
                              {"Self1D", &self_1d},
                              {"Self8D", &self_8d},
                              {"Narrow4D", &narrow_4d}};
  for (const InputCase& ic : inputs) {
    const Input& in = ic.get();
    const GridIndex& g = in.grid;
    std::vector<CellCoords> origins;
    for (std::size_t ci = 0; ci < std::min<std::size_t>(g.cells().size(), 300);
         ++ci) {
      origins.push_back(g.decode(g.cells()[ci].linear_id));
    }
    for (std::size_t q = 0; q < std::min<std::size_t>(in.probe.size(), 300);
         ++q) {
      CellCoords oc;
      for (int d = 0; d < g.dims(); ++d) {
        oc[d] = g.probe_cell_coord(in.probe.coord(q, d), d);
      }
      origins.push_back(oc);
    }
    for (const CellPattern pattern :
         {CellPattern::Full, CellPattern::Unicomp, CellPattern::LidUnicomp}) {
      SCOPED_TRACE(std::string(ic.name) + " " + to_string(pattern));
      const SlotTable table(g, pattern);
      ASSERT_EQ(table.words(), (table.size() + 63) / 64);
      ASSERT_LE(table.words(), SlotTable::kMaxWords);
      for (const CellCoords& oc : origins) {
        const SlotTable::Origin o = table.origin(oc);
        for (std::uint32_t w = 0; w < table.words(); ++w) {
          const std::uint64_t m = table.accepted(o, w);
          for (std::uint32_t b = 0; b < 64; ++b) {
            const std::uint32_t i = w * 64 + b;
            const bool want = i < table.size() &&
                              SlotTable::in_bounds(table[i], o) &&
                              SlotTable::accepts(table[i], o);
            ASSERT_EQ(((m >> b) & 1) != 0, want) << "slot " << i;
            ASSERT_EQ(((table.centre_bit(w) >> b) & 1) != 0,
                      i == table.centre())
                << "slot " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gsj
