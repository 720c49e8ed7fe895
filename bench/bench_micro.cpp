// google-benchmark micro benchmarks of the host-side substrates: grid
// construction, non-empty-cell lookup, workload quantification,
// EGO-sort, and the distance inner loop — plus the warp-observer
// zero-overhead guard of simt::launch.
#include <benchmark/benchmark.h>

#include "common/thread_pool.hpp"
#include "data/generators.hpp"
#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "simt/launch.hpp"
#include "sj/reference.hpp"
#include "sj/selfjoin.hpp"
#include "superego/super_ego.hpp"

namespace {

void BM_GridBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int dims = static_cast<int>(state.range(1));
  const gsj::Dataset ds = gsj::gen_uniform(n, dims, 7);
  for (auto _ : state) {
    gsj::GridIndex g(ds, 2.0);
    benchmark::DoNotOptimize(g.cells().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GridBuild)->Args({10000, 2})->Args({10000, 6})->Args({100000, 2});

void BM_CellLookup(benchmark::State& state) {
  const gsj::Dataset ds = gsj::gen_uniform(50000, 3, 8);
  const gsj::GridIndex g(ds, 2.0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto& cell = g.cells()[i % g.cells().size()];
    benchmark::DoNotOptimize(g.find_cell(cell.linear_id));
    ++i;
  }
}
BENCHMARK(BM_CellLookup);

void BM_WorkloadQuantification(benchmark::State& state) {
  const gsj::Dataset ds = gsj::gen_exponential(50000, 2, 9);
  const gsj::GridIndex g(ds, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gsj::point_workloads(g, gsj::CellPattern::LidUnicomp));
  }
}
BENCHMARK(BM_WorkloadQuantification);

void BM_NeighborCounts(benchmark::State& state) {
  const gsj::Dataset ds = gsj::gen_uniform(20000, 2, 10);
  const gsj::GridIndex g(ds, 1.0);
  std::vector<gsj::PointId> sample;
  for (gsj::PointId p = 0; p < ds.size(); p += 100) sample.push_back(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gsj::neighbor_counts(g, ds, sample));
  }
}
BENCHMARK(BM_NeighborCounts);

void BM_SuperEgo(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const gsj::Dataset ds = gsj::gen_uniform(n, 2, 11);
  gsj::SuperEgoConfig cfg;
  cfg.epsilon = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gsj::super_ego_join(ds, cfg).stats.result_pairs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SuperEgo)->Arg(10000)->Arg(50000);

/// Single-step kernel: per-warp scheduling/observer overhead dominates.
struct NopKernel {
  struct LaneState {};
  gsj::simt::InitResult init_lane(LaneState&, const gsj::simt::LaneCtx&,
                                  gsj::simt::WarpScratch&) {
    return {true, 1};
  }
  gsj::simt::StepResult step(LaneState&) { return {false, 1}; }
};

/// Arg 0: observer unset — the guard in simt::launch must skip both the
/// std::function call and the WarpRecord construction, so this arm
/// matches pre-observability launch cost. Arg 1: observer set.
void BM_LaunchObserver(benchmark::State& state) {
  const bool with_observer = state.range(0) != 0;
  gsj::simt::DeviceConfig dev;
  dev.num_sms = 4;
  std::uint64_t sink = 0;
  gsj::simt::WarpObserver observer;
  if (with_observer) {
    observer = [&sink](const gsj::simt::WarpRecord& r) { sink += r.cycles; };
  }
  NopKernel k;
  const std::uint64_t nthreads = 32ull * 8192;
  for (auto _ : state) {
    const auto ks = gsj::simt::launch(dev, nthreads, k, observer);
    benchmark::DoNotOptimize(ks.busy_cycles);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nthreads / 32));
  state.SetLabel(with_observer ? "observer=set" : "observer=unset");
}
BENCHMARK(BM_LaunchObserver)->Arg(0)->Arg(1);

/// End-to-end self-join wall time vs `--host-threads` (Arg 0 =
/// sequential path). Results are bit-identical across arms; only the
/// wall time may differ. Speedup saturates at the machine's core count.
void BM_JoinHostThreads(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  const gsj::Dataset ds = gsj::gen_exponential(30000, 2, 13);
  gsj::SelfJoinConfig cfg = gsj::SelfJoinConfig::combined(0.1);
  cfg.store_pairs = false;
  cfg.collect_diagnostics = false;
  cfg.device.host.num_threads = threads;
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    pairs = gsj::self_join(ds, cfg).stats.result_pairs;
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.size()));
  state.SetLabel("host_threads=" + std::to_string(threads) +
                 " pairs=" + std::to_string(pairs));
}
BENCHMARK(BM_JoinHostThreads)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
