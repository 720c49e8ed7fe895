// Quickstart: run the optimized self-join on a small skewed dataset,
// compare against the GPUCALCGLOBAL baseline and the SUPER-EGO CPU
// algorithm, and print neighbor statistics.
//
//   ./quickstart [--n 20000] [--dims 2] [--epsilon 0.02] [--seed 1]
#include <iostream>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "data/generators.hpp"
#include "sj/engine.hpp"
#include "sj/neighbor_table.hpp"
#include "superego/super_ego.hpp"

int main(int argc, char** argv) {
  gsj::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(
      cli.get_int("n", 20000, "number of points"));
  const int dims = static_cast<int>(cli.get_int("dims", 2, "dimensions"));
  const double eps = cli.get_double("epsilon", 0.02, "join radius");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1, ""));
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }

  // Exponentially distributed points: a dense corner plus a sparse
  // tail — the workload skew the paper's optimizations target.
  const gsj::Dataset ds = gsj::gen_exponential(n, dims, seed);
  std::cout << "dataset: " << ds.describe() << "\n\n";

  // Both variants run at the same epsilon, so one engine builds the
  // grid once and the second run reuses it from the plan cache.
  gsj::JoinEngine engine;
  gsj::PreparedDataset prep = engine.prepare(ds);

  // 1. Baseline GPU kernel of [18]: one thread per point, full pattern.
  const auto base = engine.run(prep, gsj::SelfJoinConfig::gpu_calc_global(eps));

  // 2. This paper's combination: WORKQUEUE + LID-UNICOMP + k=8.
  gsj::SelfJoinConfig cfg = gsj::SelfJoinConfig::combined(eps);
  cfg.store_pairs = true;  // keep pairs to show neighbor statistics
  const auto opt = engine.run(prep, cfg);

  // 3. CPU comparator.
  gsj::SuperEgoConfig ecfg;
  ecfg.epsilon = eps;
  const auto ego = gsj::super_ego_join(ds, ecfg);

  std::cout << "result pairs (all three agree): " << opt.results.count()
            << " / " << base.results.count() << " / " << ego.results.count()
            << "\n\n";

  std::cout << "GPUCALCGLOBAL   : " << base.stats.kernel_seconds << " s (model), WEE "
            << base.stats.wee_percent() << "%, batches "
            << base.stats.num_batches << "\n";
  std::cout << "WQ+LID+k8       : " << opt.stats.kernel_seconds << " s (model), WEE "
            << opt.stats.wee_percent() << "%, batches "
            << opt.stats.num_batches << "\n";
  std::cout << "SUPER-EGO (CPU) : " << ego.stats.seconds << " s (wall), "
            << ego.stats.distance_calcs << " distance calcs\n\n";
  std::cout << "modeled speedup vs GPUCALCGLOBAL: "
            << base.stats.kernel_seconds / opt.stats.kernel_seconds << "x\n\n";

  // Neighborhood size distribution — the source of the load imbalance.
  const gsj::NeighborTable table(opt.results, ds.size());
  std::vector<double> degs(ds.size());
  for (std::size_t p = 0; p < ds.size(); ++p) {
    degs[p] = static_cast<double>(table.degree(static_cast<gsj::PointId>(p)));
  }
  const gsj::Summary s = gsj::summarize(degs);
  std::cout << "neighbors per point: min " << s.min << ", median " << s.median
            << ", mean " << s.mean << ", p99 " << s.p99 << ", max " << s.max
            << "\n";
  return 0;
}
