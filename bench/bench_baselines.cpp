// Extra (beyond the paper's figures): the related-work baseline shoot-
// out the paper's §II-B surveys — k-d tree (tree indexing), Morton
// curve (space-filling-curve indexing, LSS-style but exact), parallel
// CPU grid join, SUPER-EGO, and the simulated-GPU WQ+LID+k8 — on one
// skewed synthetic and one real-world-like dataset. Every method must
// find the same pairs on a dataset; the bench exits 1 when one does not.
#include <iostream>
#include <string>
#include <vector>

#include "baselines/kdtree.hpp"
#include "baselines/morton.hpp"
#include "baselines/rtree.hpp"
#include "common/timer.hpp"
#include "harness.hpp"
#include "sj/reference.hpp"

int main(int argc, char** argv) {
  gsj::Cli cli(argc, argv);
  const auto opt = gsj::bench::parse_common(cli);
  gsj::bench::banner("baselines",
                     "related-work baselines (§II-B): k-d tree, Morton "
                     "curve, grid CPU, SUPER-EGO vs simulated GPU",
                     opt);

  gsj::Table t({"dataset", "eps", "method", "time(s)", "dist calcs",
                "pairs"});
  t.set_precision(4);
  std::vector<std::string> disagreements;
  for (const char* name : {"Expo2D2M", "SW2DA"}) {
    const gsj::Dataset ds = gsj::bench::load_dataset(name, opt);
    gsj::bench::GpuRunner gpu(ds, opt);
    const double eps = gsj::bench::table_epsilon(name, ds.size());

    std::string first_method;
    std::uint64_t first_pairs = 0;
    const auto row = [&](const std::string& method, double seconds,
                         std::int64_t dist_calcs, std::uint64_t pairs) {
      t.add_row({std::string(name), eps, method, seconds, dist_calcs,
                 static_cast<std::int64_t>(pairs)});
      if (first_method.empty()) {
        first_method = method;
        first_pairs = pairs;
      } else if (pairs != first_pairs) {
        disagreements.push_back(method + " on " + name + ": " +
                                std::to_string(pairs) + " pairs, " +
                                first_method + ": " +
                                std::to_string(first_pairs));
      }
    };
    const auto cpu_row = [&](const std::string& method,
                             const gsj::CpuJoinOutput& out) {
      row(method, out.stats.build_seconds + out.stats.join_seconds,
          static_cast<std::int64_t>(out.stats.distance_calcs),
          out.stats.result_pairs);
    };

    cpu_row("k-d tree (CPU)", gsj::kdtree_self_join(ds, eps, opt.ego_threads));
    cpu_row("R-tree (CPU)", gsj::rtree_self_join(ds, eps, opt.ego_threads));
    cpu_row("Morton curve (CPU)",
            gsj::morton_self_join(ds, eps, opt.ego_threads));
    {
      gsj::Timer timer;
      const gsj::GridIndex grid(ds, eps);
      const gsj::ResultSet rs =
          gsj::cpu_grid_join_parallel(grid, opt.ego_threads, false);
      row("grid join (CPU)", timer.seconds(), -1, rs.count());
    }
    const auto ego = gsj::bench::run_superego(ds, eps, opt);
    row("SUPER-EGO (CPU)", ego.seconds, -1, ego.pairs);
    const auto sim = gpu.run(gsj::SelfJoinConfig::combined(eps));
    row("WQ+LID+k8 (GPU model)", sim.seconds, -1, sim.pairs);
  }
  gsj::bench::finish("baselines", t, opt);
  if (disagreements.empty()) {
    std::cout << "All methods agree on `pairs` on every dataset.\n";
    return 0;
  }
  for (const std::string& d : disagreements) {
    std::cerr << "bench_baselines: pair counts disagree: " << d << '\n';
  }
  return 1;
}
