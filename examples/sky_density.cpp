// Sky-density analysis on a Gaia-like star catalog: for every star,
// the number of neighbors within an angular radius — the raw self-join
// output as a local-density estimator — plus interactive range queries
// at chosen sky positions.
//
//   ./sky_density [--n 100000] [--epsilon 0.6]
#include <iostream>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "data/generators.hpp"
#include "grid/grid_index.hpp"
#include "sj/engine.hpp"
#include "sj/neighbor_table.hpp"

int main(int argc, char** argv) {
  gsj::Cli cli(argc, argv);
  const auto n =
      static_cast<std::size_t>(cli.get_int("n", 100000, "catalog size"));
  const double eps =
      cli.get_double("epsilon", 0.6, "angular radius (degrees)");
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }

  const gsj::Dataset sky = gsj::gen_gaia_like(n, 42);
  std::cout << "catalog: " << sky.describe() << "\n";

  // A catalog service answers many density queries over one loaded
  // catalog, so hold it in an engine-prepared form.
  gsj::JoinEngine engine;
  gsj::PreparedDataset prep = engine.prepare(sky);
  gsj::SelfJoinConfig cfg = gsj::SelfJoinConfig::combined(eps);
  cfg.store_pairs = true;
  const gsj::SelfJoinOutput out = engine.run(prep, cfg);
  const gsj::NeighborTable nt(out.results, n);

  std::vector<double> density(n);
  for (gsj::PointId p = 0; p < n; ++p) {
    density[p] = static_cast<double>(nt.degree(p));
  }
  const gsj::Summary s = gsj::summarize(density);
  std::cout << "neighbors within " << eps << " deg: median " << s.median
            << ", mean " << s.mean << ", p99 " << s.p99 << ", max " << s.max
            << "\n";
  std::cout << "join: " << out.stats.result_pairs << " pairs, "
            << out.stats.num_batches << " batches, modeled "
            << out.stats.kernel_seconds << " s, WEE "
            << out.stats.wee_percent() << "%\n\n";

  // Density vs galactic latitude: the plane over-density the catalog
  // models, binned in 15-degree latitude bands.
  std::vector<double> band_sum(12, 0.0);
  std::vector<std::uint64_t> band_cnt(12, 0);
  for (gsj::PointId p = 0; p < n; ++p) {
    const double b = sky.coord(p, 1);
    auto band = static_cast<std::size_t>((b + 90.0) / 15.0);
    if (band >= 12) band = 11;
    band_sum[band] += density[p];
    band_cnt[band] += 1;
  }
  std::cout << "mean local density by galactic latitude band:\n";
  for (std::size_t band = 0; band < 12; ++band) {
    const double lo = -90.0 + 15.0 * static_cast<double>(band);
    const double mean =
        band_cnt[band] ? band_sum[band] / static_cast<double>(band_cnt[band])
                       : 0.0;
    std::cout << "  [" << lo << ", " << lo + 15.0 << ") deg: " << mean
              << "\n";
  }

  // Point-in-sky range queries through the same grid index.
  const gsj::GridIndex grid(sky, eps);
  const double galactic_center[] = {0.0, 0.0};
  const double pole[] = {0.0, 89.0};
  std::cout << "\nstars within " << eps << " deg of the galactic center: "
            << gsj::range_query(grid, galactic_center).size() << "\n";
  std::cout << "stars within " << eps << " deg of the north galactic pole: "
            << gsj::range_query(grid, pole).size() << "\n";
  return 0;
}
