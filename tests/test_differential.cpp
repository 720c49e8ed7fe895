// Randomized differential harness: every execution path in the repo
// against the brute-force oracle, over seed-driven adversarial
// datasets (tests/support/oracle.hpp).
//
// A failure prints the full (seed, family, n, dims, eps) tuple plus the
// variant/path name — paste the seed into make_adversarial_case to
// reproduce the exact dataset. ctest runs these under the
// `differential` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/kdtree.hpp"
#include "baselines/morton.hpp"
#include "baselines/rtree.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/churn.hpp"
#include "grid/grid_index.hpp"
#include "obs/context.hpp"
#include "sj/delta.hpp"
#include "sj/engine.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"
#include "superego/super_ego.hpp"
#include "support/oracle.hpp"

namespace gsj {
namespace {

using testsupport::AdversarialCase;
using testsupport::all_variants;
using testsupport::make_adversarial_case;

void expect_pairs_match(const ResultSet& got, const ResultSet& want,
                        const AdversarialCase& c, const std::string& path) {
  ASSERT_EQ(got.pairs().size(), want.pairs().size())
      << path << " " << c.describe();
  EXPECT_EQ(got.pairs(), want.pairs()) << path << " " << c.describe();
}

// ---------------------------------------------------------------------------
// All six GPU variants through the public one-shot path (which rides
// the shared JoinService): 40 seeds x 6 variants = 240 differential
// cases, one test per variant so a failure names its variant in the
// ctest output too.

void variant_vs_oracle(std::size_t variant_index) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    auto variants = all_variants(c.epsilon);
    auto& [name, cfg] = variants[variant_index];
    cfg.store_pairs = true;
    const SelfJoinOutput out = self_join(c.dataset, cfg);
    expect_pairs_match(out.results, truth, c, name);
    EXPECT_EQ(out.stats.result_pairs, truth.pairs().size())
        << name << " " << c.describe();
  }
}

TEST(Differential, GpuCalcGlobalMatchesBruteForce) { variant_vs_oracle(0); }
TEST(Differential, UnicompMatchesBruteForce) { variant_vs_oracle(1); }
TEST(Differential, LidUnicompMatchesBruteForce) { variant_vs_oracle(2); }
TEST(Differential, SortByWlMatchesBruteForce) { variant_vs_oracle(3); }
TEST(Differential, WorkQueueMatchesBruteForce) { variant_vs_oracle(4); }
TEST(Differential, CombinedMatchesBruteForce) { variant_vs_oracle(5); }

TEST(Differential, WorkQueueHigherKMatchesBruteForce) {
  // k in {2, 4, 8}: every thread-per-point fan-out against the oracle.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    for (const int k : {2, 4, 8}) {
      SelfJoinConfig cfg = SelfJoinConfig::work_queue_cfg(c.epsilon, k);
      cfg.store_pairs = true;
      const SelfJoinOutput out = self_join(c.dataset, cfg);
      expect_pairs_match(out.results, truth, c,
                         "WORKQUEUE k=" + std::to_string(k));
    }
  }
}

// ---------------------------------------------------------------------------
// Engine path: cold and cache-warm runs against the same oracle (a
// warm-cache divergence is a plan-cache bug, not a kernel bug).

TEST(Differential, EngineColdAndWarmRunsMatchOracle) {
  for (std::uint64_t seed = 41; seed <= 48; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    JoinEngine engine;
    PreparedDataset prep = engine.prepare(c.dataset);
    for (auto& [name, cfg] : all_variants(c.epsilon)) {
      cfg.store_pairs = true;
      const SelfJoinOutput cold = engine.run(prep, cfg);
      expect_pairs_match(cold.results, truth, c, name + "/cold");
      const SelfJoinOutput warm = engine.run(prep, cfg);
      expect_pairs_match(warm.results, truth, c, name + "/warm");
    }
  }
}

// ---------------------------------------------------------------------------
// Service paths: synchronous run() against a shared dataset and the
// queued submit() path, same oracle.

TEST(Differential, ServiceRunMatchesOracle) {
  for (std::uint64_t seed = 49; seed <= 56; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    JoinService svc;
    const auto sd = svc.attach(c.dataset);
    for (auto& [name, cfg] : all_variants(c.epsilon)) {
      cfg.store_pairs = true;
      const SelfJoinOutput out = svc.run(*sd, cfg);
      expect_pairs_match(out.results, truth, c, name + "/service");
    }
  }
}

TEST(Differential, ServiceSubmitMatchesOracle) {
  for (std::uint64_t seed = 57; seed <= 60; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    ServiceConfig scfg;
    scfg.workers = 2;
    JoinService svc(scfg);
    const auto sd = svc.attach(c.dataset);
    std::vector<JoinService::Ticket> tickets;
    auto variants = all_variants(c.epsilon);
    for (auto& [name, cfg] : variants) {
      cfg.store_pairs = true;
      JoinRequest req;
      req.config = cfg;
      tickets.push_back(svc.submit(sd, req));
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      JoinResponse r = tickets[i].get();
      ASSERT_EQ(r.status, JoinStatus::Ok)
          << variants[i].first << " " << c.describe() << ": " << r.error;
      expect_pairs_match(r.output.results, truth, c,
                         variants[i].first + "/submit");
    }
  }
}

// ---------------------------------------------------------------------------
// Host-parallel execution over adversarial datasets (the simulator on
// worker threads must not change results).

TEST(Differential, HostParallelMatchesOracle) {
  for (std::uint64_t seed = 61; seed <= 64; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    for (auto& [name, cfg] : all_variants(c.epsilon)) {
      cfg.store_pairs = true;
      cfg.device.host.num_threads = 4;
      const SelfJoinOutput out = self_join(c.dataset, cfg);
      expect_pairs_match(out.results, truth, c, name + "/mt4");
    }
  }
}

// ---------------------------------------------------------------------------
// Related-work baselines (src/baselines/) against the same oracle.

// The pair collector's other paths for one CPU comparator, `join(c,
// threads, store_pairs)`: count-only, and 5 threads, whose 40 chunks
// outnumber a `tiny` case's points, so empty chunks run.
template <typename Join>
void expect_collector_paths_match(const Join& join, const ResultSet& truth,
                                  const AdversarialCase& c,
                                  const std::string& path) {
  EXPECT_EQ(join(c, 2, false).count(), truth.pairs().size())
      << path << " count-only " << c.describe();
  expect_pairs_match(join(c, 5, true), truth, c, path + " 5 threads");
}

ResultSet kdtree_results(const AdversarialCase& c, std::size_t threads,
                         bool store_pairs) {
  return kdtree_self_join(c.dataset, c.epsilon, threads, store_pairs).results;
}

ResultSet rtree_results(const AdversarialCase& c, std::size_t threads,
                        bool store_pairs) {
  return rtree_self_join(c.dataset, c.epsilon, threads, store_pairs).results;
}

ResultSet morton_results(const AdversarialCase& c, std::size_t threads,
                         bool store_pairs) {
  return morton_self_join(c.dataset, c.epsilon, threads, store_pairs).results;
}

TEST(Differential, KdTreeJoinMatchesOracle) {
  for (std::uint64_t seed = 65; seed <= 76; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    const auto out = kdtree_self_join(c.dataset, c.epsilon, /*nthreads=*/2,
                                      /*store_pairs=*/true);
    expect_pairs_match(out.results, truth, c, "kdtree");
    EXPECT_EQ(out.stats.result_pairs, truth.pairs().size()) << c.describe();
    expect_collector_paths_match(kdtree_results, truth, c, "kdtree");
  }
}

TEST(Differential, RTreeJoinMatchesOracle) {
  for (std::uint64_t seed = 77; seed <= 88; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    const auto out = rtree_self_join(c.dataset, c.epsilon, /*nthreads=*/2,
                                     /*store_pairs=*/true);
    expect_pairs_match(out.results, truth, c, "rtree");
    EXPECT_EQ(out.stats.result_pairs, truth.pairs().size()) << c.describe();
    expect_collector_paths_match(rtree_results, truth, c, "rtree");
  }
}

TEST(Differential, MortonJoinMatchesOracle) {
  for (std::uint64_t seed = 89; seed <= 100; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    const auto out = morton_self_join(c.dataset, c.epsilon, /*nthreads=*/2,
                                      /*store_pairs=*/true);
    expect_pairs_match(out.results, truth, c, "morton");
    EXPECT_EQ(out.stats.result_pairs, truth.pairs().size()) << c.describe();
    expect_collector_paths_match(morton_results, truth, c, "morton");
  }
}

// ---------------------------------------------------------------------------
// CPU baselines: SUPER-EGO and the parallel CPU grid join share the
// same ordered-pair semantics, so the same oracle applies.

TEST(Differential, SuperEgoMatchesOracle) {
  for (std::uint64_t seed = 101; seed <= 110; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    SuperEgoConfig cfg;
    cfg.epsilon = c.epsilon;
    cfg.nthreads = 2;
    cfg.store_pairs = true;
    const auto out = super_ego_join(c.dataset, cfg);
    expect_pairs_match(out.results, truth, c, "superego");
  }
}

TEST(Differential, CpuGridJoinParallelMatchesOracle) {
  for (std::uint64_t seed = 111; seed <= 120; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    const GridIndex grid(c.dataset, c.epsilon, /*pool=*/nullptr);
    const ResultSet out = cpu_grid_join_parallel(grid, /*nthreads=*/3,
                                                 /*store_pairs=*/true);
    expect_pairs_match(out, truth, c, "cpu_grid_parallel");
    expect_collector_paths_match(
        [&grid](const AdversarialCase&, std::size_t threads, bool store) {
          return cpu_grid_join_parallel(grid, threads, store);
        },
        truth, c, "cpu_grid_parallel");
  }
}

// ---------------------------------------------------------------------------
// Cross-path agreement: the one-shot wrapper, an explicit engine and a
// service must be indistinguishable on the same request.

TEST(Differential, OneShotEngineAndServiceAgree) {
  for (std::uint64_t seed = 121; seed <= 126; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    SelfJoinConfig cfg = SelfJoinConfig::combined(c.epsilon);
    cfg.store_pairs = true;
    const SelfJoinOutput one_shot = self_join(c.dataset, cfg);
    JoinEngine engine;
    const SelfJoinOutput via_engine = engine.self_join(c.dataset, cfg);
    JoinService svc;
    const auto sd = svc.attach(c.dataset);
    const SelfJoinOutput via_service = svc.run(*sd, cfg);
    EXPECT_EQ(one_shot.results.pairs(), via_engine.results.pairs())
        << c.describe();
    EXPECT_EQ(one_shot.results.pairs(), via_service.results.pairs())
        << c.describe();
    EXPECT_EQ(one_shot.stats.kernel.busy_cycles,
              via_service.stats.kernel.busy_cycles)
        << c.describe();
  }
}

// ---------------------------------------------------------------------------
// Directed edge cases the seed-driven families can't hit by
// construction.

TEST(Differential, DuplicatePilesCountExactly) {
  // 5 piles of 20 exact duplicates, far apart: every pile contributes
  // 20*20 ordered pairs (self included), nothing crosses piles.
  Dataset ds(2);
  const double eps = 0.1;
  for (int site = 0; site < 5; ++site) {
    const double p[] = {static_cast<double>(site) * 10.0, 0.0};
    for (int i = 0; i < 20; ++i) ds.push_back(p);
  }
  const ResultSet truth = brute_force_join(ds, eps);
  ASSERT_EQ(truth.pairs().size(), 5u * 20u * 20u);
  for (auto& [name, cfg] : all_variants(eps)) {
    cfg.store_pairs = true;
    const SelfJoinOutput out = self_join(ds, cfg);
    ASSERT_EQ(out.results.pairs().size(), truth.pairs().size()) << name;
    EXPECT_EQ(out.results.pairs(), truth.pairs()) << name;
  }
}

TEST(Differential, EpsilonLatticeMatchesBruteForce) {
  // A 6x6 lattice with spacing exactly eps: every lateral neighbor sits
  // at distance == eps and every point on a cell corner — the maximal
  // boundary-condition stress for the grid.
  Dataset ds(2);
  const double eps = 0.25;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      const double p[] = {i * eps, j * eps};
      ds.push_back(p);
    }
  }
  const ResultSet truth = brute_force_join(ds, eps);
  for (auto& [name, cfg] : all_variants(eps)) {
    cfg.store_pairs = true;
    const SelfJoinOutput out = self_join(ds, cfg);
    ASSERT_EQ(out.results.pairs().size(), truth.pairs().size()) << name;
    EXPECT_EQ(out.results.pairs(), truth.pairs()) << name;
  }
}

TEST(Differential, EmptyDatasetThrowsEverywhere) {
  const Dataset empty(2);
  for (auto& [name, cfg] : all_variants(0.1)) {
    EXPECT_THROW((void)self_join(empty, cfg), CheckError) << name;
  }
  JoinService svc;
  const auto sd = svc.attach(empty);
  EXPECT_THROW((void)svc.run(*sd, SelfJoinConfig::combined(0.1)), CheckError);
}

TEST(Differential, SinglePointYieldsOnlySelfPair) {
  Dataset ds(3);
  const double p[] = {1.0, 2.0, 3.0};
  ds.push_back(p);
  for (auto& [name, cfg] : all_variants(0.5)) {
    cfg.store_pairs = true;
    const SelfJoinOutput out = self_join(ds, cfg);
    ASSERT_EQ(out.results.pairs().size(), 1u) << name;
    EXPECT_EQ(out.results.pairs()[0], ResultPair(0, 0)) << name;
  }
}

// ---------------------------------------------------------------------------
// Result-cache ε-subsumption (docs/SERVICE.md): a cached ε answer with
// stored pairs serves any ε' <= ε through the dist² <= ε'² filter. The
// served pairs must match the cold brute-force oracle at ε' exactly —
// across every adversarial dataset family, including the boundary
// family whose points sit at exact ε distances.

TEST(Differential, SubsumptionServesSmallerEpsilonAcrossFamilies) {
  for (std::uint64_t seed = 127; seed <= 134; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    JoinService svc;
    const auto sd = svc.attach(c.dataset);

    // Warm the result cache with the full-ε answer (pairs stored).
    JoinRequest warm;
    warm.config = SelfJoinConfig::combined(c.epsilon);
    warm.config.store_pairs = true;
    const JoinResponse full = svc.submit(sd, warm).get();
    ASSERT_EQ(full.status, JoinStatus::Ok) << c.describe() << " " << full.error;
    ASSERT_EQ(full.breakdown.served_from, obs::ServedFrom::Execution)
        << c.describe();

    // A *different* variant at a smaller radius: the variant-agnostic
    // key finds the ε entry and filters it instead of executing.
    const double eps_lo = 0.6 * c.epsilon;
    JoinRequest narrow;
    narrow.config = SelfJoinConfig::unicomp(eps_lo);
    narrow.config.store_pairs = true;
    const JoinResponse sub = svc.submit(sd, narrow).get();
    ASSERT_EQ(sub.status, JoinStatus::Ok) << c.describe() << " " << sub.error;
    EXPECT_EQ(sub.breakdown.served_from, obs::ServedFrom::Subsumed)
        << c.describe();
    const ResultSet truth = brute_force_join(c.dataset, eps_lo);
    expect_pairs_match(sub.output.results, truth, c, "subsume/pairs");
    EXPECT_EQ(sub.output.stats.result_pairs, truth.pairs().size())
        << c.describe();

    // Count-only at a yet smaller radius rides a pairs-bearing entry
    // (the retained ε' derivation or the original ε answer).
    const double eps_tiny = 0.35 * c.epsilon;
    JoinRequest count_only;
    count_only.config = SelfJoinConfig::work_queue_cfg(eps_tiny);
    count_only.config.store_pairs = false;
    const JoinResponse cnt = svc.submit(sd, count_only).get();
    ASSERT_EQ(cnt.status, JoinStatus::Ok) << c.describe() << " " << cnt.error;
    EXPECT_EQ(cnt.breakdown.served_from, obs::ServedFrom::Subsumed)
        << c.describe();
    EXPECT_EQ(cnt.output.results.count(),
              brute_force_join(c.dataset, eps_tiny).pairs().size())
        << c.describe();
    EXPECT_FALSE(cnt.output.results.stores_pairs()) << c.describe();
  }
}

// ---------------------------------------------------------------------------
// Shard-seam family (docs/SIMULATOR.md §fleet): multi-device runs shard
// the grid into work grains, so every grain boundary is a potential
// duplicate-or-drop seam. Fleet results must be bit-identical to the
// single-device canonical result — and to the oracle — for every
// variant, device count and fleet shape, on datasets whose dense
// clusters straddle cell (hence grain) boundaries by construction.

void fleet_vs_oracle(int devices, bool hetero, bool adaptive,
                     std::uint64_t seed_lo, std::uint64_t seed_hi) {
  for (std::uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    for (auto& [name, cfg] : all_variants(c.epsilon)) {
      cfg.store_pairs = true;
      cfg.fleet.num_devices = devices;
      cfg.fleet.adaptive = adaptive;
      if (hetero) {
        cfg.fleet.devices.assign(static_cast<std::size_t>(devices),
                                 cfg.device);
        for (int d = 0; d < devices; ++d) {
          cfg.fleet.devices[static_cast<std::size_t>(d)].num_sms =
              std::max(1, 56 >> d);
          cfg.fleet.devices[static_cast<std::size_t>(d)].clock_ghz =
              1.3 - 0.2 * d;
        }
      }
      const SelfJoinOutput out = self_join(c.dataset, cfg);
      expect_pairs_match(out.results, truth, c,
                         name + "/fleet" + std::to_string(devices) +
                             (hetero ? "h" : "") + (adaptive ? "" : "s"));
    }
  }
}

TEST(Differential, FleetTwoDevicesMatchesOracle) {
  fleet_vs_oracle(2, /*hetero=*/false, /*adaptive=*/true, 135, 144);
}

TEST(Differential, FleetFourDevicesMatchesOracle) {
  fleet_vs_oracle(4, /*hetero=*/false, /*adaptive=*/true, 145, 154);
}

TEST(Differential, FleetHeterogeneousMatchesOracle) {
  fleet_vs_oracle(4, /*hetero=*/true, /*adaptive=*/true, 155, 164);
}

TEST(Differential, FleetStaticShardingMatchesOracle) {
  fleet_vs_oracle(4, /*hetero=*/false, /*adaptive=*/false, 165, 174);
}

TEST(Differential, DenseClusterStraddlingGrainBoundary) {
  // Directed seam stress: dense piles placed exactly on cell corners
  // (epsilon-multiples), so each pile's neighborhood spans up to four
  // cells — and, for every device count, some pile straddles a grain
  // boundary. The fleet must neither duplicate nor drop the seam pairs.
  Dataset ds(2);
  const double eps = 0.25;
  std::vector<double> p(2);
  for (int site = 0; site < 6; ++site) {
    const double cx = eps * (1 + 2 * site);  // on a cell-corner lattice
    for (int i = 0; i < 25; ++i) {
      p[0] = cx + (i % 5 - 2) * (eps * 0.49);
      p[1] = eps + (i / 5 - 2) * (eps * 0.49);
      ds.push_back(p);
    }
  }
  const ResultSet truth = brute_force_join(ds, eps);
  for (const int devices : {2, 3, 4, 8}) {
    for (auto& [name, cfg] : all_variants(eps)) {
      cfg.store_pairs = true;
      cfg.fleet.num_devices = devices;
      const SelfJoinOutput out = self_join(ds, cfg);
      ASSERT_EQ(out.results.pairs().size(), truth.pairs().size())
          << name << " devices=" << devices;
      EXPECT_EQ(out.results.pairs(), truth.pairs())
          << name << " devices=" << devices;
    }
  }
}

TEST(Differential, FleetServiceSubmitMatchesOracle) {
  // Fleet requests through the queued service path: the result cache,
  // coalescing and verification layers must be fleet-transparent.
  for (std::uint64_t seed = 175; seed <= 178; ++seed) {
    const AdversarialCase c = make_adversarial_case(seed);
    const ResultSet truth = brute_force_join(c.dataset, c.epsilon);
    ServiceConfig scfg;
    scfg.workers = 2;
    JoinService svc(scfg);
    const auto sd = svc.attach(c.dataset);
    JoinRequest req;
    req.config = SelfJoinConfig::combined(c.epsilon);
    req.config.store_pairs = true;
    req.config.fleet.num_devices = 4;
    const JoinResponse r = svc.submit(sd, req).get();
    ASSERT_EQ(r.status, JoinStatus::Ok) << c.describe() << ": " << r.error;
    expect_pairs_match(r.output.results, truth, c, "fleet/submit");
  }
}

// ---------------------------------------------------------------------------
// Churn families (docs/STREAMING.md): seeded streams of insert / erase
// / move batches applied to adversarial datasets. After every batch,
// three invariants must hold simultaneously: (a) an incrementally
// repaired grid is digest-identical to a from-scratch rebuild, (b) the
// engine's delta join equals the literal set difference of brute-force
// joins across the batch, and (c) warm cache-served runs match the
// oracle on every kernel variant. A failure prints the (seed, family,
// batch) tuple.

/// One seeded mutation batch. Inserts and teleports land inside the
/// dataset's initial bounding box most of the time (the repairable
/// case); boundary erases and out-of-box moves occur naturally and
/// exercise the rebuild fallback.
void apply_churn_batch(Dataset& ds, Xoshiro256& rng, const std::string& family,
                       const std::vector<double>& lo,
                       const std::vector<double>& hi) {
  const int dims = ds.dims();
  std::vector<double> p(static_cast<std::size_t>(dims));
  const std::size_t batch = 1 + rng.uniform_index(10);
  static const char* const kMixed[] = {"insert", "erase", "move"};
  for (std::size_t m = 0; m < batch; ++m) {
    std::string op = family;
    if (op == "mixed") op = kMixed[rng.uniform_index(3)];
    if (op == "erase" && ds.size() <= 1) op = "insert";
    if (op == "insert") {
      for (int d = 0; d < dims; ++d) {
        const auto s = static_cast<std::size_t>(d);
        p[s] = rng.uniform(lo[s], hi[s]);
      }
      (void)ds.insert(p);
    } else if (op == "erase") {
      ds.erase(static_cast<PointId>(rng.uniform_index(ds.size())));
    } else {
      const auto i = static_cast<PointId>(rng.uniform_index(ds.size()));
      if (rng.uniform() < 0.5) {
        // Nudge: usually stays within the point's own cell or a direct
        // neighbor, the cheapest repair.
        for (int d = 0; d < dims; ++d) {
          const auto s = static_cast<std::size_t>(d);
          const double span = std::max(hi[s] - lo[s], 1e-6);
          p[s] = ds.coord(i, d) + rng.uniform(-0.02, 0.02) * span;
        }
      } else {
        for (int d = 0; d < dims; ++d) {
          const auto s = static_cast<std::size_t>(d);
          p[s] = rng.uniform(lo[s], hi[s]);
        }
      }
      ds.move_point(i, p);
    }
  }
}

void churn_vs_oracle(const std::string& family, std::uint64_t seed_lo,
                     std::uint64_t seed_hi) {
  for (std::uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
    AdversarialCase c = make_adversarial_case(seed);
    Dataset& ds = c.dataset;
    if (ds.empty()) continue;
    const std::vector<double> lo = ds.min_corner();
    const std::vector<double> hi = ds.max_corner();
    Xoshiro256 rng(seed * 7919 + 13);

    JoinEngine engine;
    PreparedDataset prep = engine.prepare(ds);
    SelfJoinConfig seeded = SelfJoinConfig::combined(c.epsilon);
    seeded.store_pairs = true;
    (void)engine.run(prep, seeded);  // caches warm at the base generation
    GridIndex grid(ds, c.epsilon);

    ResultSet before = brute_force_join(ds, c.epsilon);
    for (int batch = 0; batch < 4; ++batch) {
      const std::string tag =
          family + "/batch" + std::to_string(batch) + " " + c.describe();
      const std::uint64_t base = ds.generation();
      apply_churn_batch(ds, rng, family, lo, hi);
      ResultSet after = brute_force_join(ds, c.epsilon);

      // (a) Repaired grid is digest-identical to a from-scratch build.
      (void)grid.repair();
      EXPECT_EQ(grid.content_key(), GridIndex(ds, c.epsilon).content_key())
          << tag;

      // (b) Delta join equals the oracle set difference.
      const std::optional<PairDelta> delta =
          engine.delta_join(prep, c.epsilon, base);
      ASSERT_TRUE(delta.has_value()) << tag;
      const testsupport::OracleDelta want =
          testsupport::brute_force_delta(before, after);
      EXPECT_EQ(delta->gained, want.gained) << tag;
      EXPECT_EQ(delta->lost, want.lost) << tag;

      // (c) Warm runs across every kernel variant match the oracle.
      for (auto& [name, cfg] : all_variants(c.epsilon)) {
        cfg.store_pairs = true;
        const SelfJoinOutput warm = engine.run(prep, cfg);
        expect_pairs_match(warm.results, after, c, name + "/" + tag);
      }
      before = std::move(after);
    }
  }
}

TEST(Differential, ChurnInsertStreamStaysConsistent) {
  churn_vs_oracle("insert", 179, 182);
}
TEST(Differential, ChurnEraseStreamStaysConsistent) {
  churn_vs_oracle("erase", 183, 186);
}
TEST(Differential, ChurnMoveStreamStaysConsistent) {
  churn_vs_oracle("move", 187, 190);
}
TEST(Differential, ChurnMixedStreamStaysConsistent) {
  churn_vs_oracle("mixed", 191, 196);
}

/// Id-reuse churn (docs/STREAMING.md §5): long windows in which one id
/// names two different points. Most steps erase a point near the tail,
/// which renames the tail into the erased id by swap-and-pop, then
/// insert a point within eps of the tail's position, so the insert
/// takes the vacated tail id next to the old tail's neighbours. The
/// other steps move a point by less than eps, or erase or insert one
/// anywhere. The delta runs on a grid coarser than the query (cell
/// width > eps) and must equal the brute-force set difference after
/// every window. A failure prints the (seed, window, dims, n, eps,
/// cell) tuple.
TEST(Differential, ChurnIdReuseStreamStaysConsistent) {
  for (std::uint64_t seed = 300; seed <= 315; ++seed) {
    Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 3);
    const int dims = 1 + static_cast<int>(rng.uniform_index(3));  // 1..3
    const double cell = 0.5 + rng.uniform();
    const double eps = cell * (0.4 + 0.55 * rng.uniform());  // < cell
    const double extent =
        cell * static_cast<double>(2 + rng.uniform_index(4));
    const double step = eps / static_cast<double>(dims);  // per coordinate
    Dataset ds(dims);
    std::vector<double> p(static_cast<std::size_t>(dims));
    const auto place = [&](auto&& coord) {
      for (int d = 0; d < dims; ++d) p[static_cast<std::size_t>(d)] = coord(d);
    };
    const std::size_t n = 30 + rng.uniform_index(120);
    for (std::size_t i = 0; i < n; ++i) {
      place([&](int) { return rng.uniform(0.0, extent); });
      ds.push_back(p);
    }
    GridIndex grid(ds, cell);
    ResultSet before = brute_force_join(ds, eps);
    for (int window = 0; window < 4; ++window) {
      const std::uint64_t base = ds.generation();
      const std::size_t steps = 10 + rng.uniform_index(31);
      for (std::size_t s = 0; s < steps; ++s) {
        const double r = rng.uniform();
        if (r < 0.45 && ds.size() > 1) {
          const std::size_t tail = ds.size() - 1;
          place([&](int d) {
            return ds.coord(tail, d) + rng.uniform(-step, step);
          });
          ds.erase(static_cast<PointId>(
              tail - rng.uniform_index(std::min<std::size_t>(4, ds.size()))));
          ASSERT_EQ(ds.insert(p), tail);
        } else if (r < 0.75) {
          const auto i = static_cast<PointId>(rng.uniform_index(ds.size()));
          place([&](int d) {
            return ds.coord(i, d) + rng.uniform(-step, step);
          });
          ds.move_point(i, p);
        } else if (r < 0.875 && ds.size() > 1) {
          ds.erase(static_cast<PointId>(rng.uniform_index(ds.size())));
        } else {
          place([&](int) { return rng.uniform(0.0, extent); });
          (void)ds.insert(p);
        }
      }
      std::ostringstream tag;
      tag.precision(17);
      tag << "(seed=" << seed << ", window=" << window << ", dims=" << dims
          << ", n=" << ds.size() << ", eps=" << eps << ", cell=" << cell
          << ")";
      (void)grid.repair();
      const auto log = ds.mutations_since(base);
      ASSERT_TRUE(log.has_value()) << tag.str();
      const PairDelta delta =
          compute_pair_delta(grid, summarize_churn(ds, *log), eps);
      ResultSet after = brute_force_join(ds, eps);
      const testsupport::OracleDelta want =
          testsupport::brute_force_delta(before, after);
      EXPECT_EQ(delta.gained, want.gained) << tag.str();
      EXPECT_EQ(delta.lost, want.lost) << tag.str();
      before = std::move(after);
    }
  }
}

TEST(Differential, ChurnedFleetSubmitMatchesOracle) {
  // The same churn stream through the service's queued submit path on a
  // 4-device fleet: warm sharded runs over a repaired data plane.
  for (std::uint64_t seed = 197; seed <= 199; ++seed) {
    AdversarialCase c = make_adversarial_case(seed);
    Dataset& ds = c.dataset;
    if (ds.empty()) continue;
    const std::vector<double> lo = ds.min_corner();
    const std::vector<double> hi = ds.max_corner();
    Xoshiro256 rng(seed * 104729 + 7);

    ServiceConfig scfg;
    scfg.workers = 2;
    JoinService svc(scfg);
    const auto sd = svc.attach(ds);
    JoinRequest req;
    req.config = SelfJoinConfig::combined(c.epsilon);
    req.config.store_pairs = true;
    req.config.fleet.num_devices = 4;
    const JoinResponse warmup = svc.submit(sd, req).get();
    ASSERT_EQ(warmup.status, JoinStatus::Ok) << c.describe();

    for (int batch = 0; batch < 3; ++batch) {
      apply_churn_batch(ds, rng, "mixed", lo, hi);
      const ResultSet truth = brute_force_join(ds, c.epsilon);
      const JoinResponse r = svc.submit(sd, req).get();
      ASSERT_EQ(r.status, JoinStatus::Ok) << c.describe() << ": " << r.error;
      expect_pairs_match(r.output.results, truth, c,
                         "fleet/churn batch" + std::to_string(batch));
    }
  }
}

// ---------------------------------------------------------------------------
// R×S families (docs/JOINS.md): two-dataset ε-joins over seeded
// bbox-relationship / size-ratio / duplicate cases, against the
// brute_force_rxs oracle. Seeds >= 200 (1–199 belong to the self-join
// families above); seed % 6 selects the family, so each range below
// covers all six.

using testsupport::brute_force_knn;
using testsupport::brute_force_rxs;
using testsupport::make_rxs_case;
using testsupport::RxsCase;

void expect_rxs_match(const ResultSet& got, const ResultSet& want,
                      const RxsCase& c, const std::string& path) {
  ASSERT_EQ(got.pairs().size(), want.pairs().size())
      << path << " " << c.describe();
  EXPECT_EQ(got.pairs(), want.pairs()) << path << " " << c.describe();
}

void rxs_variant_vs_oracle(std::size_t variant_index, std::uint64_t seed_lo,
                           std::uint64_t seed_hi) {
  for (std::uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
    const RxsCase c = make_rxs_case(seed);
    const ResultSet truth = brute_force_rxs(c.r, c.s, c.epsilon);
    auto variants = all_variants(c.epsilon);
    auto& [name, cfg] = variants[variant_index];
    cfg.store_pairs = true;
    const SelfJoinOutput out = rxs_join(c.r, c.s, cfg);
    expect_rxs_match(out.results, truth, c, name + "/rxs");
    EXPECT_EQ(out.stats.result_pairs, truth.pairs().size())
        << name << " " << c.describe();
  }
}

TEST(Differential, RxsGpuCalcGlobalMatchesBruteForce) {
  rxs_variant_vs_oracle(0, 200, 211);
}
TEST(Differential, RxsUnicompMatchesBruteForce) {
  rxs_variant_vs_oracle(1, 200, 211);
}
TEST(Differential, RxsLidUnicompMatchesBruteForce) {
  rxs_variant_vs_oracle(2, 200, 211);
}
TEST(Differential, RxsSortByWlMatchesBruteForce) {
  rxs_variant_vs_oracle(3, 200, 211);
}
TEST(Differential, RxsWorkQueueMatchesBruteForce) {
  rxs_variant_vs_oracle(4, 200, 211);
}
TEST(Differential, RxsCombinedMatchesBruteForce) {
  rxs_variant_vs_oracle(5, 200, 211);
}

TEST(Differential, RxsEngineColdAndWarmRunsMatchOracle) {
  // Engine path: the gridded side is prepared once; cold then warm
  // (plan-cache-served) R×S runs must both match the oracle — a warm
  // divergence is a probe-plan keying bug.
  for (std::uint64_t seed = 212; seed <= 217; ++seed) {
    const RxsCase c = make_rxs_case(seed);
    const ResultSet truth = brute_force_rxs(c.r, c.s, c.epsilon);
    // Run against the engine directly: grid `s`, probe with `r` (pairs
    // come back (probe, gridded) = (r, s), matching the oracle).
    JoinEngine engine;
    PreparedDataset prep = engine.prepare(c.s);
    if (c.s.empty() || c.r.empty()) continue;
    for (auto& [name, cfg] : all_variants(c.epsilon)) {
      cfg.store_pairs = true;
      cfg.mode = JoinMode::RxS;
      cfg.probe = &c.r;
      const SelfJoinOutput cold = engine.run(prep, cfg);
      expect_rxs_match(cold.results, truth, c, name + "/rxs-cold");
      const SelfJoinOutput warm = engine.run(prep, cfg);
      expect_rxs_match(warm.results, truth, c, name + "/rxs-warm");
    }
  }
}

TEST(Differential, RxsServiceSubmitMatchesOracle) {
  for (std::uint64_t seed = 218; seed <= 223; ++seed) {
    const RxsCase c = make_rxs_case(seed);
    const ResultSet truth = brute_force_rxs(c.r, c.s, c.epsilon);
    if (c.s.empty() || c.r.empty()) continue;
    ServiceConfig scfg;
    scfg.workers = 2;
    JoinService svc(scfg);
    const auto sd = svc.attach(c.s);
    JoinRequest req;
    req.config = SelfJoinConfig::combined(c.epsilon);
    req.config.store_pairs = true;
    req.config.mode = JoinMode::RxS;
    req.config.probe = &c.r;
    const JoinResponse r = svc.submit(sd, req).get();
    ASSERT_EQ(r.status, JoinStatus::Ok) << c.describe() << ": " << r.error;
    expect_rxs_match(r.output.results, truth, c, "rxs/submit");
    // Repeat request: exact result-cache hit, same pairs.
    const JoinResponse r2 = svc.submit(sd, req).get();
    ASSERT_EQ(r2.status, JoinStatus::Ok) << c.describe();
    EXPECT_EQ(r2.breakdown.served_from, obs::ServedFrom::ResultCache)
        << c.describe();
    expect_rxs_match(r2.output.results, truth, c, "rxs/submit-hit");
  }
}

TEST(Differential, RxsHostParallelMatchesOracle) {
  for (std::uint64_t seed = 224; seed <= 229; ++seed) {
    const RxsCase c = make_rxs_case(seed);
    const ResultSet truth = brute_force_rxs(c.r, c.s, c.epsilon);
    for (auto& [name, cfg] : all_variants(c.epsilon)) {
      cfg.store_pairs = true;
      cfg.device.host.num_threads = 4;
      const SelfJoinOutput out = rxs_join(c.r, c.s, cfg);
      expect_rxs_match(out.results, truth, c, name + "/rxs-mt4");
    }
  }
}

TEST(Differential, RxsFleetMatchesOracle) {
  // Fleet sharding partitions contiguous probe-id ranges for R×S; every
  // grain boundary is a potential duplicate-or-drop seam, for every
  // device count.
  for (std::uint64_t seed = 230; seed <= 235; ++seed) {
    const RxsCase c = make_rxs_case(seed);
    const ResultSet truth = brute_force_rxs(c.r, c.s, c.epsilon);
    for (const int devices : {1, 2, 4}) {
      for (auto& [name, cfg] : all_variants(c.epsilon)) {
        cfg.store_pairs = true;
        cfg.fleet.num_devices = devices;
        const SelfJoinOutput out = rxs_join(c.r, c.s, cfg);
        expect_rxs_match(out.results, truth, c,
                         name + "/rxs-fleet" + std::to_string(devices));
      }
    }
  }
}

TEST(Differential, RxsPairAtExactlyEpsilonIsIncluded) {
  // Cross-pair at dist == eps must be inside (<=, not <) in both
  // orientations (R gridded and S gridded).
  Dataset r(2);
  Dataset s(2);
  const double a[] = {0.0, 0.0};
  const double b[] = {0.25, 0.0};
  r.push_back(a);
  s.push_back(b);
  for (auto& [name, cfg] : all_variants(0.25)) {
    cfg.store_pairs = true;
    const SelfJoinOutput out = rxs_join(r, s, cfg);
    ASSERT_EQ(out.results.pairs().size(), 1u) << name;
    EXPECT_EQ(out.results.pairs()[0], ResultPair(0, 0)) << name;
    // Flip the sides: same single pair, ids still (r_id, s_id).
    const SelfJoinOutput flipped = rxs_join(s, r, cfg);
    ASSERT_EQ(flipped.results.pairs().size(), 1u) << name;
    EXPECT_EQ(flipped.results.pairs()[0], ResultPair(0, 0)) << name;
  }
}

// ---------------------------------------------------------------------------
// KNN families: exact k-NN join against the brute-force oracle, with
// the documented (distance², then id) selection tie-break. k spans
// {1, 5, n} plus k > n (all-neighbors clamp).

TEST(Differential, KnnMatchesBruteForceAcrossK) {
  for (std::uint64_t seed = 236; seed <= 243; ++seed) {
    const RxsCase c = make_rxs_case(seed);
    if (c.s.empty() || c.r.empty()) continue;
    const auto n = static_cast<int>(c.s.size());
    for (const int k : {1, 5, n, n + 7}) {
      if (k < 1) continue;
      const ResultSet truth = brute_force_knn(c.s, c.r, k);
      SelfJoinConfig cfg = SelfJoinConfig::combined(c.epsilon);
      cfg.store_pairs = true;
      const SelfJoinOutput out = knn_join(c.s, c.r, k, cfg);
      expect_rxs_match(out.results, truth, c, "knn k=" + std::to_string(k));
      EXPECT_EQ(out.stats.result_pairs, truth.pairs().size())
          << "k=" << k << " " << c.describe();
      EXPECT_GE(out.stats.knn_rounds, 1u) << c.describe();
    }
  }
}

TEST(Differential, KnnServiceSubmitMatchesOracle) {
  for (std::uint64_t seed = 244; seed <= 247; ++seed) {
    const RxsCase c = make_rxs_case(seed);
    if (c.s.empty() || c.r.empty()) continue;
    const ResultSet truth = brute_force_knn(c.s, c.r, 3);
    ServiceConfig scfg;
    scfg.workers = 2;
    JoinService svc(scfg);
    const auto sd = svc.attach(c.s);
    JoinRequest req;
    req.config.mode = JoinMode::Knn;
    req.config.probe = &c.r;
    req.config.knn_k = 3;
    req.config.store_pairs = true;
    const JoinResponse r = svc.submit(sd, req).get();
    ASSERT_EQ(r.status, JoinStatus::Ok) << c.describe() << ": " << r.error;
    expect_rxs_match(r.output.results, truth, c, "knn/submit");
    // Repeat: exact result-cache hit keyed by (mode, probe identity, k).
    const JoinResponse r2 = svc.submit(sd, req).get();
    ASSERT_EQ(r2.status, JoinStatus::Ok) << c.describe();
    EXPECT_EQ(r2.breakdown.served_from, obs::ServedFrom::ResultCache)
        << c.describe();
    expect_rxs_match(r2.output.results, truth, c, "knn/submit-hit");
  }
}

TEST(Differential, KnnTiesAtExactlyEpsilonResolveById) {
  // Four data points equidistant from the query (a cross at distance
  // 0.5): k=2 must select ids {0, 1} by the (distance², id) tie-break,
  // for any variant config riding the request.
  Dataset ds(2);
  const double pts[][2] = {{0.5, 0.0}, {-0.5, 0.0}, {0.0, 0.5}, {0.0, -0.5}};
  for (const auto& q : pts) ds.push_back(q);
  Dataset queries(2);
  const double origin[] = {0.0, 0.0};
  queries.push_back(origin);
  const ResultSet truth = brute_force_knn(ds, queries, 2);
  ASSERT_EQ(truth.pairs().size(), 2u);
  EXPECT_EQ(truth.pairs()[0], ResultPair(0, 0));
  EXPECT_EQ(truth.pairs()[1], ResultPair(0, 1));
  SelfJoinConfig cfg;
  cfg.store_pairs = true;
  const SelfJoinOutput out = knn_join(ds, queries, 2, cfg);
  EXPECT_EQ(out.results.pairs(), truth.pairs());
}

TEST(Differential, PairAtExactlyEpsilonIsIncluded) {
  // dist == eps must be inside (<=, not <) for every variant.
  Dataset ds(2);
  const double a[] = {0.0, 0.0};
  const double b[] = {0.25, 0.0};
  ds.push_back(a);
  ds.push_back(b);
  for (auto& [name, cfg] : all_variants(0.25)) {
    cfg.store_pairs = true;
    const SelfJoinOutput out = self_join(ds, cfg);
    EXPECT_EQ(out.results.pairs().size(), 4u) << name;  // 2 self + (0,1)+(1,0)
  }
}

}  // namespace
}  // namespace gsj
