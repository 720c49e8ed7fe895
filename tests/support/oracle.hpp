// Shared support for the randomized differential tests: seed-driven
// adversarial dataset generation plus the brute-force oracle interface.
//
// Every dataset here is derived deterministically from one 64-bit seed,
// so a failing case is fully reproducible from the printed
// (seed, family, n, dims, eps) tuple — re-run with that seed and the
// same case comes back. The families are chosen to stress exactly the
// machinery the load-balancing variants disagree on when buggy:
//
//   uniform        even occupancy — the baseline case
//   clusters       a few dense piles on a sparse background: heavy
//                  cells, the workload skew the paper's variants target
//   duplicates     exact-duplicate piles: zero-distance pairs, maximal
//                  per-cell density, duplicate-handling in every index
//   boundaries     coordinates snapped to multiples of eps (plus a few
//                  half-cell offsets): points exactly on grid-cell
//                  edges and pair distances exactly == eps, the classic
//                  off-by-one-cell / <-vs-<= mistakes
//   tiny           n in {1, 2, 3}: degenerate shapes, single-point
//                  cells, result sets dominated by self-pairs
//
// The oracle is the O(n^2) brute_force_join (sj/reference.hpp): all
// ordered pairs (a, b) with dist <= eps, self-pairs included,
// canonicalized — the pair semantics every join in this repo shares.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "sj/reference.hpp"
#include "sj/selfjoin.hpp"

namespace gsj::testsupport {

struct AdversarialCase {
  std::uint64_t seed = 0;
  std::string family;
  Dataset dataset;
  double epsilon = 0.0;

  /// The tuple to paste into a regression test when this case fails.
  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os.precision(17);
    os << "(seed=" << seed << ", family=" << family
       << ", n=" << dataset.size() << ", dims=" << dataset.dims()
       << ", eps=" << epsilon << ")";
    return os.str();
  }
};

/// Derives one adversarial dataset + epsilon from `seed`. Sizes stay
/// <= ~400 points so the O(n^2) oracle is cheap.
inline AdversarialCase make_adversarial_case(std::uint64_t seed) {
  AdversarialCase c;
  c.seed = seed;
  Xoshiro256 rng(seed);
  const int dims = 2 + static_cast<int>(rng.uniform_index(3));  // 2..4
  const double extent = 1.0 + rng.uniform() * 9.0;              // [1, 10)
  c.epsilon = extent * (0.02 + rng.uniform() * 0.10);

  Dataset ds(dims);
  std::vector<double> p(static_cast<std::size_t>(dims));
  const auto push_jittered = [&](double scale) {
    for (auto& x : p) x += rng.uniform(-scale, scale);
    ds.push_back(p);
  };

  switch (rng.uniform_index(5)) {
    case 0: {
      c.family = "uniform";
      const std::size_t n = 50 + rng.uniform_index(351);
      for (std::size_t i = 0; i < n; ++i) {
        for (auto& x : p) x = rng.uniform(0.0, extent);
        ds.push_back(p);
      }
      break;
    }
    case 1: {
      c.family = "clusters";
      const std::size_t clusters = 2 + rng.uniform_index(5);
      const std::size_t n = 80 + rng.uniform_index(271);
      std::vector<std::vector<double>> centers(clusters);
      for (auto& center : centers) {
        center.resize(static_cast<std::size_t>(dims));
        for (auto& x : center) x = rng.uniform(0.0, extent);
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.uniform() < 0.85) {
          // Dense pile within ~one epsilon of a center.
          p = centers[rng.uniform_index(clusters)];
          push_jittered(c.epsilon);
        } else {
          for (auto& x : p) x = rng.uniform(0.0, extent);
          ds.push_back(p);
        }
      }
      break;
    }
    case 2: {
      c.family = "duplicates";
      const std::size_t sites = 3 + rng.uniform_index(10);
      const std::size_t n = 60 + rng.uniform_index(241);
      std::vector<std::vector<double>> locations(sites);
      for (auto& loc : locations) {
        loc.resize(static_cast<std::size_t>(dims));
        for (auto& x : loc) x = rng.uniform(0.0, extent);
      }
      // Exact duplicates: every point *is* one of the sites, bit-equal.
      for (std::size_t i = 0; i < n; ++i) {
        ds.push_back(locations[rng.uniform_index(sites)]);
      }
      break;
    }
    case 3: {
      c.family = "boundaries";
      // Coordinates snapped to k*eps (grid-cell edges) with occasional
      // half-cell offsets: inter-point distances hit eps exactly.
      const std::size_t n = 50 + rng.uniform_index(201);
      const std::uint64_t cells = 1 + rng.uniform_index(8);
      for (std::size_t i = 0; i < n; ++i) {
        for (auto& x : p) {
          x = c.epsilon * static_cast<double>(rng.uniform_index(cells + 1));
          if (rng.uniform() < 0.25) x += c.epsilon * 0.5;
        }
        ds.push_back(p);
      }
      break;
    }
    default: {
      c.family = "tiny";
      const std::size_t n = 1 + rng.uniform_index(3);
      for (std::size_t i = 0; i < n; ++i) {
        for (auto& x : p) x = rng.uniform(0.0, extent);
        ds.push_back(p);
      }
      break;
    }
  }
  c.dataset = std::move(ds);
  return c;
}

/// The pair delta a delta join must report across a mutation window
/// (sj/delta.hpp): the literal set differences of the canonical
/// brute-force results after and before it.
struct OracleDelta {
  std::vector<ResultPair> gained;  ///< after \ before
  std::vector<ResultPair> lost;    ///< before \ after
};

inline OracleDelta brute_force_delta(const ResultSet& before,
                                     const ResultSet& after) {
  OracleDelta d;
  const auto& b = before.pairs();
  const auto& a = after.pairs();
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d.gained));
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(d.lost));
  return d;
}

// ---------------------------------------------------------------------------
// R×S and KNN oracles (docs/JOINS.md). Both share the repo's canonical
// ordering contract: pairs sorted ascending by (first, second). For KNN
// the *selection* tie-break is (distance², then id) — the canonical
// order the pipeline documents — and the selected pairs are then
// canonicalized like every other ResultSet.

/// Brute-force R×S ε-join oracle: all ordered pairs (r_id, s_id) with
/// dist(r, s) <= eps, canonicalized. Either side empty => empty.
inline ResultSet brute_force_rxs(const Dataset& r, const Dataset& s,
                                 double eps) {
  ResultSet out(/*store_pairs=*/true);
  const double eps2 = eps * eps;
  const int dims = r.dims();
  for (PointId a = 0; a < static_cast<PointId>(r.size()); ++a) {
    for (PointId b = 0; b < static_cast<PointId>(s.size()); ++b) {
      double sum = 0.0;
      for (int d = 0; d < dims; ++d) {
        const double diff = r.coord(a, d) - s.coord(b, d);
        sum += diff * diff;
      }
      if (sum <= eps2) out.emit(a, b);
    }
  }
  out.canonicalize();
  return out;
}

/// Exact brute-force KNN oracle: for each query q the k nearest points
/// of `ds`, ties broken by (distance², then id); k > |ds| returns all
/// |ds| neighbors. Pairs are (query_id, neighbor_id), canonicalized.
inline ResultSet brute_force_knn(const Dataset& ds, const Dataset& queries,
                                 int k) {
  ResultSet out(/*store_pairs=*/true);
  const int dims = ds.dims();
  const auto n = static_cast<std::size_t>(ds.size());
  const auto k_eff = std::min(static_cast<std::size_t>(k), n);
  std::vector<std::pair<double, PointId>> cand;
  for (PointId q = 0; q < static_cast<PointId>(queries.size()); ++q) {
    cand.clear();
    cand.reserve(n);
    for (PointId c = 0; c < static_cast<PointId>(n); ++c) {
      double sum = 0.0;
      for (int d = 0; d < dims; ++d) {
        const double diff = queries.coord(q, d) - ds.coord(c, d);
        sum += diff * diff;
      }
      cand.emplace_back(sum, c);
    }
    std::sort(cand.begin(), cand.end());  // (distance², id) — pair order
    for (std::size_t i = 0; i < k_eff; ++i) out.emit(q, cand[i].second);
  }
  out.canonicalize();
  return out;
}

struct RxsCase {
  std::uint64_t seed = 0;
  std::string family;
  Dataset r;
  Dataset s;
  double epsilon = 0.0;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os.precision(17);
    os << "(seed=" << seed << ", family=" << family << ", |R|=" << r.size()
       << ", |S|=" << s.size() << ", dims=" << r.dims() << ", eps=" << epsilon
       << ")";
    return os.str();
  }
};

/// Derives one two-dataset case from `seed`, cycling through the
/// bbox-relationship and size-ratio families the R×S seam is most
/// sensitive to:
///
///   disjoint      R and S bounding boxes separated by > eps: the
///                 result is (near-)empty, probing entirely off-grid
///   overlapping   boxes shifted by ~half an extent: pairs concentrate
///                 on the overlap band
///   nested        S inside a corner of R's box: heavy probe skew
///   r-heavy       |R| >> |S| (grids S, probes with R)
///   s-heavy       |R| << |S| (grids R, probes with S)
///   duplicates    both sides sample the same few sites bit-exactly:
///                 zero-distance cross pairs, maximal cell density
inline RxsCase make_rxs_case(std::uint64_t seed) {
  RxsCase c;
  c.seed = seed;
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const int dims = 2 + static_cast<int>(rng.uniform_index(3));  // 2..4
  const double extent = 1.0 + rng.uniform() * 9.0;
  c.epsilon = extent * (0.03 + rng.uniform() * 0.12);

  Dataset r(dims);
  Dataset s(dims);
  std::vector<double> p(static_cast<std::size_t>(dims));
  const auto fill_uniform = [&](Dataset& ds, std::size_t n, double lo,
                                double hi) {
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& x : p) x = rng.uniform(lo, hi);
      ds.push_back(p);
    }
  };

  switch (seed % 6) {
    case 0: {
      c.family = "disjoint";
      fill_uniform(r, 40 + rng.uniform_index(120), 0.0, extent);
      // Separated by 2·extent: no cross pair can reach eps < extent.
      fill_uniform(s, 40 + rng.uniform_index(120), 3.0 * extent,
                   4.0 * extent);
      break;
    }
    case 1: {
      c.family = "overlapping";
      fill_uniform(r, 40 + rng.uniform_index(160), 0.0, extent);
      fill_uniform(s, 40 + rng.uniform_index(160), 0.5 * extent,
                   1.5 * extent);
      break;
    }
    case 2: {
      c.family = "nested";
      fill_uniform(r, 60 + rng.uniform_index(140), 0.0, extent);
      fill_uniform(s, 30 + rng.uniform_index(80), 0.0, 0.25 * extent);
      break;
    }
    case 3: {
      c.family = "r-heavy";
      fill_uniform(r, 250 + rng.uniform_index(150), 0.0, extent);
      fill_uniform(s, 5 + rng.uniform_index(15), 0.0, extent);
      break;
    }
    case 4: {
      c.family = "s-heavy";
      fill_uniform(r, 5 + rng.uniform_index(15), 0.0, extent);
      fill_uniform(s, 250 + rng.uniform_index(150), 0.0, extent);
      break;
    }
    default: {
      c.family = "duplicates";
      const std::size_t sites = 3 + rng.uniform_index(8);
      std::vector<std::vector<double>> locations(sites);
      for (auto& loc : locations) {
        loc.resize(static_cast<std::size_t>(dims));
        for (auto& x : loc) x = rng.uniform(0.0, extent);
      }
      const std::size_t nr = 40 + rng.uniform_index(120);
      const std::size_t ns = 40 + rng.uniform_index(120);
      for (std::size_t i = 0; i < nr; ++i) {
        r.push_back(locations[rng.uniform_index(sites)]);
      }
      for (std::size_t i = 0; i < ns; ++i) {
        s.push_back(locations[rng.uniform_index(sites)]);
      }
      break;
    }
  }
  c.r = std::move(r);
  c.s = std::move(s);
  return c;
}

/// The paper's six GPU variants at radius `eps`, named as in Table IV.
inline std::vector<std::pair<std::string, SelfJoinConfig>> all_variants(
    double eps) {
  return {
      {"GPUCALCGLOBAL", SelfJoinConfig::gpu_calc_global(eps)},
      {"UNICOMP", SelfJoinConfig::unicomp(eps)},
      {"LID-UNICOMP", SelfJoinConfig::lid_unicomp(eps)},
      {"SORTBYWL", SelfJoinConfig::sort_by_wl(eps)},
      {"WORKQUEUE", SelfJoinConfig::work_queue_cfg(eps)},
      {"COMBINED", SelfJoinConfig::combined(eps)},
  };
}

}  // namespace gsj::testsupport
