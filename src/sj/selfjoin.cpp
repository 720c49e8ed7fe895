// Public one-shot API. The pipeline itself lives in sj/pipeline.cpp
// (plan resolution: grid, workloads, D', estimate, batch plan) and
// sj/execute.cpp (the batched launches); the free wrapper rides the
// process-wide JoinService (sj/service.hpp). This file keeps the named
// configurations and that wrapper.
#include "sj/selfjoin.hpp"

#include <sstream>

#include "sj/service.hpp"

namespace gsj {

std::string SelfJoinConfig::name() const {
  std::ostringstream os;
  if (work_queue) {
    os << "WORKQUEUE";
  } else if (sort_by_workload) {
    os << "SORTBYWL";
  } else {
    os << "GPUCALCGLOBAL";
  }
  if (pattern != CellPattern::Full) os << '+' << to_string(pattern);
  if (k != 1) os << "+k" << k;
  if (mode == JoinMode::RxS) os << "+RXS";
  if (mode == JoinMode::Knn) os << "+KNN" << knn_k;
  return os.str();
}

SelfJoinConfig SelfJoinConfig::gpu_calc_global(double eps) {
  SelfJoinConfig c;
  c.epsilon = eps;
  return c;
}

SelfJoinConfig SelfJoinConfig::unicomp(double eps) {
  SelfJoinConfig c = gpu_calc_global(eps);
  c.pattern = CellPattern::Unicomp;
  return c;
}

SelfJoinConfig SelfJoinConfig::lid_unicomp(double eps) {
  SelfJoinConfig c = gpu_calc_global(eps);
  c.pattern = CellPattern::LidUnicomp;
  return c;
}

SelfJoinConfig SelfJoinConfig::sort_by_wl(double eps) {
  SelfJoinConfig c = gpu_calc_global(eps);
  c.sort_by_workload = true;
  return c;
}

SelfJoinConfig SelfJoinConfig::work_queue_cfg(double eps, int k,
                                              CellPattern pattern) {
  SelfJoinConfig c = gpu_calc_global(eps);
  c.work_queue = true;
  c.k = k;
  c.pattern = pattern;
  return c;
}

SelfJoinConfig SelfJoinConfig::combined(double eps) {
  return work_queue_cfg(eps, /*k=*/8, CellPattern::LidUnicomp);
}

SelfJoinOutput self_join(const Dataset& ds, const SelfJoinConfig& cfg) {
  // Rides the process-wide JoinService: scratch arenas and host thread
  // pools come from its bounded depots instead of a thread_local engine
  // per calling thread, so resident state no longer grows with the
  // number of threads that ever issued a join (and short-lived caller
  // threads leak nothing). Each call still gets an ephemeral cache
  // shell, so one-shot behaviour (no plan caching across calls, no
  // dataset lifetime entanglement) is unchanged.
  return JoinService::shared().self_join(ds, cfg);
}

SelfJoinOutput rxs_join(const Dataset& r, const Dataset& s,
                        SelfJoinConfig cfg) {
  cfg.mode = JoinMode::RxS;
  if (r.empty() || s.empty()) {
    // An empty side makes the cross-product empty; the pipeline treats
    // an empty *gridded* dataset as a config error (matching Self), so
    // answer here without gridding anything.
    SelfJoinOutput out;
    out.results = ResultSet(cfg.store_pairs);
    return out;
  }
  // Grid the smaller side, probe with the larger: probe cost scales
  // with |probe| × density while grid build scales with the gridded
  // side, so the small-side grid minimizes both. Ties grid S so the
  // emitted (probe, grid) pairs are already (r, s).
  const bool grid_r = r.size() < s.size();
  const Dataset& gridded = grid_r ? r : s;
  const Dataset& probe = grid_r ? s : r;
  cfg.probe = &probe;
  SelfJoinOutput out = JoinService::shared().self_join(gridded, cfg);
  if (grid_r && out.results.stores_pairs()) {
    // Pairs came out as (probe=s, grid=r); the contract is (r, s).
    ResultSet flipped(true);
    flipped.reserve(out.results.count());
    for (const auto& [a, b] : out.results.pairs()) flipped.emit(b, a);
    flipped.canonicalize();
    out.results = std::move(flipped);
  }
  return out;
}

SelfJoinOutput knn_join(const Dataset& ds, const Dataset& queries, int k,
                        SelfJoinConfig cfg) {
  cfg.mode = JoinMode::Knn;
  cfg.probe = &queries;
  cfg.knn_k = k;
  return JoinService::shared().self_join(ds, cfg);
}

}  // namespace gsj
