// Plan+execute pipeline behind every join entry point (internal).
//
// JoinService (sj/service.cpp) runs every join — its own run()/
// submit()/self_join(), the JoinEngine facade's (sj/engine.hpp) and
// the free self_join's — through plan_and_execute() (sj/pipeline.cpp):
// one run function for Self, R×S and KNN. It validates the request,
// syncs the dataset's caches, resolves every plan artifact through
// detail::ServicePlanSource (the service's reader/writer-locked,
// single-flight SharedDataset caches) and hands the plan to the
// batched execution stage (sj/execute.hpp). Because a warm run and a
// cold run take this same code with only the caches' hit/miss answers
// differing, they stay bit-identical (same spans, same stats, same
// results) for the same request.
//
// Artifacts are keyed by mode: R×S workloads/D' index *probe* points
// and every plan/estimate cache entry carries probe_signature(cfg), so
// artifacts of different modes or probe datasets/generations never
// alias (Self artifacts carry signature 0). A request's *answer* is
// keyed separately, by detail::ResultKey of the result-serving layer
// (sj/result_cache.hpp, reached here through sj/service.hpp), which
// answers submitted requests before they reach this pipeline.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>

#include "common/check.hpp"
#include "sj/execute.hpp"
#include "sj/service.hpp"

namespace gsj::detail {

/// Identity of the *second* dataset of an R×S/KNN request for the plan
/// and estimate caches: a mix of the probe's process-unique uid and its
/// mutation generation, forced odd so it can never collide with the 0
/// that tags Self-join artifacts. Self (or a missing probe — caught by
/// validation) maps to 0.
[[nodiscard]] inline std::uint64_t probe_signature(const SelfJoinConfig& cfg) {
  if (cfg.mode == JoinMode::Self || cfg.probe == nullptr) return 0;
  std::uint64_t h = cfg.probe->uid() * 0x9e3779b97f4a7c15ull;
  h ^= cfg.probe->generation() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h | 1u;
}

/// The request's key into the estimate caches — skew is part of it so
/// fault-injection runs never collide with honest ones.
[[nodiscard]] inline EstimateKey estimate_key(const SelfJoinConfig& cfg) {
  return {std::bit_cast<std::uint64_t>(cfg.batching.sample_fraction),
          std::bit_cast<std::uint64_t>(cfg.batching.inject_estimator_skew),
          probe_signature(cfg)};
}

/// Throws CheckError unless `cfg` is a runnable request against `ds` —
/// every check a cold run makes before touching a cache, in order. The
/// service runs it before the result gate too and sends a rejected
/// request straight here, so a cached answer can never mask a request
/// that a cold run rejects.
inline void validate_request(const SelfJoinConfig& cfg, const Dataset& ds) {
  if (cfg.mode == JoinMode::Knn) {
    GSJ_CHECK_MSG(cfg.probe != nullptr, "knn join requires cfg.probe");
    GSJ_CHECK_MSG(cfg.knn_k >= 1, "knn_k must be >= 1, got " << cfg.knn_k);
    GSJ_CHECK_MSG(cfg.knn_growth > 1.0,
                  "knn_growth must be > 1, got " << cfg.knn_growth);
    GSJ_CHECK_MSG(cfg.knn_initial_epsilon >= 0.0,
                  "knn_initial_epsilon must be >= 0");
    GSJ_CHECK_MSG(!ds.empty(), "empty dataset");
    GSJ_CHECK_MSG(cfg.probe->dims() == ds.dims(),
                  "probe dims=" << cfg.probe->dims() << " vs dataset dims="
                                << ds.dims());
    return;
  }
  GSJ_CHECK_MSG(cfg.epsilon > 0.0, "epsilon must be positive");
  GSJ_CHECK_MSG(!ds.empty(), "empty dataset");
  if (cfg.mode == JoinMode::RxS) {
    GSJ_CHECK_MSG(cfg.probe != nullptr, "rxs join requires cfg.probe");
    GSJ_CHECK_MSG(cfg.probe->dims() == ds.dims(),
                  "probe dims=" << cfg.probe->dims() << " vs dataset dims="
                                << ds.dims());
  }
  GSJ_CHECK_MSG(cfg.k >= 1 && cfg.device.warp_size % cfg.k == 0,
                "k=" << cfg.k << " must divide warp_size="
                     << cfg.device.warp_size);
  cfg.batching.validate();
  // Fleet validation covers the base device config too; num_devices==1
  // keeps the classic single-device path byte-identical.
  cfg.fleet.validate(cfg.device);
}

/// Runs one join of any mode against `sd`'s shared caches into `out`.
/// `robs` carries a submit()ted request's attribution bundle (null for
/// run()/self_join(), which are not requests). Throws as a cold
/// self_join does (CheckError, OverflowError), plus CancelledError.
void plan_and_execute(JoinService& svc, SharedDataset& sd,
                      const SelfJoinConfig& cfg, ScratchArena& arena,
                      const std::atomic<bool>* cancel, obs::RequestObs* robs,
                      SelfJoinOutput& out);

/// `sd`'s ε grid, synced and resolved through the shared cache — how
/// JoinService::delta_join warms the same grid later joins hit.
[[nodiscard]] std::shared_ptr<const GridIndex> shared_grid(JoinService& svc,
                                                           SharedDataset& sd,
                                                           double epsilon);

}  // namespace gsj::detail
