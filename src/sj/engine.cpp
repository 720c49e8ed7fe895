#include "sj/engine.hpp"

namespace gsj {

namespace {

ServiceConfig service_config(const EngineConfig& cfg) {
  ServiceConfig s;
  s.max_cached_grids = cfg.max_cached_grids;
  s.max_cached_plans = cfg.max_cached_plans;
  s.obs = cfg.obs;
  return s;
}

}  // namespace

JoinEngine::JoinEngine(EngineConfig cfg)
    : cfg_(cfg), svc_(service_config(cfg)) {}

PreparedDataset JoinEngine::prepare(const Dataset& ds) {
  return PreparedDataset(svc_.attach(ds));
}

SelfJoinOutput JoinEngine::run(PreparedDataset& prep,
                               const SelfJoinConfig& cfg) {
  return svc_.run(*prep.sd_, cfg);
}

SelfJoinOutput JoinEngine::self_join(const Dataset& ds,
                                     const SelfJoinConfig& cfg) {
  return svc_.self_join(ds, cfg);
}

std::optional<PairDelta> JoinEngine::delta_join(PreparedDataset& prep,
                                                double epsilon,
                                                std::uint64_t from_generation) {
  return svc_.delta_join(*prep.sd_, epsilon, from_generation);
}

void JoinEngine::recycle(SelfJoinOutput&& out) {
  svc_.recycle(std::move(out));
}

}  // namespace gsj
