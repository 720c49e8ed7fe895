// Directed KNN-join tests (docs/JOINS.md): the k clamp, degenerate
// shapes, the (distance², id) tie-break, byte-identical widening
// determinism under logical-time tracing, grid-cache reuse across the
// widening rounds, and mode isolation on the service result cache.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"
#include "support/oracle.hpp"

namespace gsj {
namespace {

using testsupport::brute_force_knn;
using testsupport::make_rxs_case;
using testsupport::RxsCase;

Dataset line_dataset(int n, double x0, double step) {
  Dataset ds(2);
  for (int i = 0; i < n; ++i) {
    const double p[] = {x0 + i * step, 0.0};
    ds.push_back(p);
  }
  return ds;
}

TEST(KnnJoin, KGreaterThanNReturnsAllNeighbors) {
  const Dataset ds = line_dataset(5, 0.0, 1.0);
  const Dataset queries = line_dataset(3, 0.25, 1.0);
  SelfJoinConfig cfg;
  cfg.store_pairs = true;
  const SelfJoinOutput out = knn_join(ds, queries, 100, cfg);
  EXPECT_EQ(out.results.pairs().size(), 3u * 5u);
  EXPECT_EQ(out.results.pairs(), brute_force_knn(ds, queries, 100).pairs());
}

TEST(KnnJoin, KEqualsOneFindsTheNearest) {
  const Dataset ds = line_dataset(10, 0.0, 1.0);
  Dataset queries(2);
  const double q[] = {3.4, 0.0};  // nearest is id 3
  queries.push_back(q);
  SelfJoinConfig cfg;
  cfg.store_pairs = true;
  const SelfJoinOutput out = knn_join(ds, queries, 1, cfg);
  ASSERT_EQ(out.results.pairs().size(), 1u);
  EXPECT_EQ(out.results.pairs()[0], ResultPair(0, 3));
}

TEST(KnnJoin, EmptyQueriesReturnsEmpty) {
  const Dataset ds = line_dataset(5, 0.0, 1.0);
  const Dataset queries(2);
  SelfJoinConfig cfg;
  cfg.store_pairs = true;
  const SelfJoinOutput out = knn_join(ds, queries, 2, cfg);
  EXPECT_TRUE(out.results.pairs().empty());
  EXPECT_EQ(out.stats.result_pairs, 0u);
}

TEST(KnnJoin, InvalidConfigThrows) {
  const Dataset ds = line_dataset(5, 0.0, 1.0);
  const Dataset queries = line_dataset(2, 0.0, 1.0);
  SelfJoinConfig cfg;
  EXPECT_THROW((void)knn_join(Dataset(2), queries, 1, cfg), CheckError);
  EXPECT_THROW((void)knn_join(ds, queries, 0, cfg), CheckError);
  SelfJoinConfig bad_growth;
  bad_growth.knn_growth = 1.0;
  EXPECT_THROW((void)knn_join(ds, queries, 1, bad_growth), CheckError);
  Dataset wrong_dims(3);
  const double p[] = {0.0, 0.0, 0.0};
  wrong_dims.push_back(p);
  EXPECT_THROW((void)knn_join(ds, wrong_dims, 1, cfg), CheckError);
}

TEST(KnnJoin, SelfQueryCountsItself) {
  // A query bit-identical to a data point has that point as its
  // nearest neighbor (distance 0): documented self-match semantics.
  const Dataset ds = line_dataset(4, 0.0, 1.0);
  Dataset queries(2);
  const double q[] = {2.0, 0.0};  // == ds point id 2
  queries.push_back(q);
  SelfJoinConfig cfg;
  cfg.store_pairs = true;
  const SelfJoinOutput out = knn_join(ds, queries, 1, cfg);
  ASSERT_EQ(out.results.pairs().size(), 1u);
  EXPECT_EQ(out.results.pairs()[0], ResultPair(0, 2));
}

TEST(KnnJoin, WideningIsDeterministicByteIdenticalSpans) {
  // Two identical runs under logical-time tracers must produce
  // byte-identical Chrome traces: same rounds, same span sequence,
  // same tick arithmetic — the widening schedule has no wall-clock or
  // iteration-order freedom.
  const RxsCase c = make_rxs_case(31);  // overlapping family
  const auto run_traced = [&](std::string* json) {
    obs::Tracer tracer(obs::TimeMode::Logical);
    SelfJoinConfig cfg;
    cfg.store_pairs = true;
    cfg.tracer = &tracer;
    const SelfJoinOutput out = knn_join(c.s, c.r, 4, cfg);
    std::ostringstream os;
    tracer.write_chrome_json(os);
    *json = os.str();
    return out;
  };
  std::string json_a;
  std::string json_b;
  const SelfJoinOutput a = run_traced(&json_a);
  const SelfJoinOutput b = run_traced(&json_b);
  EXPECT_EQ(a.results.pairs(), b.results.pairs());
  EXPECT_EQ(a.stats.knn_rounds, b.stats.knn_rounds);
  EXPECT_EQ(a.stats.knn_final_epsilon, b.stats.knn_final_epsilon);
  EXPECT_EQ(json_a, json_b);
  EXPECT_FALSE(json_a.empty());
}

TEST(KnnJoin, WideningStatsAreReported) {
  const RxsCase c = make_rxs_case(37);  // overlapping family
  SelfJoinConfig cfg;
  cfg.store_pairs = true;
  const SelfJoinOutput out = knn_join(c.s, c.r, 3, cfg);
  EXPECT_GE(out.stats.knn_rounds, 1u);
  EXPECT_GT(out.stats.knn_final_epsilon, 0.0);

  // A generous explicit ε₀ resolves every query in round one.
  SelfJoinConfig wide;
  wide.store_pairs = true;
  wide.knn_initial_epsilon = 1e6;
  const SelfJoinOutput one = knn_join(c.s, c.r, 3, wide);
  EXPECT_EQ(one.stats.knn_rounds, 1u);
  EXPECT_EQ(one.results.pairs(), out.results.pairs());
}

TEST(KnnJoin, GridCacheServesRepeatWideningRounds) {
  // The per-ε LRU grid cache is what makes the widening schedule
  // affordable: a second KNN run over the same schedule must resolve
  // its grids from cache. Pin the schedule with an explicit ε₀ and
  // force a re-execution (count-only first, pairs second — the result
  // key matches but the cached entry lacks pairs).
  const RxsCase c = make_rxs_case(43);  // overlapping family
  ServiceConfig scfg;
  // Generous grid LRU: the whole widening schedule must stay resident,
  // or the second run's in-order re-resolution thrashes the cache.
  scfg.max_cached_grids = 64;
  JoinService svc(scfg);
  const auto sd = svc.attach(c.s);
  JoinRequest first;
  first.config.mode = JoinMode::Knn;
  first.config.probe = &c.r;
  first.config.knn_k = 4;
  first.config.knn_initial_epsilon = 0.05 * c.epsilon;
  first.config.store_pairs = false;
  const JoinResponse r1 = svc.submit(sd, first).get();
  ASSERT_EQ(r1.status, JoinStatus::Ok) << r1.error;
  ASSERT_GE(r1.output.stats.knn_rounds, 2u);
  EXPECT_GT(r1.breakdown.grid_misses, 0u);

  JoinRequest second = first;
  second.config.store_pairs = true;
  const JoinResponse r2 = svc.submit(sd, second).get();
  ASSERT_EQ(r2.status, JoinStatus::Ok) << r2.error;
  EXPECT_EQ(r2.breakdown.served_from, obs::ServedFrom::Execution);
  // Every round's grid was already resident (up to LRU capacity).
  EXPECT_GT(r2.breakdown.grid_hits, 0u);
  EXPECT_EQ(r2.output.results.pairs(),
            brute_force_knn(c.s, c.r, 4).pairs());
}

TEST(KnnJoin, ZeroEpsilonRequestIsValidOnService) {
  // KNN ignores cfg.epsilon (the widening schedule replaces it); the
  // service admission/result gate must not bounce epsilon == 0 for
  // Knn the way it would for Self — the sjtool convention sends 0.
  const RxsCase c = make_rxs_case(49);  // overlapping family
  JoinService svc;
  const auto sd = svc.attach(c.s);
  JoinRequest req;
  req.config.mode = JoinMode::Knn;
  req.config.probe = &c.r;
  req.config.knn_k = 2;
  req.config.epsilon = 0.0;
  req.config.store_pairs = true;
  const JoinResponse r = svc.submit(sd, req).get();
  ASSERT_EQ(r.status, JoinStatus::Ok) << r.error;
  EXPECT_EQ(r.output.results.pairs(), brute_force_knn(c.s, c.r, 2).pairs());
  // And the repeat is an exact cache hit under the same zero-ε key.
  const JoinResponse r2 = svc.submit(sd, req).get();
  ASSERT_EQ(r2.status, JoinStatus::Ok);
  EXPECT_EQ(r2.breakdown.served_from, obs::ServedFrom::ResultCache);
}

TEST(KnnJoin, ResultCacheServesKnnAtAnyEpsilon) {
  // KNN's answer does not depend on cfg.epsilon, so a repeat that
  // differs only in that field is an exact result-cache hit.
  const RxsCase c = make_rxs_case(61);  // overlapping family
  JoinService svc;
  const auto sd = svc.attach(c.s);
  JoinRequest req;
  req.config.mode = JoinMode::Knn;
  req.config.probe = &c.r;
  req.config.knn_k = 4;
  req.config.epsilon = 0.1;
  req.config.store_pairs = true;
  const JoinResponse cold = svc.submit(sd, req).get();
  ASSERT_EQ(cold.status, JoinStatus::Ok) << cold.error;
  EXPECT_EQ(cold.breakdown.served_from, obs::ServedFrom::Execution);

  req.config.epsilon = 0.2;
  const JoinResponse warm = svc.submit(sd, req).get();
  ASSERT_EQ(warm.status, JoinStatus::Ok) << warm.error;
  EXPECT_EQ(warm.breakdown.served_from, obs::ServedFrom::ResultCache);
  EXPECT_EQ(warm.output.results.pairs(), cold.output.results.pairs());
  EXPECT_EQ(warm.output.stats.knn_rounds, cold.output.stats.knn_rounds);
  EXPECT_EQ(warm.output.stats.knn_final_epsilon,
            cold.output.stats.knn_final_epsilon);
  EXPECT_EQ(warm.output.results.pairs(), brute_force_knn(c.s, c.r, 4).pairs());
}

TEST(KnnJoin, SelfCacheNeverServesKnn) {
  const RxsCase c = make_rxs_case(55);  // overlapping family
  JoinService svc;
  const auto sd = svc.attach(c.s);
  JoinRequest self_req;
  self_req.config = SelfJoinConfig::combined(c.epsilon);
  self_req.config.store_pairs = true;
  ASSERT_EQ(svc.submit(sd, self_req).get().status, JoinStatus::Ok);

  JoinRequest knn_req;
  knn_req.config.mode = JoinMode::Knn;
  knn_req.config.probe = &c.r;
  knn_req.config.knn_k = 3;
  knn_req.config.epsilon = c.epsilon;  // same ε as the Self entry
  knn_req.config.store_pairs = true;
  const JoinResponse r = svc.submit(sd, knn_req).get();
  ASSERT_EQ(r.status, JoinStatus::Ok) << r.error;
  EXPECT_EQ(r.breakdown.served_from, obs::ServedFrom::Execution);
  EXPECT_EQ(r.output.results.pairs(), brute_force_knn(c.s, c.r, 3).pairs());
}

}  // namespace
}  // namespace gsj
