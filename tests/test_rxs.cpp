// Directed R×S ε-join tests (docs/JOINS.md): degenerate shapes, the
// canonical (r_id, s_id) orientation contract, overflow recovery,
// result-cache / coalescing key isolation across join modes, and the
// pinned ResultKey regression (a Self hit must never serve an R×S
// request, and a probe mutation must rotate the key).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "grid/grain.hpp"
#include "sj/engine.hpp"
#include "sj/pipeline.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"
#include "support/oracle.hpp"

namespace gsj {
namespace {

using testsupport::brute_force_rxs;
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

TEST(RxsJoin, EmptyEitherSideReturnsEmpty) {
  const Dataset empty(2);
  const Dataset one = line_dataset(1, 0.0, 1.0);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.5);
  cfg.store_pairs = true;
  for (const auto& [r, s] : {std::pair{&empty, &one}, std::pair{&one, &empty},
                             std::pair{&empty, &empty}}) {
    const SelfJoinOutput out = rxs_join(*r, *s, cfg);
    EXPECT_TRUE(out.results.pairs().empty());
    EXPECT_EQ(out.stats.result_pairs, 0u);
  }
}

TEST(RxsJoin, ZeroEpsilonThrows) {
  const Dataset r = line_dataset(3, 0.0, 1.0);
  const Dataset s = line_dataset(3, 0.5, 1.0);
  SelfJoinConfig cfg;
  cfg.epsilon = 0.0;
  EXPECT_THROW((void)rxs_join(r, s, cfg), CheckError);
  cfg.epsilon = -1.0;
  EXPECT_THROW((void)rxs_join(r, s, cfg), CheckError);
}

TEST(RxsJoin, MismatchedDimsThrows) {
  const Dataset r = line_dataset(3, 0.0, 1.0);
  Dataset s(3);
  const double p[] = {0.0, 0.0, 0.0};
  s.push_back(p);
  EXPECT_THROW((void)rxs_join(r, s, SelfJoinConfig::combined(0.5)),
               CheckError);
}

TEST(RxsJoin, SinglePointEachSide) {
  const Dataset r = line_dataset(1, 0.0, 1.0);
  const Dataset near = line_dataset(1, 0.3, 1.0);
  const Dataset far = line_dataset(1, 5.0, 1.0);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.5);
  cfg.store_pairs = true;
  const SelfJoinOutput hit = rxs_join(r, near, cfg);
  ASSERT_EQ(hit.results.pairs().size(), 1u);
  EXPECT_EQ(hit.results.pairs()[0], ResultPair(0, 0));
  const SelfJoinOutput miss = rxs_join(r, far, cfg);
  EXPECT_TRUE(miss.results.pairs().empty());
}

TEST(RxsJoin, OrientationIsAlwaysRThenS) {
  // |R| >> |S| grids S; |R| << |S| grids R and flips the emitted pairs.
  // Both orientations must produce identical (r_id, s_id) pairs.
  const Dataset big = line_dataset(40, 0.0, 0.1);
  const Dataset small = line_dataset(3, 0.05, 0.1);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.2);
  cfg.store_pairs = true;
  const ResultSet want_big_r = brute_force_rxs(big, small, 0.2);
  const SelfJoinOutput a = rxs_join(big, small, cfg);
  EXPECT_EQ(a.results.pairs(), want_big_r.pairs());
  const ResultSet want_small_r = brute_force_rxs(small, big, 0.2);
  const SelfJoinOutput b = rxs_join(small, big, cfg);
  EXPECT_EQ(b.results.pairs(), want_small_r.pairs());
}

TEST(RxsJoin, OverflowRecoveryIsBitIdentical) {
  // A buffer far below the result size forces rollback + split
  // recovery; the recovered run must be bit-identical to an unbounded
  // one — in both join modes. Strided variant: WORKQUEUE's hard
  // per-point bound can never overflow by construction.
  const RxsCase c = make_rxs_case(5);  // seed % 6 == 5: duplicates family
  SelfJoinConfig roomy = SelfJoinConfig::lid_unicomp(c.epsilon);
  roomy.store_pairs = true;
  const SelfJoinOutput want = rxs_join(c.r, c.s, roomy);
  ASSERT_GT(want.results.pairs().size(), 64u);

  SelfJoinConfig tight = roomy;
  tight.batching.buffer_pairs = 64;
  tight.batching.inject_estimator_skew = 0.02;  // plan far too few batches
  const SelfJoinOutput got = rxs_join(c.r, c.s, tight);
  EXPECT_TRUE(got.stats.buffer_overflowed);
  EXPECT_GT(got.stats.overflow_retries, 0u);
  EXPECT_EQ(got.results.pairs(), want.results.pairs());

  // Self mode on the same gridded side, same tight buffer: the shared
  // recovery path must stay bit-identical there too.
  SelfJoinConfig self_tight = SelfJoinConfig::lid_unicomp(c.epsilon);
  self_tight.store_pairs = true;
  self_tight.batching.buffer_pairs = 64;
  self_tight.batching.inject_estimator_skew = 0.02;
  SelfJoinConfig self_roomy = SelfJoinConfig::lid_unicomp(c.epsilon);
  self_roomy.store_pairs = true;
  const SelfJoinOutput self_want = self_join(c.s, self_roomy);
  const SelfJoinOutput self_got = self_join(c.s, self_tight);
  EXPECT_EQ(self_got.results.pairs(), self_want.results.pairs());
}

TEST(RxsJoin, ResultCacheNeverCrossesModes) {
  // The ISSUE's latent-collision regression, behavioral form: a cached
  // Self answer at ε must never serve an R×S request at the same ε on
  // the same dataset, and vice versa.
  const RxsCase c = make_rxs_case(13);  // overlapping family
  JoinService svc;
  const auto sd = svc.attach(c.s);

  JoinRequest self_req;
  self_req.config = SelfJoinConfig::combined(c.epsilon);
  self_req.config.store_pairs = true;
  const JoinResponse self1 = svc.submit(sd, self_req).get();
  ASSERT_EQ(self1.status, JoinStatus::Ok) << self1.error;
  ASSERT_EQ(self1.breakdown.served_from, obs::ServedFrom::Execution);

  // Same ε, R×S mode: must execute, not hit the Self entry.
  JoinRequest rxs_req;
  rxs_req.config = SelfJoinConfig::combined(c.epsilon);
  rxs_req.config.store_pairs = true;
  rxs_req.config.mode = JoinMode::RxS;
  rxs_req.config.probe = &c.r;
  const JoinResponse rxs1 = svc.submit(sd, rxs_req).get();
  ASSERT_EQ(rxs1.status, JoinStatus::Ok) << rxs1.error;
  EXPECT_EQ(rxs1.breakdown.served_from, obs::ServedFrom::Execution);
  const ResultSet truth = brute_force_rxs(c.r, c.s, c.epsilon);
  EXPECT_EQ(rxs1.output.results.pairs(), truth.pairs());

  // Repeats hit their own entries, each serving its own pair set.
  const JoinResponse rxs2 = svc.submit(sd, rxs_req).get();
  ASSERT_EQ(rxs2.status, JoinStatus::Ok);
  EXPECT_EQ(rxs2.breakdown.served_from, obs::ServedFrom::ResultCache);
  EXPECT_EQ(rxs2.output.results.pairs(), truth.pairs());
  const JoinResponse self2 = svc.submit(sd, self_req).get();
  ASSERT_EQ(self2.status, JoinStatus::Ok);
  EXPECT_EQ(self2.breakdown.served_from, obs::ServedFrom::ResultCache);
  EXPECT_EQ(self2.output.results.pairs(), self1.output.results.pairs());
}

TEST(RxsJoin, ProbeMutationRotatesCacheKey) {
  RxsCase c = make_rxs_case(19);  // overlapping family
  JoinService svc;
  const auto sd = svc.attach(c.s);
  JoinRequest req;
  req.config = SelfJoinConfig::combined(c.epsilon);
  req.config.store_pairs = true;
  req.config.mode = JoinMode::RxS;
  req.config.probe = &c.r;
  const JoinResponse r1 = svc.submit(sd, req).get();
  ASSERT_EQ(r1.status, JoinStatus::Ok) << r1.error;

  // Move a probe point: its generation advances, so the cached entry
  // must not serve the new request — and the re-executed answer must
  // match the post-mutation oracle.
  std::vector<double> p(static_cast<std::size_t>(c.r.dims()));
  for (int d = 0; d < c.r.dims(); ++d) {
    p[static_cast<std::size_t>(d)] = c.r.coord(0, d);
  }
  p[0] += 3.0 * c.epsilon;
  c.r.move_point(0, p);
  const JoinResponse r2 = svc.submit(sd, req).get();
  ASSERT_EQ(r2.status, JoinStatus::Ok) << r2.error;
  EXPECT_EQ(r2.breakdown.served_from, obs::ServedFrom::Execution);
  EXPECT_EQ(r2.output.results.pairs(),
            brute_force_rxs(c.r, c.s, c.epsilon).pairs());
}

TEST(RxsJoin, SelfSubsumptionDoesNotServeRxs) {
  // A wide-ε Self entry with pairs is a subsumption candidate for
  // narrower Self requests — but never for an R×S request at a
  // narrower ε.
  const RxsCase c = make_rxs_case(25);  // overlapping family
  JoinService svc;
  const auto sd = svc.attach(c.s);
  JoinRequest wide;
  wide.config = SelfJoinConfig::combined(c.epsilon);
  wide.config.store_pairs = true;
  ASSERT_EQ(svc.submit(sd, wide).get().status, JoinStatus::Ok);

  JoinRequest narrow_rxs;
  narrow_rxs.config = SelfJoinConfig::combined(0.5 * c.epsilon);
  narrow_rxs.config.store_pairs = true;
  narrow_rxs.config.mode = JoinMode::RxS;
  narrow_rxs.config.probe = &c.r;
  const JoinResponse r = svc.submit(sd, narrow_rxs).get();
  ASSERT_EQ(r.status, JoinStatus::Ok) << r.error;
  EXPECT_EQ(r.breakdown.served_from, obs::ServedFrom::Execution);
  EXPECT_EQ(r.output.results.pairs(),
            brute_force_rxs(c.r, c.s, 0.5 * c.epsilon).pairs());
}

TEST(RxsJoin, ResultKeyPinnedRegression) {
  // The latent collision this PR fixes: ResultKey ignored the join
  // mode and the probe's identity, so a Self answer could be handed to
  // an R×S request (or a stale probe generation's answer to a fresh
  // one). Pin the digest separation directly.
  const Dataset gridded = line_dataset(4, 0.0, 1.0);
  Dataset probe = line_dataset(4, 0.5, 1.0);

  SelfJoinConfig self_cfg = SelfJoinConfig::combined(0.5);
  SelfJoinConfig rxs_cfg = self_cfg;
  rxs_cfg.mode = JoinMode::RxS;
  rxs_cfg.probe = &probe;
  SelfJoinConfig knn_cfg = self_cfg;
  knn_cfg.mode = JoinMode::Knn;
  knn_cfg.probe = &probe;
  knn_cfg.knn_k = 3;

  const auto self_key = detail::make_result_key(1, self_cfg);
  const auto rxs_key = detail::make_result_key(1, rxs_cfg);
  const auto knn_key = detail::make_result_key(1, knn_cfg);
  EXPECT_NE(self_key.config_digest, rxs_key.config_digest);
  EXPECT_NE(self_key.config_digest, knn_key.config_digest);
  EXPECT_NE(rxs_key.config_digest, knn_key.config_digest);

  // Probe identity: a different dataset (fresh uid) and a mutated
  // probe (same uid, new generation) both rotate the digest.
  const Dataset other_probe = line_dataset(4, 0.5, 1.0);
  SelfJoinConfig other_cfg = rxs_cfg;
  other_cfg.probe = &other_probe;
  EXPECT_NE(detail::make_result_key(1, other_cfg).config_digest,
            rxs_key.config_digest);
  const std::uint64_t before = detail::make_result_key(1, rxs_cfg).config_digest;
  probe.set_coord(0, 0, 9.0);
  EXPECT_NE(detail::make_result_key(1, rxs_cfg).config_digest, before);

  // KNN knobs are part of the key: k, growth, and the initial ε.
  SelfJoinConfig knn_k5 = knn_cfg;
  knn_k5.knn_k = 5;
  EXPECT_NE(detail::make_result_key(1, knn_k5).config_digest,
            detail::make_result_key(1, knn_cfg).config_digest);
  SelfJoinConfig knn_g3 = knn_cfg;
  knn_g3.knn_growth = 3.0;
  EXPECT_NE(detail::make_result_key(1, knn_g3).config_digest,
            detail::make_result_key(1, knn_cfg).config_digest);

  // KNN never reads cfg.epsilon (the widening schedule replaces it), so
  // the whole key is equal across ε.
  SelfJoinConfig knn_other_eps = knn_cfg;
  knn_other_eps.epsilon = 0.25;
  EXPECT_EQ(detail::make_result_key(1, knn_other_eps),
            detail::make_result_key(1, knn_cfg));
  knn_other_eps.epsilon = 0.0;
  EXPECT_EQ(detail::make_result_key(1, knn_other_eps),
            detail::make_result_key(1, knn_cfg));

  // Variant knobs stay out of the digest: the key is variant-agnostic
  // (the existing Self behaviour, preserved).
  SelfJoinConfig other_variant = SelfJoinConfig::unicomp(0.5);
  EXPECT_EQ(detail::make_result_key(1, other_variant).config_digest,
            self_key.config_digest);

  // And the digest is byte-sensitive, not low-byte-truncated: two
  // probe generations that share a low byte must not collide. (The
  // full-64-bit FNV fold guarantees it; pin one concrete instance.)
  EXPECT_NE(self_key.config_digest, 0u);
}

TEST(RxsJoin, FleetProbeGrainsCoverEveryProbePoint) {
  // Direct unit check of the R×S grain partitioner: grains are
  // contiguous, cover [0, n), and respect max_grains.
  const std::vector<std::uint64_t> w = {9, 1, 1, 1, 9, 1, 1, 1};
  const auto grains = partition_probe_grains(w.size(), w, 4);
  ASSERT_FALSE(grains.empty());
  ASSERT_LE(grains.size(), 4u);
  EXPECT_EQ(grains.front().point_begin, 0u);
  EXPECT_EQ(grains.back().point_end, w.size());
  for (std::size_t i = 1; i < grains.size(); ++i) {
    EXPECT_EQ(grains[i].point_begin, grains[i - 1].point_end);
  }
  std::uint64_t total = 0;
  for (const auto& g : grains) total += g.workload;
  std::uint64_t want = 0;
  for (const auto x : w) want += x + 1;
  EXPECT_EQ(total, want);

  // Uniform weights when no workload vector is supplied.
  const auto uniform = partition_probe_grains(10, {}, 3);
  ASSERT_EQ(uniform.size(), 3u);
  EXPECT_EQ(uniform.back().point_end, 10u);

  // Degenerate inputs.
  EXPECT_TRUE(partition_probe_grains(0, {}, 4).empty());
  EXPECT_EQ(partition_probe_grains(2, {}, 8).size(), 2u);
}

}  // namespace
}  // namespace gsj
