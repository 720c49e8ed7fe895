// JoinService concurrency tests: the correctness bar is that any
// interleaving of concurrent clients is bit-identical to running the
// same requests serially on a cold engine. CI runs this suite under
// ThreadSanitizer (twice) in the service-stress job.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <latch>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "data/generators.hpp"
#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/engine.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"

namespace gsj {
namespace {

/// One run's observable outcome: pairs, stats and the logical trace —
/// the byte-level identity witness.
struct RunRecord {
  SelfJoinOutput out;
  std::string trace_json;
};

RunRecord record_run(JoinService& svc, SharedDataset& sd, SelfJoinConfig cfg) {
  obs::Tracer tracer(obs::TimeMode::Logical);
  cfg.tracer = &tracer;
  RunRecord r;
  r.out = svc.run(sd, cfg);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  r.trace_json = os.str();
  return r;
}

/// The serial oracle: the same request on a fresh, cold JoinEngine.
RunRecord record_cold_engine_run(const Dataset& ds, SelfJoinConfig cfg) {
  obs::Tracer tracer(obs::TimeMode::Logical);
  cfg.tracer = &tracer;
  JoinEngine engine;
  RunRecord r;
  r.out = engine.self_join(ds, cfg);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  r.trace_json = os.str();
  return r;
}

void expect_bit_identical(const RunRecord& got, const RunRecord& want,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.out.results.pairs(), want.out.results.pairs());
  const auto& a = got.out.stats;
  const auto& b = want.out.stats;
  EXPECT_EQ(a.result_pairs, b.result_pairs);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.estimated_total_pairs, b.estimated_total_pairs);
  EXPECT_EQ(a.kernel.busy_cycles, b.kernel.busy_cycles);
  EXPECT_EQ(a.kernel.makespan_cycles, b.kernel.makespan_cycles);
  EXPECT_EQ(a.kernel.warps_launched, b.kernel.warps_launched);
  EXPECT_EQ(a.kernel.results_emitted, b.kernel.results_emitted);
  EXPECT_EQ(a.max_batch_pairs, b.max_batch_pairs);
  EXPECT_EQ(a.overflow_retries, b.overflow_retries);
  EXPECT_EQ(got.trace_json, want.trace_json);
}

/// The request mix one stress client issues: every variant, two radii,
/// sequential and host-parallel execution, multi-batch plans.
std::vector<SelfJoinConfig> client_mix() {
  std::vector<SelfJoinConfig> cfgs;
  for (const double eps : {0.03, 0.06}) {
    cfgs.push_back(SelfJoinConfig::gpu_calc_global(eps));
    cfgs.push_back(SelfJoinConfig::unicomp(eps));
    cfgs.push_back(SelfJoinConfig::lid_unicomp(eps));
    cfgs.push_back(SelfJoinConfig::sort_by_wl(eps));
    cfgs.push_back(SelfJoinConfig::work_queue_cfg(eps));
    cfgs.push_back(SelfJoinConfig::combined(eps));
  }
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].store_pairs = true;
    // Small buffer -> several batches, so concurrent runs exercise the
    // multi-batch execution loop, not just one launch each.
    cfgs[i].batching.buffer_pairs = 20000;
    // Alternate sequential and host-parallel simulation so the pool
    // depot is exercised alongside the shared caches.
    cfgs[i].device.host.num_threads = (i % 2 == 0) ? 0 : 2;
  }
  return cfgs;
}

/// A "blocker": a request that, left alone, runs for seconds, so a
/// cancel lands at the next batch boundary. Run as a direct self_join
/// in a Release build on a 4-vCPU x86-64 host, the same request takes
/// 1.7–1.9 s over 3,422 batches of about half a millisecond each: its
/// 50,000-pair buffer cuts the 4.5 M-pair join that finely, and its 6-d
/// uniform points give every query the 729-cell adjacency window.
/// Every test that submits one cancels it.
JoinService::Ticket submit_blocker(JoinService& svc) {
  static const Dataset ds = gen_uniform(12'000, 6, 5, 0.0, 1.0);
  JoinRequest r;
  r.config = SelfJoinConfig::combined(0.5);
  r.config.store_pairs = false;
  r.config.batching.buffer_pairs = 50'000;
  return svc.submit(svc.attach(ds), r);
}

/// Submits a blocker and waits until a worker is executing it.
JoinService::Ticket start_blocker(JoinService& svc) {
  JoinService::Ticket t = submit_blocker(svc);
  while (!t.started()) std::this_thread::yield();
  return t;
}

// ---------------------------------------------------------------------------
// The acceptance-bar stress: 4 client threads with mixed variants and
// epsilons against one service, plus a mid-flight cancellation riding
// the worker pool, all bit-identical to a serial cold-engine replay.

TEST(Service, ConcurrentClientsBitIdenticalToSerialColdReplay) {
  const Dataset ds = gen_uniform(1200, 2, /*seed=*/2025, 0.0, 1.0);
  JoinService svc;
  const auto sd = svc.attach(ds);

  constexpr int kClients = 4;
  const std::vector<SelfJoinConfig> mix = client_mix();
  std::vector<std::vector<RunRecord>> results(kClients);
  std::latch start(kClients);

  // One queued request cancelled genuinely mid-flight while the client
  // threads hammer the shared caches.
  JoinService::Ticket victim_ticket = submit_blocker(svc);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      start.arrive_and_wait();
      // Each client walks the mix at a different phase so distinct
      // (epsilon, variant) cells are in flight simultaneously.
      for (std::size_t i = 0; i < mix.size(); ++i) {
        const std::size_t j = (i + static_cast<std::size_t>(t) * 3) % mix.size();
        results[t].push_back(record_run(svc, *sd, mix[j]));
      }
    });
  }
  while (!victim_ticket.started()) std::this_thread::yield();
  victim_ticket.cancel();
  for (auto& c : clients) c.join();

  const JoinResponse victim_response = victim_ticket.get();
  EXPECT_EQ(victim_response.status, JoinStatus::Cancelled);

  // Serial replay: every request on its own cold engine.
  for (int t = 0; t < kClients; ++t) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const std::size_t j = (i + static_cast<std::size_t>(t) * 3) % mix.size();
      const RunRecord want = record_cold_engine_run(ds, mix[j]);
      expect_bit_identical(results[t][i], want,
                           "client " + std::to_string(t) + " req " +
                               std::to_string(i) + " (" + mix[j].name() +
                               " eps=" + std::to_string(mix[j].epsilon) + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Single-flight: N clients racing on a cold cache build each artifact
// exactly once — the misses counter IS the build counter.

TEST(Service, SingleFlightBuildsEachArtifactOnce) {
  const Dataset ds = gen_uniform(3000, 2, 7, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  constexpr int kClients = 8;
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  std::latch start(kClients);
  std::vector<std::thread> clients;
  std::vector<std::uint64_t> pair_counts(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      start.arrive_and_wait();
      pair_counts[static_cast<std::size_t>(t)] =
          svc.run(*sd, cfg).stats.result_pairs;
    });
  }
  for (auto& c : clients) c.join();

  for (int t = 1; t < kClients; ++t) {
    EXPECT_EQ(pair_counts[static_cast<std::size_t>(t)], pair_counts[0]);
  }
  // Exactly one build per artifact; every other client was served from
  // the cache (including waiters that arrived while it was building).
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.grid.hits").value(), kClients - 1u);
  EXPECT_EQ(metrics.counter("sj.cache.workload.misses").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.order.misses").value(), 1u);
  EXPECT_EQ(sd->cached_grid_count(), 1u);
  EXPECT_EQ(sd->cached_plan_count(), 1u);
}

// ---------------------------------------------------------------------------
// Admission-queue semantics. A long-running "blocker" pins the single
// worker so queue behaviour is deterministic; it is cancelled once the
// interesting part is over.

JoinRequest make_request(const Dataset&, double eps, int priority) {
  JoinRequest r;
  r.config = SelfJoinConfig::combined(eps);
  r.config.store_pairs = false;
  r.priority = priority;
  return r;
}

TEST(Service, PriorityOrdersQueuedRequests) {
  const Dataset ds = gen_uniform(1500, 2, 11, 0.0, 1.0);
  ServiceConfig scfg;
  scfg.workers = 1;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  // Occupy the only worker, then queue low/mid/high priority requests
  // in worst-case submission order.
  JoinService::Ticket blocker = start_blocker(svc);
  JoinService::Ticket low = svc.submit(sd, make_request(ds, 0.02, 0));
  JoinService::Ticket mid = svc.submit(sd, make_request(ds, 0.02, 5));
  JoinService::Ticket high = svc.submit(sd, make_request(ds, 0.02, 10));
  EXPECT_EQ(svc.queue_depth(), 3u);
  blocker.cancel();

  const JoinResponse rb = blocker.get();
  EXPECT_EQ(rb.status, JoinStatus::Cancelled);
  const JoinResponse rl = low.get();
  const JoinResponse rm = mid.get();
  const JoinResponse rh = high.get();
  ASSERT_EQ(rl.status, JoinStatus::Ok);
  ASSERT_EQ(rm.status, JoinStatus::Ok);
  ASSERT_EQ(rh.status, JoinStatus::Ok);
  // A single worker dequeues strictly by priority, and wait time is
  // measured at dequeue — so the waits order inversely to priority
  // regardless of scheduling jitter.
  EXPECT_LT(rh.wait_seconds, rm.wait_seconds);
  EXPECT_LT(rm.wait_seconds, rl.wait_seconds);
}

TEST(Service, DeadlineExpiresInQueue) {
  const Dataset ds = gen_uniform(1500, 2, 12, 0.0, 1.0);
  ServiceConfig scfg;
  scfg.workers = 1;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinService::Ticket blocker = start_blocker(svc);
  JoinRequest doomed = make_request(ds, 0.02, 0);
  doomed.deadline_seconds = 0.0;  // any queue wait at all exceeds this
  JoinService::Ticket t = svc.submit(sd, doomed);
  blocker.cancel();
  (void)blocker.get();

  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Expired);
  EXPECT_FALSE(t.started());
}

TEST(Service, CancelledWhileQueuedNeverRuns) {
  const Dataset ds = gen_uniform(1500, 2, 13, 0.0, 1.0);
  ServiceConfig scfg;
  scfg.workers = 1;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinService::Ticket blocker = start_blocker(svc);
  JoinService::Ticket t = svc.submit(sd, make_request(ds, 0.02, 0));
  t.cancel();  // still queued: the worker is pinned by the blocker
  blocker.cancel();
  (void)blocker.get();

  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Cancelled);
  EXPECT_FALSE(t.started());
}

TEST(Service, MidFlightCancellationAbortsTheRun) {
  JoinService svc;

  // The blocker runs long enough that the cancel lands while the
  // launch loop is executing (the token is polled at every warp-block
  // and batch boundary).
  JoinService::Ticket t = start_blocker(svc);
  t.cancel();
  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Cancelled);
  EXPECT_TRUE(t.started());
}

TEST(Service, FullQueueRejectsImmediately) {
  const Dataset ds = gen_uniform(1500, 2, 15, 0.0, 1.0);
  ServiceConfig scfg;
  scfg.workers = 1;
  scfg.max_queue_depth = 1;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinService::Ticket blocker = start_blocker(svc);
  JoinService::Ticket queued = svc.submit(sd, make_request(ds, 0.02, 0));
  JoinService::Ticket overflow = svc.submit(sd, make_request(ds, 0.02, 0));
  const JoinResponse r = overflow.get();  // ready immediately
  EXPECT_EQ(r.status, JoinStatus::Rejected);

  queued.cancel();
  blocker.cancel();
  (void)blocker.get();
  (void)queued.get();
}

// ---------------------------------------------------------------------------
// The thread_local-engine regression (PR 5): resident working memory is
// bounded by the service depots, not by how many threads ever joined.

TEST(Service, ShortLivedThreadsDoNotGrowResidentState) {
  const Dataset ds = gen_uniform(400, 2, 16, 0.0, 1.0);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.device.host.num_threads = 2;  // exercise the pool depot too

  const auto spin_threads = [&](int n) {
    for (int i = 0; i < n; ++i) {
      std::thread([&] { (void)self_join(ds, cfg); }).join();
    }
  };

  JoinService& svc = JoinService::shared();
  spin_threads(4);
  const std::size_t arenas_after_4 = svc.resident_arenas();
  const std::size_t pools_after_4 = svc.resident_thread_pools();
  spin_threads(28);
  // With one thread_local engine per caller this grew linearly in the
  // number of threads; through the shared service it stays flat.
  EXPECT_EQ(svc.resident_arenas(), arenas_after_4);
  EXPECT_EQ(svc.resident_thread_pools(), pools_after_4);
  EXPECT_LE(svc.resident_arenas(), JoinService::kMaxPooledArenas);
  EXPECT_LE(svc.resident_thread_pools(), JoinService::kMaxPooledThreadPools);
}

// ---------------------------------------------------------------------------
// Sequential API semantics of the service layer.

TEST(Service, OneShotSelfJoinMatchesSharedRun) {
  const Dataset ds = gen_uniform(900, 2, 18, 0.0, 1.0);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  JoinService svc;
  const auto sd = svc.attach(ds);
  const SelfJoinOutput via_run = svc.run(*sd, cfg);
  const SelfJoinOutput one_shot = svc.self_join(ds, cfg);
  EXPECT_EQ(one_shot.results.pairs(), via_run.results.pairs());
  EXPECT_EQ(one_shot.stats.kernel.busy_cycles,
            via_run.stats.kernel.busy_cycles);
  // The ephemeral one-shot shell leaves no artifacts behind; the shared
  // handle keeps its single grid/plan.
  EXPECT_EQ(sd->cached_grid_count(), 1u);
  EXPECT_EQ(sd->cached_plan_count(), 1u);
}

TEST(Service, ConcurrentDistinctEpsilonsBuildEachGridOnce) {
  const Dataset ds = gen_uniform(2000, 2, 19, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  // Two racing clients per epsilon: single-flight must still build
  // each of the three grids exactly once.
  const double epsilons[] = {0.02, 0.04, 0.08};
  constexpr int kClients = 6;
  std::latch start(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      SelfJoinConfig cfg = SelfJoinConfig::unicomp(epsilons[t % 3]);
      start.arrive_and_wait();
      (void)svc.run(*sd, cfg);
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), 3u);
  EXPECT_EQ(metrics.counter("sj.cache.grid.hits").value(), 3u);
  EXPECT_EQ(sd->cached_grid_count(), 3u);
}

TEST(Service, CacheEvictionRespectsBounds) {
  const Dataset ds = gen_uniform(1000, 2, 20, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.max_cached_grids = 2;
  scfg.max_cached_plans = 2;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);
  for (const double eps : {0.01, 0.02, 0.03, 0.04, 0.05}) {
    (void)svc.run(*sd, SelfJoinConfig::sort_by_wl(eps));
  }
  EXPECT_LE(sd->cached_grid_count(), 2u);
  EXPECT_LE(sd->cached_plan_count(), 2u);
  EXPECT_GE(metrics.counter("sj.cache.evictions").value(), 3u);
}

TEST(Service, MutationRepairsSharedCachesInPlace) {
  Dataset ds = gen_uniform(800, 2, 21, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  const SelfJoinOutput before = svc.run(*sd, cfg);
  ds.set_coord(0, 0, ds.coord(0, 0));  // a self-move still bumps the generation
  const SelfJoinOutput after = svc.run(*sd, cfg);
  // The logged move repairs the shared grid in place: the second run is
  // a cache hit on the repaired artifact, nothing is dropped.
  EXPECT_EQ(metrics.counter("sj.cache.invalidations").value(), 0u);
  EXPECT_GE(metrics.counter("sj.incr.repairs").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.grid.misses").value(), 1u);
  EXPECT_GE(metrics.counter("sj.cache.grid.hits").value(), 1u);
  EXPECT_EQ(before.results.pairs(), after.results.pairs());

  // A bulk load loses the mutation window: the shared grid rebuilds and
  // dependent plans drop — full invalidation is now the fallback.
  { auto col = ds.fill_dim(0); (void)col; }
  const SelfJoinOutput rebuilt = svc.run(*sd, cfg);
  EXPECT_GE(metrics.counter("sj.incr.rebuild_fallbacks").value(), 1u);
  EXPECT_EQ(metrics.counter("sj.cache.invalidations").value(), 1u);
  EXPECT_EQ(after.results.pairs(), rebuilt.results.pairs());
}

TEST(Service, AttachedDatasetsHaveIndependentCaches) {
  const Dataset a = gen_uniform(600, 2, 22, 0.0, 1.0);
  const Dataset b = gen_uniform(700, 3, 23, 0.0, 1.0);
  JoinService svc;
  const auto sa = svc.attach(a);
  const auto sb = svc.attach(b);
  SelfJoinConfig cfg = SelfJoinConfig::unicomp(0.06);
  cfg.store_pairs = true;
  const SelfJoinOutput ra = svc.run(*sa, cfg);
  const SelfJoinOutput rb = svc.run(*sb, cfg);
  EXPECT_EQ(sa->cached_grid_count(), 1u);
  EXPECT_EQ(sb->cached_grid_count(), 1u);
  // Same config, different datasets: results must come from the right
  // cache shell.
  JoinEngine engine;
  EXPECT_EQ(ra.results.pairs(), engine.self_join(a, cfg).results.pairs());
  EXPECT_EQ(rb.results.pairs(), engine.self_join(b, cfg).results.pairs());
}

TEST(Service, RecycleKeepsSubsequentRunsCorrect) {
  const Dataset ds = gen_uniform(800, 2, 24, 0.0, 1.0);
  JoinService svc;
  const auto sd = svc.attach(ds);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  SelfJoinOutput first = svc.run(*sd, cfg);
  const auto want = first.results.pairs();
  svc.recycle(std::move(first));
  const SelfJoinOutput second = svc.run(*sd, cfg);
  EXPECT_EQ(second.results.pairs(), want);
}

TEST(Service, GenerousDeadlineCompletes) {
  const Dataset ds = gen_uniform(600, 2, 25, 0.0, 1.0);
  JoinService svc;
  const auto sd = svc.attach(ds);
  JoinRequest req = make_request(ds, 0.05, 0);
  req.deadline_seconds = 3600.0;
  JoinService::Ticket t = svc.submit(sd, req);
  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Ok);
}

TEST(Service, CancelAfterCompletionIsBenign) {
  const Dataset ds = gen_uniform(600, 2, 26, 0.0, 1.0);
  JoinService svc;
  const auto sd = svc.attach(ds);
  JoinService::Ticket t = svc.submit(sd, make_request(ds, 0.05, 0));
  const JoinResponse r = t.get();
  EXPECT_EQ(r.status, JoinStatus::Ok);
  t.cancel();  // the race with completion is documented as benign
}

TEST(Service, DestructorDrainsOutstandingQueue) {
  const Dataset ds = gen_uniform(600, 2, 27, 0.0, 1.0);
  std::vector<JoinService::Ticket> tickets;
  {
    ServiceConfig scfg;
    scfg.workers = 1;
    JoinService svc(scfg);
    const auto sd = svc.attach(ds);
    for (int i = 0; i < 4; ++i) {
      tickets.push_back(svc.submit(sd, make_request(ds, 0.03, i)));
    }
    // Service destroyed with requests still queued: the shutdown
    // contract is drain-then-join, so every ticket gets an answer.
  }
  for (auto& t : tickets) {
    EXPECT_EQ(t.get().status, JoinStatus::Ok);
  }
}

TEST(Service, MixedPrioritySubmitStormAllReachTerminalStates) {
  const Dataset ds = gen_uniform(700, 2, 28, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 4;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  constexpr int kRequests = 32;
  std::vector<JoinService::Ticket> tickets;
  for (int i = 0; i < kRequests; ++i) {
    tickets.push_back(svc.submit(sd, make_request(ds, 0.02 + (i % 3) * 0.02,
                                                  /*priority=*/i % 4)));
    if (i % 5 == 0) tickets.back().cancel();
  }
  std::uint64_t ok = 0, cancelled = 0;
  for (auto& t : tickets) {
    const JoinResponse r = t.get();
    ASSERT_TRUE(r.status == JoinStatus::Ok ||
                r.status == JoinStatus::Cancelled)
        << to_string(r.status) << " " << r.error;
    (r.status == JoinStatus::Ok ? ok : cancelled) += 1;
  }
  EXPECT_EQ(ok + cancelled, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metrics.counter("svc.submitted").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metrics.counter("svc.completed").value(), ok);
  EXPECT_EQ(metrics.counter("svc.cancelled").value(), cancelled);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST(Service, QueueDepthReturnsToZeroAfterDraining) {
  const Dataset ds = gen_uniform(600, 2, 29, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 2;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);
  std::vector<JoinService::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(svc.submit(sd, make_request(ds, 0.04, 0)));
  }
  for (auto& t : tickets) (void)t.get();
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_EQ(metrics.gauge("svc.queue_depth").value(), 0.0);
}

// ---------------------------------------------------------------------------
// Service metrics: the svc.* instruments reflect the request stream.

TEST(Service, MetricsCountTerminalStates) {
  const Dataset ds = gen_uniform(800, 2, 17, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 2;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  std::vector<JoinService::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(svc.submit(sd, make_request(ds, 0.05, 0)));
  }
  for (auto& t : tickets) {
    const JoinResponse r = t.get();
    EXPECT_EQ(r.status, JoinStatus::Ok);
    EXPECT_GE(r.service_seconds, 0.0);
  }
  EXPECT_EQ(metrics.counter("svc.submitted").value(), 4u);
  EXPECT_EQ(metrics.counter("svc.completed").value(), 4u);
  EXPECT_EQ(metrics.counter("svc.cancelled").value(), 0u);
  EXPECT_EQ(metrics.time_histogram("svc.queue_wait_seconds").total(), 4u);
  EXPECT_EQ(metrics.time_histogram("svc.service_seconds").total(), 4u);
  EXPECT_TRUE(metrics.gauge("svc.queue_depth").is_set());
}

// ---------------------------------------------------------------------------
// Result-serving layer (docs/SERVICE.md): request coalescing, the
// exact-hit result cache, byte-budget eviction and generation
// invalidation. Differential subsumption coverage lives in
// test_differential.cpp.

TEST(Service, ResultCoalescingExecutesOnce) {
  const Dataset ds = gen_uniform(2500, 2, 31, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 4;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  constexpr int kRequests = 8;
  std::vector<JoinService::Ticket> tickets;
  for (int i = 0; i < kRequests; ++i) {
    JoinRequest req;
    req.config = cfg;
    tickets.push_back(svc.submit(sd, req));
  }
  JoinEngine engine;
  const SelfJoinOutput want = engine.self_join(ds, cfg);

  int executed = 0;
  for (auto& t : tickets) {
    const JoinResponse r = t.get();
    ASSERT_EQ(r.status, JoinStatus::Ok) << r.error;
    EXPECT_EQ(r.output.results.pairs(), want.results.pairs());
    EXPECT_EQ(r.output.stats.result_pairs, want.stats.result_pairs);
    if (r.breakdown.served_from == obs::ServedFrom::Execution) ++executed;
  }
  // The result gate decides exact-hit / attach / primary inside one
  // critical section, and publish swaps flight -> cache entry
  // atomically: however the 4 workers interleave, exactly one request
  // executes and the other seven attach to its flight or hit the
  // published entry.
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(metrics.counter("svc.result_cache.misses").value(), 1u);
  EXPECT_EQ(metrics.counter("svc.result_cache.hits").value() +
                metrics.counter("svc.result_cache.coalesced").value(),
            static_cast<std::uint64_t>(kRequests - 1));
  // Served responses still count as completed requests.
  EXPECT_EQ(metrics.counter("svc.completed").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metrics.time_histogram("svc.service_seconds").total(),
            static_cast<std::uint64_t>(kRequests));
}

TEST(Service, ResultCacheServesExactRepeatVariantAgnostic) {
  const Dataset ds = gen_uniform(1000, 2, 32, 0.0, 1.0);
  JoinService svc;
  const auto sd = svc.attach(ds);

  JoinRequest req;
  req.config = SelfJoinConfig::unicomp(0.05);
  req.config.store_pairs = true;
  const JoinResponse cold = svc.submit(sd, req).get();
  ASSERT_EQ(cold.status, JoinStatus::Ok) << cold.error;
  EXPECT_EQ(cold.breakdown.served_from, obs::ServedFrom::Execution);

  const JoinResponse warm = svc.submit(sd, req).get();
  ASSERT_EQ(warm.status, JoinStatus::Ok) << warm.error;
  EXPECT_EQ(warm.breakdown.served_from, obs::ServedFrom::ResultCache);
  EXPECT_EQ(warm.output.results.pairs(), cold.output.results.pairs());

  // The key is variant-agnostic: a different kernel variant at the same
  // epsilon is the same answer, so it is served, not executed.
  JoinRequest other_variant;
  other_variant.config = SelfJoinConfig::work_queue_cfg(0.05);
  other_variant.config.store_pairs = true;
  const JoinResponse across = svc.submit(sd, other_variant).get();
  ASSERT_EQ(across.status, JoinStatus::Ok) << across.error;
  EXPECT_EQ(across.breakdown.served_from, obs::ServedFrom::ResultCache);
  EXPECT_EQ(across.output.results.pairs(), cold.output.results.pairs());

  // A count-only request is servable from a pairs-bearing entry.
  JoinRequest count_only;
  count_only.config = SelfJoinConfig::combined(0.05);
  count_only.config.store_pairs = false;
  const JoinResponse counted = svc.submit(sd, count_only).get();
  ASSERT_EQ(counted.status, JoinStatus::Ok) << counted.error;
  EXPECT_EQ(counted.breakdown.served_from, obs::ServedFrom::ResultCache);
  EXPECT_FALSE(counted.output.results.stores_pairs());
  EXPECT_EQ(counted.output.results.count(), cold.output.results.count());

  // Occupancy surfaces through both the handle and the snapshot.
  EXPECT_EQ(sd->result_cache_entries(), 1u);
  EXPECT_GT(sd->result_cache_bytes(), 0u);
  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.result_entries, 1u);
  EXPECT_EQ(snap.result_bytes, sd->result_cache_bytes());
  EXPECT_EQ(snap.result_budget_bytes, svc.config().max_result_cache_bytes);
}

TEST(Service, DroppedDatasetGivesBackItsResultCacheBytes) {
  // The svc.result_cache.bytes gauge mirrors the service-wide total: a
  // dataset dropped with an answer still cached takes its bytes out.
  const Dataset ds = gen_uniform(800, 2, 38, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  auto sd = svc.attach(ds);
  JoinRequest req;
  req.config = SelfJoinConfig::combined(0.05);
  req.config.store_pairs = true;
  const JoinResponse r = svc.submit(sd, req).get();
  ASSERT_EQ(r.status, JoinStatus::Ok) << r.error;
  ASSERT_GT(sd->result_cache_bytes(), 0u);
  EXPECT_EQ(metrics.gauge("svc.result_cache.bytes").value(),
            static_cast<double>(sd->result_cache_bytes()));

  // The worker that answered may hold the handle a moment longer.
  const std::weak_ptr<SharedDataset> handle = sd;
  sd.reset();
  for (int i = 0; i < 5000 && !handle.expired(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(handle.expired());
  EXPECT_EQ(svc.snapshot().result_bytes, 0u);
  EXPECT_EQ(metrics.gauge("svc.result_cache.bytes").value(), 0.0);
}

TEST(Service, DatasetHandleOutlivesItsServiceAndRegistry) {
  // A handle with a cached answer dropped after its service and the
  // service's registry: the bytes go back to the shared total, and no
  // freed registry or service is touched (the sanitizer builds check).
  const Dataset ds = gen_uniform(800, 2, 38, 0.0, 1.0);
  auto metrics = std::make_unique<obs::Registry>();
  ServiceConfig scfg;
  scfg.obs.metrics = metrics.get();
  auto svc = std::make_unique<JoinService>(scfg);
  auto sd = svc->attach(ds);
  JoinRequest req;
  req.config = SelfJoinConfig::combined(0.05);
  req.config.store_pairs = true;
  ASSERT_EQ(svc->submit(sd, req).get().status, JoinStatus::Ok);
  ASSERT_GT(sd->result_cache_bytes(), 0u);
  svc.reset();
  metrics.reset();
  sd.reset();
}

TEST(Service, PreparedDatasetDroppedAfterItsEngine) {
  const Dataset ds = gen_uniform(800, 2, 38, 0.0, 1.0);
  auto metrics = std::make_unique<obs::Registry>();
  EngineConfig ecfg;
  ecfg.obs.metrics = metrics.get();
  auto engine = std::make_unique<JoinEngine>(ecfg);
  PreparedDataset prep = engine->prepare(ds);
  SelfJoinConfig cfg = SelfJoinConfig::combined(0.05);
  cfg.store_pairs = true;
  EXPECT_GT(engine->run(prep, cfg).results.count(), 0u);
  engine.reset();
  metrics.reset();
  { const PreparedDataset gone = std::move(prep); }
}

TEST(Service, ResultGateNeverServesARequestAColdRunRejects) {
  const Dataset ds = gen_uniform(600, 2, 36, 0.0, 1.0);
  std::ostringstream dumps;  // Failed responses dump breadcrumbs here
  ServiceConfig scfg;
  scfg.recorder_dump = &dumps;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  const JoinRequest good = make_request(ds, 0.05, 0);
  ASSERT_EQ(svc.submit(sd, good).get().status, JoinStatus::Ok);
  ASSERT_EQ(sd->result_cache_entries(), 1u);  // ε = 0.05 is now cached

  // Device and fleet configs that run() rejects, at the cached ε: the
  // gate must send each to the pipeline, not answer it from the cache.
  std::vector<JoinRequest> bad(3, good);
  bad[0].config.device.num_sms = 0;
  bad[1].config.fleet.num_devices = 0;
  bad[2].config.device.clock_ghz = -1.0;
  for (const JoinRequest& req : bad) {
    std::string want;
    try {
      (void)svc.run(*sd, req.config);
    } catch (const CheckError& e) {
      want = e.what();
    }
    ASSERT_FALSE(want.empty()) << "run() accepted the config";
    const JoinResponse r = svc.submit(sd, req).get();
    EXPECT_EQ(r.status, JoinStatus::Failed) << want;
    EXPECT_EQ(r.error, want);
  }
}

TEST(Service, ResultCacheEvictionUnderLoadStaysCorrect) {
  const Dataset ds = gen_uniform(1200, 2, 33, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 4;
  // A budget that holds only a couple of the five answers below, so
  // concurrent serving and LRU eviction constantly interleave. Entries
  // being served are pinned by shared_ptr: eviction only drops the
  // cache's reference, never the bytes under an in-flight response.
  scfg.max_result_cache_bytes = std::size_t{96} * 1024;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  const std::vector<double> epsilons = {0.01, 0.02, 0.03, 0.04, 0.05};
  JoinEngine engine;
  std::vector<std::vector<ResultPair>> want;
  for (const double eps : epsilons) {
    SelfJoinConfig cfg = SelfJoinConfig::combined(eps);
    cfg.store_pairs = true;
    want.push_back(engine.self_join(ds, cfg).results.pairs());
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::vector<JoinResponse>> responses(kThreads);
  std::vector<std::vector<std::size_t>> eps_index(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) {
        // Phase-shifted walk: distinct epsilons are in flight at once,
        // so inserts evict entries other threads are serving from.
        const std::size_t j =
            (static_cast<std::size_t>(r) + static_cast<std::size_t>(t) * 2) %
            epsilons.size();
        JoinRequest req;
        req.config = SelfJoinConfig::combined(epsilons[j]);
        req.config.store_pairs = true;
        responses[t].push_back(svc.submit(sd, req).get());
        eps_index[t].push_back(j);
      }
    });
  }
  for (auto& c : clients) c.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      const JoinResponse& resp = responses[t][static_cast<std::size_t>(r)];
      ASSERT_EQ(resp.status, JoinStatus::Ok)
          << "client " << t << " round " << r << ": " << resp.error;
      EXPECT_EQ(resp.output.results.pairs(),
                want[eps_index[t][static_cast<std::size_t>(r)]])
          << "client " << t << " round " << r;
    }
  }
  EXPECT_GT(metrics.counter("svc.result_cache.evictions").value(), 0u);
  // The byte budget held throughout: whatever survived fits under it.
  EXPECT_LE(sd->result_cache_bytes(), scfg.max_result_cache_bytes);
  EXPECT_EQ(svc.snapshot().result_bytes, sd->result_cache_bytes());
}

TEST(Service, ZeroResultBudgetDisablesRetentionNotCoalescing) {
  const Dataset ds = gen_uniform(2500, 2, 34, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 4;
  scfg.max_result_cache_bytes = 0;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  SelfJoinConfig cfg = SelfJoinConfig::sort_by_wl(0.05);
  cfg.store_pairs = true;
  constexpr int kRequests = 8;
  std::vector<JoinService::Ticket> tickets;
  for (int i = 0; i < kRequests; ++i) {
    JoinRequest req;
    req.config = cfg;
    tickets.push_back(svc.submit(sd, req));
  }
  std::vector<JoinResponse> responses;
  for (auto& t : tickets) responses.push_back(t.get());
  for (const JoinResponse& r : responses) {
    ASSERT_EQ(r.status, JoinStatus::Ok) << r.error;
    EXPECT_EQ(r.output.results.pairs(), responses[0].output.results.pairs());
  }
  // No retention: nothing is ever an exact hit, and nothing is kept.
  EXPECT_EQ(metrics.counter("svc.result_cache.hits").value(), 0u);
  // Single-flight attachment still works — every request either misses
  // (and executes) or rides an in-flight duplicate.
  EXPECT_EQ(metrics.counter("svc.result_cache.misses").value() +
                metrics.counter("svc.result_cache.coalesced").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(sd->result_cache_entries(), 0u);
  EXPECT_EQ(sd->result_cache_bytes(), 0u);

  // A serial repeat with no duplicate in flight executes again.
  JoinRequest again;
  again.config = cfg;
  const JoinResponse repeat = svc.submit(sd, again).get();
  ASSERT_EQ(repeat.status, JoinStatus::Ok) << repeat.error;
  EXPECT_EQ(repeat.breakdown.served_from, obs::ServedFrom::Execution);
}

TEST(Service, MutationInvalidatesResultCache) {
  Dataset ds = gen_uniform(900, 2, 35, 0.0, 1.0);
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinRequest req;
  req.config = SelfJoinConfig::combined(0.05);
  req.config.store_pairs = true;
  const JoinResponse first = svc.submit(sd, req).get();
  ASSERT_EQ(first.status, JoinStatus::Ok) << first.error;
  EXPECT_EQ(first.breakdown.served_from, obs::ServedFrom::Execution);
  const JoinResponse cached = svc.submit(sd, req).get();
  ASSERT_EQ(cached.status, JoinStatus::Ok) << cached.error;
  EXPECT_EQ(cached.breakdown.served_from, obs::ServedFrom::ResultCache);

  ds.set_coord(0, 0, ds.coord(0, 0));  // a self-move still bumps the generation

  // The stale-generation entry must never serve the new dataset state.
  const JoinResponse fresh = svc.submit(sd, req).get();
  ASSERT_EQ(fresh.status, JoinStatus::Ok) << fresh.error;
  EXPECT_EQ(fresh.breakdown.served_from, obs::ServedFrom::Execution);
  // The value-preserving write keeps the answer itself unchanged.
  EXPECT_EQ(fresh.output.results.pairs(), first.output.results.pairs());
  EXPECT_GE(metrics.counter("svc.result_cache.invalidations").value(), 1u);
  // The fresh execution repopulated the cache under the new generation.
  EXPECT_EQ(sd->result_cache_entries(), 1u);
}

// ---------------------------------------------------------------------------
// Result-serving golden: every answer path of the layer, one request at
// a time on one worker, pinned response by response — what was served
// and from where, the svc.result_cache.* counters and bytes gauge, the
// cache occupancy, and the request's logical-time spans and flight-
// recorder breadcrumbs. Recorded before the layer moved into
// sj/result_cache.cpp.

/// FNV-1a over full 64-bit values, byte by byte.
std::uint64_t pair_digest(const ResultSet& rs) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const ResultPair& p : rs.pairs()) {
    fold(p.first);
    fold(p.second);
  }
  return h;
}

/// Submits `cfg`, waits for the answer and renders one transcript line.
std::string golden_step(JoinService& svc,
                        const std::shared_ptr<SharedDataset>& sd,
                        const SelfJoinConfig& cfg, obs::Registry& metrics,
                        const obs::Tracer& tracer,
                        const obs::FlightRecorder& rec) {
  JoinRequest req;
  req.config = cfg;
  const JoinResponse r = svc.submit(sd, req).get();
  std::ostringstream os;
  os << to_string(r.status) << ' ' << obs::to_string(r.breakdown.served_from)
     << " pairs=" << r.output.stats.result_pairs << " digest=" << std::hex
     << pair_digest(r.output.results) << std::dec << " |";
  for (const char* c : {"hits", "misses", "coalesced", "subsumed", "evictions",
                        "invalidations", "repair_kept"}) {
    os << ' ' << c << '='
       << metrics.counter(std::string("svc.result_cache.") + c).value();
  }
  os << " gauge=" << metrics.gauge("svc.result_cache.bytes").value()
     << " | entries=" << sd->result_cache_entries()
     << " bytes=" << sd->result_cache_bytes() << " | spans:";
  for (const obs::HostSpan& s : tracer.host_spans()) {
    if (s.request == r.request_id) {
      os << ' ' << s.name << '@' << s.ts << '+' << s.dur;
    }
  }
  os << " | rec:";
  std::ostringstream dump;
  rec.dump(dump, r.request_id);
  std::istringstream lines(dump.str());
  for (std::string line; std::getline(lines, line);) {
    os << ' ' << line.substr(line.find(' ') + 1);  // drop the "req=N" tag
  }
  return os.str();
}

TEST(Service, ResultServingGoldenSequence) {
  Dataset ds = gen_uniform(600, 2, 41, 0.0, 1.0);
  const std::array<double, 2> lone{10.0, 10.0};
  const PointId wanderer = ds.insert(std::span<const double>(lone));
  const Dataset probe = gen_uniform(150, 2, 42, 0.0, 1.0);
  const double eps = 0.05;

  std::vector<std::string> got;
  {
    obs::Registry metrics;
    obs::Tracer tracer(obs::TimeMode::Logical);
    obs::FlightRecorder rec;
    ServiceConfig scfg;
    scfg.workers = 1;
    scfg.obs.metrics = &metrics;
    scfg.obs.tracer = &tracer;
    scfg.obs.recorder = &rec;
    JoinService svc(scfg);
    const auto sd = svc.attach(ds);
    const auto step = [&](SelfJoinConfig cfg) {
      got.push_back(golden_step(svc, sd, cfg, metrics, tracer, rec));
    };
    const auto self = [](SelfJoinConfig cfg, bool pairs) {
      cfg.store_pairs = pairs;
      return cfg;
    };
    SelfJoinConfig rxs = self(SelfJoinConfig::combined(eps), true);
    rxs.mode = JoinMode::RxS;
    rxs.probe = &probe;
    SelfJoinConfig knn;
    knn.mode = JoinMode::Knn;
    knn.probe = &probe;
    knn.knn_k = 3;
    knn.epsilon = eps;
    knn.store_pairs = true;

    step(self(SelfJoinConfig::combined(eps), true));     // miss: executes
    step(self(SelfJoinConfig::unicomp(eps), true));      // exact, other variant
    step(self(SelfJoinConfig::combined(eps), false));    // count-only repeat
    step(self(SelfJoinConfig::combined(eps / 2), true));  // subsumed
    step(self(SelfJoinConfig::combined(eps / 2), true));  // derived entry hit
    step(rxs);
    step(knn);
    knn.epsilon = 2 * eps;  // KNN answers do not depend on ε
    step(knn);
    const std::array<double, 2> far{9.9, 9.9};
    ds.move_point(wanderer, std::span<const double>(far));
    step(self(SelfJoinConfig::combined(eps), true));  // entry kept
    const std::array<double, 2> near{ds.coord(0, 0), ds.coord(0, 1)};
    ds.move_point(wanderer, std::span<const double>(near));
    step(self(SelfJoinConfig::combined(eps), true));  // entry dropped
  }
  {
    // A budget that holds only a few of these answers: evictions.
    obs::Registry metrics;
    obs::Tracer tracer(obs::TimeMode::Logical);
    obs::FlightRecorder rec;
    ServiceConfig scfg;
    scfg.workers = 1;
    scfg.max_result_cache_bytes = std::size_t{24} * 1024;
    scfg.obs.metrics = &metrics;
    scfg.obs.tracer = &tracer;
    scfg.obs.recorder = &rec;
    JoinService svc(scfg);
    const auto sd = svc.attach(ds);
    for (const double e : {0.02, 0.03, 0.04, 0.05, 0.02, 0.045, 0.03}) {
      SelfJoinConfig cfg = SelfJoinConfig::combined(e);
      cfg.store_pairs = true;
      got.push_back(golden_step(svc, sd, cfg, metrics, tracer, rec));
    }
    EXPECT_GT(metrics.counter("svc.result_cache.evictions").value(), 0u);
  }

  const std::vector<std::string> kGolden = {
      "ok execute pairs=3261 digest=24db910d75aa47ff | "
      "hits=0 misses=1 coalesced=0 subsumed=0 evictions=0 invalidations=0 "
      "repair_kept=0 gauge=26616 | "
      "entries=1 bytes=26616 | "
      "spans: queue_wait@2+1 plan@5+1 batch 0@8+1 execute@7+3 request@2+9 "
      "| "
      "rec: submit value=0 dequeue value=0 plan_done value=8013 "
      "batch_commit value=3261 done value=3261",
      "ok result_cache pairs=3261 digest=24db910d75aa47ff | "
      "hits=1 misses=1 coalesced=0 subsumed=0 evictions=0 invalidations=0 "
      "repair_kept=0 gauge=26616 | "
      "entries=1 bytes=26616 | "
      "spans: queue_wait@12+1 result_hit@14+1 request@12+4 | "
      "rec: submit value=0 dequeue value=1 result_hit value=3261 done "
      "value=3261",
      "ok result_cache pairs=3261 digest=14650fb0739d0383 | "
      "hits=2 misses=1 coalesced=0 subsumed=0 evictions=0 invalidations=0 "
      "repair_kept=0 gauge=26616 | "
      "entries=1 bytes=26616 | "
      "spans: queue_wait@17+1 result_hit@19+1 request@17+4 | "
      "rec: submit value=0 dequeue value=2 result_hit value=3261 done "
      "value=3261",
      "ok subsumed pairs=1249 digest=e1ea8d17d5145aa7 | "
      "hits=2 misses=1 coalesced=0 subsumed=1 evictions=0 invalidations=0 "
      "repair_kept=0 gauge=37136 | "
      "entries=2 bytes=37136 | "
      "spans: queue_wait@22+1 subsume_filter@24+1 request@22+4 | "
      "rec: submit value=0 dequeue value=3 subsume_filter value=1249 done "
      "value=1249",
      "ok result_cache pairs=1249 digest=e1ea8d17d5145aa7 | "
      "hits=3 misses=1 coalesced=0 subsumed=1 evictions=0 invalidations=0 "
      "repair_kept=0 gauge=37136 | "
      "entries=2 bytes=37136 | "
      "spans: queue_wait@27+1 result_hit@29+1 request@27+4 | "
      "rec: submit value=0 dequeue value=4 result_hit value=1249 done "
      "value=1249",
      "ok execute pairs=671 digest=bc40887da7f8275d | "
      "hits=3 misses=2 coalesced=0 subsumed=1 evictions=0 invalidations=0 "
      "repair_kept=0 gauge=43032 | "
      "entries=3 bytes=43032 | "
      "spans: queue_wait@32+1 plan@35+3 batch 0@40+1 execute@39+3 "
      "request@32+11 | "
      "rec: submit value=0 dequeue value=5 plan_done value=1050 "
      "batch_commit value=671 done value=671",
      "ok execute pairs=450 digest=184dec5bdc94ce44 | "
      "hits=3 misses=3 coalesced=0 subsumed=1 evictions=0 invalidations=0 "
      "repair_kept=0 gauge=47160 | "
      "entries=4 bytes=47160 | "
      "spans: queue_wait@44+1 plan@47+1 execute@49+1 request@44+7 | "
      "rec: submit value=0 dequeue value=6 knn_done value=1 done value=450",
      "ok result_cache pairs=450 digest=184dec5bdc94ce44 | "
      "hits=4 misses=3 coalesced=0 subsumed=1 evictions=0 invalidations=0 "
      "repair_kept=0 gauge=47160 | "
      "entries=4 bytes=47160 | "
      "spans: queue_wait@52+1 result_hit@54+1 request@52+4 | "
      "rec: submit value=0 dequeue value=7 result_hit value=450 done "
      "value=450",
      "ok result_cache pairs=3261 digest=24db910d75aa47ff | "
      "hits=5 misses=3 coalesced=0 subsumed=1 evictions=0 invalidations=1 "
      "repair_kept=2 gauge=37136 | "
      "entries=2 bytes=37136 | "
      "spans: queue_wait@57+1 result_hit@59+1 request@57+4 | "
      "rec: submit value=0 dequeue value=8 result_hit value=3261 done "
      "value=3261",
      "ok execute pairs=3271 digest=cc0dfad403fbe3f3 | "
      "hits=5 misses=4 coalesced=0 subsumed=1 evictions=0 invalidations=2 "
      "repair_kept=2 gauge=26696 | "
      "entries=1 bytes=26696 | "
      "spans: queue_wait@62+1 plan@65+3 batch 0@70+1 execute@69+3 "
      "request@62+11 | "
      "rec: submit value=0 dequeue value=9 plan_done value=8013 "
      "batch_commit value=3271 done value=3271",
      "ok execute pairs=1013 digest=fe051ee9f4baa14b | "
      "hits=0 misses=1 coalesced=0 subsumed=0 evictions=0 invalidations=0 "
      "repair_kept=0 gauge=8632 | "
      "entries=1 bytes=8632 | "
      "spans: queue_wait@2+1 plan@5+1 batch 0@8+1 execute@7+3 request@2+9 "
      "| "
      "rec: submit value=0 dequeue value=0 plan_done value=1502 "
      "batch_commit value=1013 done value=1013",
      "ok execute pairs=1547 digest=d4bbe0dc972f5f8b | "
      "hits=0 misses=2 coalesced=0 subsumed=0 evictions=0 invalidations=0 "
      "repair_kept=0 gauge=21536 | "
      "entries=2 bytes=21536 | "
      "spans: queue_wait@12+1 plan@15+1 batch 0@18+1 execute@17+3 "
      "request@12+9 | "
      "rec: submit value=0 dequeue value=1 plan_done value=3606 "
      "batch_commit value=1547 done value=1547",
      "ok execute pairs=2291 digest=7017cb62b001e55f | "
      "hits=0 misses=3 coalesced=0 subsumed=0 evictions=2 invalidations=0 "
      "repair_kept=0 gauge=18856 | "
      "entries=1 bytes=18856 | "
      "spans: queue_wait@22+1 plan@25+1 batch 0@28+1 execute@27+3 "
      "request@22+9 | "
      "rec: submit value=0 dequeue value=2 plan_done value=6611 "
      "batch_commit value=2291 done value=2291",
      "ok execute pairs=3271 digest=cc0dfad403fbe3f3 | "
      "hits=0 misses=4 coalesced=0 subsumed=0 evictions=4 invalidations=0 "
      "repair_kept=0 gauge=0 | "
      "entries=0 bytes=0 | "
      "spans: queue_wait@32+1 plan@35+1 batch 0@38+1 execute@37+3 "
      "request@32+9 | "
      "rec: submit value=0 dequeue value=3 plan_done value=8013 "
      "batch_commit value=3271 done value=3271",
      "ok execute pairs=1013 digest=fe051ee9f4baa14b | "
      "hits=0 misses=5 coalesced=0 subsumed=0 evictions=4 invalidations=0 "
      "repair_kept=0 gauge=8632 | "
      "entries=1 bytes=8632 | "
      "spans: queue_wait@42+1 plan@45+3 batch 0@50+1 execute@49+3 "
      "request@42+11 | "
      "rec: submit value=0 dequeue value=4 plan_done value=1502 "
      "batch_commit value=1013 done value=1013",
      "ok execute pairs=2743 digest=86d65040b4790bdb | "
      "hits=0 misses=6 coalesced=0 subsumed=0 evictions=5 invalidations=0 "
      "repair_kept=0 gauge=22472 | "
      "entries=1 bytes=22472 | "
      "spans: queue_wait@54+1 plan@57+1 batch 0@60+1 execute@59+3 "
      "request@54+9 | "
      "rec: submit value=0 dequeue value=5 plan_done value=7011 "
      "batch_commit value=2743 done value=2743",
      "ok subsumed pairs=1547 digest=d4bbe0dc972f5f8b | "
      "hits=0 misses=6 coalesced=0 subsumed=1 evictions=6 invalidations=0 "
      "repair_kept=0 gauge=12904 | "
      "entries=1 bytes=12904 | "
      "spans: queue_wait@64+1 subsume_filter@66+1 request@64+4 | "
      "rec: submit value=0 dequeue value=6 subsume_filter value=1547 done "
      "value=1547",
  };
  EXPECT_EQ(got.size(), kGolden.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], i < kGolden.size() ? kGolden[i] : "") << "step " << i;
  }
  if (::testing::Test::HasFailure()) {
    for (const std::string& line : got) {
      std::cout << "      \"" << line << "\",\n";
    }
  }
}

// ---------------------------------------------------------------------------
// Coalescing edge paths: a primary that never publishes, and a follower
// cancelled while it is attached.

/// A stored-pairs request that runs for about a third of a second in a
/// Release build on a 4-vCPU x86-64 host, cut into ~ms batches (the
/// 6-d window walk of submit_blocker, on fewer points).
JoinRequest long_request() {
  JoinRequest r;
  r.config = SelfJoinConfig::combined(0.5);
  r.config.store_pairs = true;
  r.config.batching.buffer_pairs = 50'000;
  return r;
}

const Dataset& long_request_data() {
  static const Dataset ds = gen_uniform(3'000, 6, 7, 0.0, 1.0);
  return ds;
}

/// Spins until `counter` reaches `n` (or a minute passes).
bool await_count(obs::Registry& metrics, const char* counter, std::uint64_t n) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (metrics.counter(counter).value() < n) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(Service, AbandonedFlightRequeuesFollowers) {
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 2;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(long_request_data());
  const JoinRequest req = long_request();

  JoinService::Ticket primary = svc.submit(sd, req);
  while (!primary.started()) std::this_thread::yield();
  JoinService::Ticket a = svc.submit(sd, req);
  JoinService::Ticket b = svc.submit(sd, req);
  ASSERT_TRUE(await_count(metrics, "svc.result_cache.coalesced", 2));
  primary.cancel();
  EXPECT_EQ(primary.get().status, JoinStatus::Cancelled);

  // Both followers go back to the queue: one becomes the new primary
  // and executes, the other rides its flight or hits its entry.
  JoinEngine engine;
  const SelfJoinOutput want =
      engine.self_join(long_request_data(), req.config);
  int executed = 0;
  for (JoinService::Ticket* t : {&a, &b}) {
    const JoinResponse r = t->get();
    ASSERT_EQ(r.status, JoinStatus::Ok) << r.error;
    EXPECT_EQ(r.output.results.pairs(), want.results.pairs());
    if (r.breakdown.served_from == obs::ServedFrom::Execution) ++executed;
  }
  EXPECT_EQ(executed, 1);
}

TEST(Service, CancelledFollowerIsAnsweredCancelled) {
  obs::Registry metrics;
  ServiceConfig scfg;
  scfg.workers = 2;
  scfg.obs.metrics = &metrics;
  JoinService svc(scfg);
  const auto sd = svc.attach(long_request_data());
  const JoinRequest req = long_request();

  JoinService::Ticket primary = svc.submit(sd, req);
  while (!primary.started()) std::this_thread::yield();
  JoinService::Ticket follower = svc.submit(sd, req);
  ASSERT_TRUE(await_count(metrics, "svc.result_cache.coalesced", 1));
  follower.cancel();

  const JoinResponse p = primary.get();
  ASSERT_EQ(p.status, JoinStatus::Ok) << p.error;
  EXPECT_EQ(p.breakdown.served_from, obs::ServedFrom::Execution);
  EXPECT_EQ(follower.get().status, JoinStatus::Cancelled);
  EXPECT_EQ(metrics.counter("svc.cancelled").value(), 1u);
  EXPECT_EQ(metrics.counter("svc.completed").value(), 1u);
}

TEST(Service, ResultGateErrorIsAnsweredFailed) {
  // A cached answer whose dataset then gains a point far outside its
  // box: the ε = 0.05 grid can no longer be built (it would need more
  // than 2^62 cells), so the request must come back Failed with a cold
  // run's error — never take the process down.
  Dataset ds = gen_uniform(500, 3, 43, 0.0, 1.0);
  std::ostringstream dumps;  // Failed responses dump breadcrumbs here
  ServiceConfig scfg;
  scfg.recorder_dump = &dumps;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinRequest req;
  req.config = SelfJoinConfig::combined(0.05);
  req.config.store_pairs = true;
  ASSERT_EQ(svc.submit(sd, req).get().status, JoinStatus::Ok);
  ASSERT_EQ(sd->result_cache_entries(), 1u);

  const std::array<double, 3> far{1e5, 1e5, 1e5};
  (void)ds.insert(std::span<const double>(far));
  std::string want;
  try {
    JoinEngine engine;
    (void)engine.self_join(ds, req.config);
  } catch (const CheckError& e) {
    want = e.what();
  }
  ASSERT_FALSE(want.empty()) << "a cold run accepted the dataset";
  const JoinResponse r = svc.submit(sd, req).get();
  EXPECT_EQ(r.status, JoinStatus::Failed);
  EXPECT_EQ(r.error, want);
}

TEST(Service, ResultSetMemoryBytesTracksCapacity) {
  ResultSet rs(true);
  EXPECT_EQ(rs.memory_bytes(), 0u);
  rs.reserve(100);
  EXPECT_GE(rs.memory_bytes(), 100u * sizeof(ResultPair));
  rs.emit(1, 2);
  EXPECT_EQ(rs.memory_bytes(), rs.pairs().capacity() * sizeof(ResultPair));
  // Count-only mode holds no pair storage, whatever is reserved.
  ResultSet counts(false);
  counts.add_count(5);
  counts.reserve(1000);
  EXPECT_EQ(counts.memory_bytes(), 0u);
}

}  // namespace
}  // namespace gsj
