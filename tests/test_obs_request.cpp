// Request-scoped observability: flight-recorder semantics (ordering,
// wraparound, filtered dumps, byte-identical determinism), per-request
// span trees under concurrent serving, RequestBreakdown attribution,
// failure auto-dumps and the ObsContext single-registry guarantee
// (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "data/generators.hpp"
#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"

namespace gsj {
namespace {

// ------------------------------------------------------ flight recorder

TEST(FlightRecorder, RecordsInSequenceOrder) {
  obs::FlightRecorder rec(/*capacity_per_shard=*/16, /*shards=*/2);
  rec.record("submit", 1, 0);
  rec.record("dequeue", 1, 7);
  rec.record("done", 2, 42);
  ASSERT_EQ(rec.recorded(), 3u);

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Oldest first, by the global sequence counter.
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_STREQ(events[0].name, "submit");
  EXPECT_EQ(events[1].request_id, 1u);
  EXPECT_EQ(events[1].value, 7u);
  EXPECT_EQ(events[2].request_id, 2u);
  EXPECT_EQ(events[2].value, 42u);
}

TEST(FlightRecorder, RingOverwritesOldest) {
  obs::FlightRecorder rec(/*capacity_per_shard=*/4, /*shards=*/1);
  for (std::uint64_t i = 1; i <= 10; ++i) rec.record("tick", 1, i);
  EXPECT_EQ(rec.recorded(), 10u);

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);  // a flight recorder, not a log
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 7u + i);
    EXPECT_EQ(events[i].value, 7u + i);
  }
}

TEST(FlightRecorder, DumpFormatAndRequestFilter) {
  obs::FlightRecorder rec(16, 1);
  rec.record("submit", 1, 0);
  rec.record("submit", 2, 0);
  rec.record("done", 1, 5);

  std::ostringstream all;
  rec.dump(all);
  EXPECT_EQ(all.str(),
            "req=1 submit value=0\n"
            "req=2 submit value=0\n"
            "req=1 done value=5\n");

  std::ostringstream only2;
  rec.dump(only2, /*request_id=*/2);
  EXPECT_EQ(only2.str(), "req=2 submit value=0\n");
}

/// Serially drives the same request list through a fresh single-worker
/// service and returns the full recorder dump — the determinism
/// witness: no event carries a timestamp, so identical executions must
/// serialize to byte-identical text.
std::string serial_replay_dump(const Dataset& ds) {
  obs::Tracer tracer(obs::TimeMode::Logical);
  ServiceConfig scfg;
  scfg.workers = 1;
  scfg.obs.tracer = &tracer;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  for (const double eps : {0.03, 0.06}) {
    for (int variant = 0; variant < 2; ++variant) {
      JoinRequest req;
      req.config = variant == 0 ? SelfJoinConfig::sort_by_wl(eps)
                                : SelfJoinConfig::combined(eps);
      req.config.store_pairs = false;
      req.config.batching.buffer_pairs = 20000;
      // get() before the next submit: a serial schedule, so sequence
      // numbers, request ids and queue seqs are all reproducible.
      const JoinResponse r = svc.submit(sd, req).get();
      EXPECT_EQ(r.status, JoinStatus::Ok);
    }
  }
  std::ostringstream os;
  svc.recorder().dump(os);
  return os.str();
}

TEST(FlightRecorder, DeterministicDumpsUnderLogicalTime) {
  const Dataset ds = gen_exponential(1500, 2, /*seed=*/13);
  const std::string first = serial_replay_dump(ds);
  const std::string second = serial_replay_dump(ds);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-identical, not just equivalent
  // The breadcrumb trail covers the request lifecycle.
  EXPECT_NE(first.find("req=1 submit value=0"), std::string::npos);
  EXPECT_NE(first.find("dequeue"), std::string::npos);
  EXPECT_NE(first.find("plan_done"), std::string::npos);
  EXPECT_NE(first.find("batch_commit"), std::string::npos);
  EXPECT_NE(first.find("done"), std::string::npos);
}

// ------------------------------------------------------ request spans

/// Submits `rounds` mixed-variant requests against a 4-worker service
/// with the given obs channel and returns the Ok responses.
std::vector<JoinResponse> stress_requests(JoinService& svc,
                                          std::shared_ptr<SharedDataset> sd,
                                          int rounds) {
  std::vector<JoinService::Ticket> tickets;
  for (int round = 0; round < rounds; ++round) {
    for (const double eps : {0.03, 0.06}) {
      for (int v = 0; v < 4; ++v) {
        JoinRequest req;
        switch (v) {
          case 0: req.config = SelfJoinConfig::gpu_calc_global(eps); break;
          case 1: req.config = SelfJoinConfig::unicomp(eps); break;
          case 2: req.config = SelfJoinConfig::sort_by_wl(eps); break;
          default: req.config = SelfJoinConfig::combined(eps); break;
        }
        req.config.store_pairs = false;
        req.config.batching.buffer_pairs = 20000;
        req.priority = v % 2;
        tickets.push_back(svc.submit(sd, req));
      }
    }
  }
  std::vector<JoinResponse> responses;
  responses.reserve(tickets.size());
  for (auto& t : tickets) responses.push_back(t.get());
  return responses;
}

TEST(RequestSpans, FourWorkerStressYieldsOneTreePerRequest) {
  const Dataset ds = gen_uniform(1200, 2, /*seed=*/2026, 0.0, 1.0);
  obs::Tracer tracer;
  ServiceConfig scfg;
  scfg.workers = 4;
  scfg.obs.tracer = &tracer;

  std::vector<JoinResponse> responses;
  {
    JoinService svc(scfg);
    const auto sd = svc.attach(ds);
    responses = stress_requests(svc, sd, /*rounds=*/2);
  }  // destructor joins the workers: the tracer has quiesced

  // Group request-attributed spans by owning request id.
  std::map<std::uint64_t, std::vector<obs::HostSpan>> by_request;
  for (const auto& s : tracer.host_spans()) {
    if (s.request != 0) by_request[s.request].push_back(s);
  }

  std::size_t executed = 0;
  std::size_t served = 0;
  for (const JoinResponse& r : responses) {
    ASSERT_EQ(r.status, JoinStatus::Ok);
    ASSERT_GE(r.request_id, 1u);
    EXPECT_EQ(r.breakdown.request_id, r.request_id);
    SCOPED_TRACE("request " + std::to_string(r.request_id));

    const auto it = by_request.find(r.request_id);
    ASSERT_NE(it, by_request.end());
    const std::vector<obs::HostSpan>& spans = it->second;

    // Exactly one root, named "request"; every other span parents to a
    // span of the same request — one tree per request, no strays.
    std::set<std::uint64_t> ids;
    for (const auto& s : spans) ids.insert(s.id);
    std::size_t roots = 0;
    std::map<std::string, std::size_t> names;
    for (const auto& s : spans) {
      ++names[s.name];
      if (s.parent == 0) {
        ++roots;
        EXPECT_EQ(s.name, "request");
      } else {
        EXPECT_TRUE(ids.count(s.parent))
            << s.name << " parents to a span outside its request";
      }
    }
    EXPECT_EQ(roots, 1u);
    EXPECT_EQ(names["queue_wait"], 1u);
    // The stress mix is duplicate-heavy (same ε across variants, and
    // results are variant-agnostic), so most requests are served by the
    // result layer instead of executing — each serving path has its own
    // child span in place of plan/execute.
    switch (r.breakdown.served_from) {
      case obs::ServedFrom::Execution:
        EXPECT_EQ(names["plan"], 1u);
        EXPECT_EQ(names["execute"], 1u);
        break;
      case obs::ServedFrom::ResultCache:
        EXPECT_EQ(names["result_hit"], 1u);
        EXPECT_EQ(names["plan"], 0u);
        EXPECT_EQ(names["execute"], 0u);
        break;
      case obs::ServedFrom::Coalesced:
        EXPECT_EQ(names["result_coalesce"], 1u);
        EXPECT_EQ(names["execute"], 0u);
        break;
      case obs::ServedFrom::Subsumed:
        EXPECT_EQ(names["subsume_filter"], 1u);
        EXPECT_EQ(names["execute"], 0u);
        break;
    }
    if (r.breakdown.served_from == obs::ServedFrom::Execution) {
      ++executed;
    } else {
      ++served;
    }
    // One "batch N" span per committed batch plus one per overflow
    // retry (a failed attempt re-runs as smaller batches); served
    // requests launch no batches, so both sides are zero for them.
    std::size_t batch_spans = 0;
    for (const auto& [name, n] : names) {
      if (name.rfind("batch ", 0) == 0) batch_spans += n;
    }
    EXPECT_EQ(batch_spans,
              r.breakdown.batches + r.breakdown.overflow_retries);
  }
  // Each ε executes at least once; with two rounds of four variants per
  // ε the duplicates must have been served.
  EXPECT_GE(executed, 2u);
  EXPECT_GT(served, 0u);
}

TEST(RequestSpans, ChildSpansNestInsideRootAndExportWithArgs) {
  const Dataset ds = gen_exponential(2000, 2, /*seed=*/9);
  obs::Tracer tracer(obs::TimeMode::Logical);
  ServiceConfig scfg;
  scfg.workers = 1;
  scfg.obs.tracer = &tracer;
  JoinResponse r;
  {
    JoinService svc(scfg);
    const auto sd = svc.attach(ds);
    JoinRequest req;
    req.config = SelfJoinConfig::sort_by_wl(0.03);
    req.config.store_pairs = false;
    r = svc.submit(sd, req).get();
  }
  ASSERT_EQ(r.status, JoinStatus::Ok);

  // The sjtool-explain reassembly invariant: direct children tile the
  // root without escaping its [ts, ts+dur] window (logical ticks).
  obs::HostSpan root;
  std::vector<obs::HostSpan> children;
  std::uint64_t root_count = 0;
  for (const auto& s : tracer.host_spans()) {
    if (s.request != r.request_id) continue;
    if (s.parent == 0) {
      root = s;
      ++root_count;
    }
  }
  ASSERT_EQ(root_count, 1u);
  std::uint64_t child_dur = 0;
  for (const auto& s : tracer.host_spans()) {
    if (s.request != r.request_id || s.parent != root.id) continue;
    EXPECT_GE(s.ts, root.ts) << s.name;
    EXPECT_LE(s.ts + s.dur, root.ts + root.dur) << s.name;
    child_dur += s.dur;
    children.push_back(s);
  }
  ASSERT_GE(children.size(), 3u);  // queue_wait, plan, execute
  EXPECT_LE(child_dur, root.dur);

  // Chrome export carries the linkage: request-attributed events gain
  // an args{request,id,parent} object, plain per-stage spans don't.
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const json::JsonValue doc = json::json_parse(os.str());
  bool saw_request_args = false;
  for (const json::JsonValue& ev : doc.find("traceEvents")->as_array()) {
    if (ev.find("ph")->as_string() != "X") continue;
    const json::JsonValue* args = ev.find("args");
    if (ev.find("name")->as_string() == "request") {
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->find("request")->as_number(),
                       static_cast<double>(r.request_id));
      saw_request_args = true;
    }
  }
  EXPECT_TRUE(saw_request_args);
}

TEST(RequestSpans, FleetRequestsEmitBatchAndRetrySpans) {
  // A fleet request runs its grains through the single-device batch
  // driver, so it emits the same per-launch request spans: one
  // "batch N" per launch attempt (N = batches committed so far, across
  // grains) and one "overflow_retry" per rolled-back launch, all
  // parented under the request's execute span.
  const Dataset ds = gen_exponential(2000, 2, /*seed=*/31);
  obs::Tracer tracer(obs::TimeMode::Logical);
  ServiceConfig scfg;
  scfg.workers = 1;
  scfg.obs.tracer = &tracer;
  JoinResponse r;
  {
    JoinService svc(scfg);
    const auto sd = svc.attach(ds);
    JoinRequest req;
    req.config = SelfJoinConfig::sort_by_wl(0.03);
    req.config.store_pairs = false;
    req.config.batching.inject_capacity = 20000;
    req.config.fleet.num_devices = 4;
    r = svc.submit(sd, req).get();
  }
  ASSERT_EQ(r.status, JoinStatus::Ok);
  ASSERT_GT(r.breakdown.overflow_retries, 0u);

  std::uint64_t execute_id = 0;
  for (const auto& s : tracer.host_spans()) {
    if (s.request == r.request_id && s.name == "execute") execute_id = s.id;
  }
  ASSERT_NE(execute_id, 0u);
  std::set<std::string> batch_names;
  std::size_t batch_spans = 0;
  std::size_t retry_spans = 0;
  for (const auto& s : tracer.host_spans()) {
    if (s.request != r.request_id) continue;
    if (s.name.rfind("batch ", 0) == 0) {
      ++batch_spans;
      batch_names.insert(s.name);
      EXPECT_EQ(s.parent, execute_id) << s.name;
    } else if (s.name == "overflow_retry") {
      ++retry_spans;
      EXPECT_EQ(s.parent, execute_id);
    }
  }
  EXPECT_EQ(batch_spans, r.breakdown.batches + r.breakdown.overflow_retries);
  EXPECT_EQ(retry_spans, r.breakdown.overflow_retries);
  // Retried attempts reuse the index of the batch they become, so the
  // distinct names are exactly batch 0 .. batch (batches - 1).
  EXPECT_EQ(batch_names.size(), r.breakdown.batches);
  EXPECT_TRUE(batch_names.count("batch 0"));
  EXPECT_TRUE(
      batch_names.count("batch " + std::to_string(r.breakdown.batches - 1)));
}

// -------------------------------------------------- request breakdown

TEST(RequestBreakdown, CacheAttributionColdThenWarm) {
  const Dataset ds = gen_exponential(2000, 2, /*seed=*/21);
  ServiceConfig scfg;
  scfg.workers = 1;
  // This test pins *artifact*-cache attribution, so result retention is
  // off — otherwise the warm submit would be served from the result
  // cache and never touch the plan caches (that path has its own tests
  // in test_service.cpp).
  scfg.max_result_cache_bytes = 0;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinRequest req;
  req.config = SelfJoinConfig::combined(0.04);
  req.config.store_pairs = false;

  const JoinResponse cold = svc.submit(sd, req).get();
  ASSERT_EQ(cold.status, JoinStatus::Ok);
  EXPECT_EQ(cold.breakdown.served_from, obs::ServedFrom::Execution);
  EXPECT_EQ(cold.breakdown.grid_misses, 1u);
  EXPECT_EQ(cold.breakdown.grid_hits, 0u);
  EXPECT_EQ(cold.breakdown.workload_misses, 1u);
  EXPECT_EQ(cold.breakdown.order_misses, 1u);
  EXPECT_EQ(cold.breakdown.estimate_misses, 1u);
  EXPECT_GE(cold.breakdown.plan_seconds, 0.0);
  EXPECT_GT(cold.breakdown.execute_seconds, 0.0);
  EXPECT_GT(cold.breakdown.batches, 0u);
  EXPECT_EQ(cold.breakdown.result_pairs, cold.output.stats.result_pairs);
  EXPECT_EQ(cold.breakdown.batches, cold.output.stats.num_batches);

  const JoinResponse warm = svc.submit(sd, req).get();
  ASSERT_EQ(warm.status, JoinStatus::Ok);
  EXPECT_EQ(warm.breakdown.served_from, obs::ServedFrom::Execution);
  EXPECT_EQ(warm.breakdown.grid_hits, 1u);
  EXPECT_EQ(warm.breakdown.grid_misses, 0u);
  EXPECT_EQ(warm.breakdown.workload_hits, 1u);
  EXPECT_EQ(warm.breakdown.order_hits, 1u);
  EXPECT_EQ(warm.breakdown.estimate_hits, 1u);
  EXPECT_EQ(warm.breakdown.cache_misses(), 0u);
  EXPECT_EQ(warm.breakdown.result_pairs, cold.breakdown.result_pairs);
  EXPECT_GT(warm.request_id, cold.request_id);

  // run()/self_join() are not requests: no id, no breakdown.
  const SelfJoinOutput direct = svc.run(*sd, req.config);
  EXPECT_EQ(direct.stats.result_pairs, cold.breakdown.result_pairs);
}

// ------------------------------------------------------- failure dump

TEST(RequestDump, FailedRequestAutoDumpsItsBreadcrumbs) {
  const Dataset ds = gen_exponential(2000, 2, /*seed=*/5);
  std::ostringstream dump;
  ServiceConfig scfg;
  scfg.workers = 1;
  scfg.recorder_dump = &dump;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinRequest req;
  req.config = SelfJoinConfig::combined(0.04);
  req.config.store_pairs = false;
  // Guaranteed overflow with no retry budget: the run must fail, and
  // the always-on recorder must explain why without any opt-in.
  req.config.batching.inject_capacity = 10;
  req.config.batching.max_overflow_retries = 1;

  const JoinResponse r = svc.submit(sd, req).get();
  EXPECT_EQ(r.status, JoinStatus::Failed);
  EXPECT_FALSE(r.error.empty());

  const std::string text = dump.str();
  ASSERT_FALSE(text.empty());
  const std::string tag = "req=" + std::to_string(r.request_id);
  EXPECT_NE(text.find("flight-recorder dump (request " +
                      std::to_string(r.request_id) + ", failed)"),
            std::string::npos);
  EXPECT_NE(text.find(tag + " submit value=0"), std::string::npos);
  EXPECT_NE(text.find(tag + " batch_overflow"), std::string::npos);
  EXPECT_NE(text.find(tag + " overflow_exhausted"), std::string::npos);
  EXPECT_NE(text.find(tag + " failed"), std::string::npos);
  // The dump is filtered: no other request's breadcrumbs leak in.
  EXPECT_EQ(text.find("req=" + std::to_string(r.request_id + 1)),
            std::string::npos);
}

// ---------------------------------------------------------- snapshot

TEST(ServiceSnapshot, ReportsCachesDepotsAndQuiescence) {
  const Dataset ds = gen_exponential(2000, 2, /*seed=*/3);
  ServiceConfig scfg;
  scfg.workers = 2;
  JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  JoinRequest req;
  req.config = SelfJoinConfig::sort_by_wl(0.04);
  req.config.store_pairs = false;
  ASSERT_EQ(svc.submit(sd, req).get().status, JoinStatus::Ok);
  req.config = SelfJoinConfig::combined(0.06);
  ASSERT_EQ(svc.submit(sd, req).get().status, JoinStatus::Ok);

  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_TRUE(snap.queued_by_priority.empty());
  EXPECT_TRUE(snap.in_flight.empty());
  EXPECT_GE(snap.idle_arenas, 1u);
  EXPECT_EQ(snap.attached_datasets, 1u);
  EXPECT_EQ(snap.cached_grids, sd->cached_grid_count());
  EXPECT_GE(snap.cached_grids, 2u);  // two epsilons
  EXPECT_EQ(snap.cached_plans, sd->cached_plan_count());
  EXPECT_EQ(snap.cached_bytes, sd->cached_artifact_bytes());
  EXPECT_GT(snap.cached_bytes, 0u);

  // Dropping the handle retires it from the snapshot.
  const auto sd2 = svc.attach(ds);
  EXPECT_EQ(svc.snapshot().attached_datasets, 2u);
}

// --------------------------------------------------------- obs context

TEST(ObsContext, SingleRegistryReceivesEveryFamilyAfterStress) {
  // The regression this pins: before ObsContext, a tool wiring the
  // service and engine separately could leave part of the telemetry in
  // an orphan registry nobody exports. One ObsContext handed to the
  // config must route svc.*, sj.cache.* and the time histograms into
  // the same registry by construction.
  const Dataset ds = gen_uniform(1200, 2, /*seed=*/77, 0.0, 1.0);
  obs::Registry reg;
  obs::Tracer tracer;
  ServiceConfig scfg;
  scfg.workers = 4;
  scfg.obs = obs::ObsContext{&tracer, &reg, nullptr};

  std::size_t total = 0;
  {
    JoinService svc(scfg);
    const auto sd = svc.attach(ds);
    // Two synchronous runs of the same config: run() bypasses the
    // result-serving gate, so the second run is guaranteed to hit the
    // shared *artifact* caches and exercise the sj.cache.* family.
    SelfJoinConfig warm_cfg = SelfJoinConfig::combined(0.03);
    warm_cfg.store_pairs = false;
    (void)svc.run(*sd, warm_cfg);
    (void)svc.run(*sd, warm_cfg);
    const auto responses = stress_requests(svc, sd, /*rounds=*/1);
    total = responses.size();
    for (const auto& r : responses) EXPECT_EQ(r.status, JoinStatus::Ok);
  }

  EXPECT_EQ(reg.counter("svc.submitted").value(), total);
  EXPECT_EQ(reg.counter("svc.completed").value(), total);
  EXPECT_EQ(reg.time_histogram("svc.queue_wait_seconds").total(), total);
  EXPECT_EQ(reg.time_histogram("svc.service_seconds").total(), total);
  EXPECT_GT(reg.counter("sj.cache.hits").value(), 0u);
  EXPECT_GT(reg.counter("sj.cache.misses").value(), 0u);
  // The duplicate-heavy stress mix must have been served by the result
  // layer: one execution per ε, the rest exact hits or coalesced.
  EXPECT_GT(reg.counter("svc.result_cache.misses").value(), 0u);
  EXPECT_GT(reg.counter("svc.result_cache.hits").value() +
                reg.counter("svc.result_cache.coalesced").value(),
            0u);

  // And the whole story is exportable from that one registry.
  std::ostringstream om;
  reg.write_openmetrics(om);
  EXPECT_NE(om.str().find("svc_completed_total"), std::string::npos);
  EXPECT_NE(om.str().find("sj_cache_hits_total"), std::string::npos);
  EXPECT_NE(om.str().find("svc_result_cache_misses_total"), std::string::npos);
  EXPECT_NE(om.str().find("svc_result_cache_bytes"), std::string::npos);
  EXPECT_NE(om.str().find("svc_service_seconds"), std::string::npos);
  EXPECT_NE(om.str().find("# EOF"), std::string::npos);
}

}  // namespace
}  // namespace gsj
