// Plan+execute pipeline behind every join entry point (internal).
//
// JoinService (sj/service.cpp) runs every join — its own run()/
// submit()/self_join(), the JoinEngine facade's (sj/engine.hpp) and
// the free self_join's — through plan_and_execute(): validation,
// cache-served plan-artifact resolution with the monolith's span
// sequence, batch planning, then the batched execution stage.
// plan_and_execute() is templated over a PlanSource that supplies the
// artifacts; its one implementation is detail::ServicePlanSource over
// the service's reader/writer-locked, single-flight SharedDataset
// caches. Because a warm run and a cold run take this same code with
// only the source's hit/miss answers differing, they stay bit-identical
// (same spans, same stats, same results) for the same request.
//
// A PlanSource provides (duck-typed; resolution order is fixed by the
// pipeline, so sources may carry state between calls):
//
//   void sync();                              // generation check/repair
//   ThreadPool* pool(int n);                  // pooled host pool
//   obs::Tracer* channel_tracer();            // service channel
//   obs::RequestObs* request_obs();           // request attribution bundle
//                                             // (nullptr = not a request)
//   void resolve_grid(double eps, ThreadPool*, bool* hit);
//   const GridIndex& grid();                  // valid after resolve_grid
//   std::span<const std::uint64_t> resolve_workloads(CellPattern,
//                                                    ThreadPool*);
//   std::span<const PointId> resolve_order(CellPattern, ThreadPool*);
//   std::optional<std::uint64_t> find_estimate(bool queue, EstimateKey);
//   void put_estimate(bool queue, EstimateKey, std::uint64_t);
//
// Artifact lifetime contract: spans/references returned by a source
// stay valid until plan_and_execute returns (sources pin shared
// artifacts for the duration of the run) — EXCEPT under the KNN path,
// which resolves one grid per widening round: each grid() reference is
// only used until the next resolve_grid call.
//
// Sources are constructed per-run from the request's SelfJoinConfig
// and are mode-aware: for R×S/KNN requests, resolve_workloads returns
// *probe* point workloads and every plan/estimate cache entry is keyed
// with probe_signature(cfg) so artifacts of different modes or probe
// datasets/generations never alias (Self artifacts carry signature 0).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "sj/execute.hpp"

namespace gsj::detail {

/// Result-size-estimate cache key: (sample_fraction bits,
/// inject_estimator_skew bits, probe signature) — skew is part of the
/// key so fault-injection runs never collide with honest ones, and the
/// probe signature (0 for Self) keeps R×S estimates of different probe
/// datasets/generations apart.
using EstimateKey =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

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

/// Identity of a submitted request's *answer* for the service's
/// result-serving layer (docs/SERVICE.md). Deliberately
/// variant-agnostic: all six kernel variants compute the same pair set
/// for (dataset, ε, mode) — the invariant the paper's variant
/// comparison rests on — so the key folds only the dataset generation,
/// the exact ε bits, and a digest of the request *class*: the join
/// mode, the second dataset's identity (uid + generation) for R×S/KNN,
/// and the KNN parameters. k / cell pattern / batching / device knobs
/// shape how the answer is computed, never what it is; the storage
/// mode is deliberately NOT folded — pairs vs count-only is an
/// asymmetry the gate's has_pairs logic handles, so a stored-pairs
/// entry can serve a count-only request.
struct ResultKey {
  std::uint64_t generation = 0;
  std::uint64_t eps_bits = 0;
  std::uint64_t config_digest = 0;
  friend bool operator==(const ResultKey&, const ResultKey&) = default;
};

[[nodiscard]] inline ResultKey make_result_key(std::uint64_t generation,
                                               const SelfJoinConfig& cfg) {
  // FNV-1a over the result-class knobs, full 64-bit values byte by
  // byte: a single truncated byte per knob is exactly the latent
  // collision the pinned regression test guards against (a probe
  // generation and a mode sharing a low byte must not share a digest).
  std::uint64_t digest = 1469598103934665603ull;
  const auto fold = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  fold(static_cast<std::uint64_t>(cfg.mode));
  if (cfg.mode != JoinMode::Self && cfg.probe != nullptr) {
    fold(cfg.probe->uid());
    fold(cfg.probe->generation());
  }
  if (cfg.mode == JoinMode::Knn) {
    fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(cfg.knn_k)));
    fold(std::bit_cast<std::uint64_t>(cfg.knn_growth));
    fold(std::bit_cast<std::uint64_t>(cfg.knn_initial_epsilon));
  }
  return {generation, std::bit_cast<std::uint64_t>(cfg.epsilon), digest};
}

/// Throws CheckError unless `cfg` is a runnable request against `ds` —
/// every check a cold run makes before touching a cache, in order. The
/// service's result gate calls it too, so a cached answer can never
/// mask a request that a cold run rejects.
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

/// KNN-join by per-query iterative ε-widening (docs/JOINS.md, after the
/// Hybrid KNN-Join reduction): round r probes the ε_r = ε₀·growth^r
/// grid — resolved through the SAME PlanSource grid cache the ε-joins
/// use, so repeated requests (and the shared schedule across queries)
/// hit the per-ε LRU — and a query resolves once ≥ k candidates sit
/// within ε_r. That is exact: the k-th nearest distance is then ≤ ε_r,
/// so every potential member of the answer set (distance ≤ k-th,
/// boundary ties included) is already a candidate; selection sorts by
/// (distance², id), the canonical tie-break. ε₀ comes from
/// cfg.knn_initial_epsilon or the density estimate
/// 0.5·(k·volume/n)^(1/dims) of the gridded dataset's bounding box.
template <typename Source>
void knn_execute(const SelfJoinConfig& cfg, const Dataset& ds, Source& src,
                 ScratchArena& arena, const std::atomic<bool>* cancel,
                 SelfJoinOutput& out) {
  validate_request(cfg, ds);
  const Dataset& probe = *cfg.probe;
  src.sync();

  out.results = ResultSet(cfg.store_pairs);
  if (cfg.store_pairs) {
    out.results.adopt_storage(std::move(arena.spare_pairs));
    arena.spare_pairs = {};
  }
  Timer host;

  simt::DeviceConfig device = cfg.device;
  if (device.host.num_threads > 0 && device.host.pool == nullptr) {
    device.host.pool = src.pool(device.host.num_threads);
  }
  ThreadPool* p = device.host.num_threads > 0 ? device.host.pool : nullptr;

  obs::Tracer* tracer = cfg.tracer;
  if (tracer != nullptr) tracer->set_device_config(device);
  auto pipeline_span = obs::span(tracer, "knn_join");

  obs::RequestObs* robs = src.request_obs();
  const obs::SpanContext rctx =
      robs != nullptr ? robs->ctx : obs::SpanContext{};
  obs::Tracer* req_tracer =
      (robs != nullptr && rctx.request_id != 0) ? robs->tracer : nullptr;
  auto plan_span = obs::span(req_tracer, "plan", rctx);

  const std::size_t n = ds.size();
  const std::size_t nq = probe.size();
  const int dims = ds.dims();
  const auto k_eff = static_cast<std::size_t>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(cfg.knn_k), static_cast<std::uint64_t>(n)));

  // ε₀: explicit override, else seeded so a uniform-density region
  // holds ~k points per 2ε₀-ball — the round-0 grid then has on the
  // order of n/k non-empty cells, and the geometric schedule reaches
  // any realistic neighborhood within a handful of rounds.
  double eps0 = cfg.knn_initial_epsilon;
  if (!(eps0 > 0.0)) {
    const auto lo = ds.min_corner();
    const auto hi = ds.max_corner();
    double volume = 1.0;
    for (int d = 0; d < dims; ++d) {
      volume *= hi[static_cast<std::size_t>(d)] - lo[static_cast<std::size_t>(d)];
    }
    eps0 = volume > 0.0
               ? 0.5 * std::pow(static_cast<double>(k_eff) * volume /
                                    static_cast<double>(n),
                                1.0 / static_cast<double>(dims))
               : 0.0;
    // Degenerate boxes (single point, axis-flat data) have zero volume;
    // any positive seed works — widening corrects it geometrically.
    if (!(eps0 > 0.0) || !std::isfinite(eps0)) eps0 = 1.0;
  }
  out.stats.host_prep_seconds = host.seconds();
  plan_span.finish();
  if (robs != nullptr && robs->breakdown != nullptr) {
    robs->breakdown->plan_seconds = out.stats.host_prep_seconds;
  }

  struct Hit {
    double d2;
    PointId id;
  };
  const auto hit_before = [](const Hit& a, const Hit& b) {
    return a.d2 != b.d2 ? a.d2 < b.d2 : a.id < b.id;
  };

  Timer exec_timer;
  auto exec_span = obs::span(req_tracer, "execute", rctx);
  std::vector<std::vector<Hit>> answers(nq);
  std::vector<std::uint8_t> done(nq, 0);
  std::size_t unresolved = nq;
  std::vector<double> qc(static_cast<std::size_t>(dims));
  std::vector<Hit> cand;

  // Hard round cap: 64 doublings from any positive seed exceed every
  // representable spread, so only an adversarial (tiny ε₀, growth→1)
  // schedule gets here — the stragglers fall back to brute force below.
  constexpr int kMaxRounds = 64;
  double eps_r = eps0;
  for (int round = 0; round < kMaxRounds && unresolved > 0;
       ++round, eps_r *= cfg.knn_growth) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw CancelledError(out.stats.knn_rounds);
    }
    bool grid_hit = false;
    {
      const auto sp = obs::span(tracer, "grid_build");
      src.resolve_grid(eps_r, p, &grid_hit);
    }
    const GridIndex& grid = src.grid();
    const double eps2 = eps_r * eps_r;
    out.stats.knn_rounds = static_cast<std::uint64_t>(round) + 1;
    out.stats.knn_final_epsilon = eps_r;
    for (std::size_t q = 0; q < nq; ++q) {
      if (done[q] != 0) continue;
      for (int d = 0; d < dims; ++d) {
        qc[static_cast<std::size_t>(d)] = probe.coord(q, d);
      }
      cand.clear();
      grid.for_each_within(
          qc, /*shells=*/1,
          [&](std::size_t nidx, const CellCoords&, std::uint64_t) {
            for (const PointId c : grid.cell_points(nidx)) {
              double sum = 0.0;
              for (int d = 0; d < dims; ++d) {
                const double diff =
                    qc[static_cast<std::size_t>(d)] - ds.coord(c, d);
                sum += diff * diff;
              }
              if (sum <= eps2) cand.push_back({sum, c});
            }
          });
      if (cand.size() >= k_eff) {
        std::sort(cand.begin(), cand.end(), hit_before);
        cand.resize(k_eff);
        answers[q].assign(cand.begin(), cand.end());
        done[q] = 1;
        --unresolved;
      }
    }
  }

  if (unresolved > 0) {
    // Schedule exhausted: answer the stragglers exactly by brute force.
    for (std::size_t q = 0; q < nq && unresolved > 0; ++q) {
      if (done[q] != 0) continue;
      cand.clear();
      cand.reserve(n);
      for (PointId c = 0; c < static_cast<PointId>(n); ++c) {
        double sum = 0.0;
        for (int d = 0; d < dims; ++d) {
          const double diff = probe.coord(q, d) - ds.coord(c, d);
          sum += diff * diff;
        }
        cand.push_back({sum, c});
      }
      std::sort(cand.begin(), cand.end(), hit_before);
      cand.resize(k_eff);
      answers[q].assign(cand.begin(), cand.end());
      done[q] = 1;
      --unresolved;
    }
  }

  std::uint64_t total = 0;
  for (const auto& a : answers) total += a.size();
  if (cfg.store_pairs) {
    out.results.reserve(total);
    for (std::size_t q = 0; q < nq; ++q) {
      for (const Hit& h : answers[q]) {
        out.results.emit(static_cast<PointId>(q), h.id);
      }
    }
    out.results.canonicalize();
  } else {
    out.results.add_count(total);
  }
  out.stats.result_pairs = total;
  out.stats.warp_size = device.warp_size;
  out.stats.total_seconds = exec_timer.seconds();
  exec_span.finish();
  if (robs != nullptr) {
    if (robs->breakdown != nullptr) {
      obs::RequestBreakdown& b = *robs->breakdown;
      b.execute_seconds = exec_timer.seconds();
      b.result_pairs = total;
    }
    if (robs->recorder != nullptr) {
      robs->recorder->record("knn_done", rctx.request_id,
                             out.stats.knn_rounds);
    }
  }
}

template <typename Source>
void plan_and_execute(const SelfJoinConfig& cfg, const Dataset& ds,
                      Source& src, ScratchArena& arena,
                      const std::atomic<bool>* cancel, SelfJoinOutput& out) {
  // KNN takes its own host-iterative path (no batched device launches),
  // dispatched before the ε validation — a KNN request's `epsilon` is
  // free for cache-key purposes (the widening schedule ignores it).
  if (cfg.mode == JoinMode::Knn) {
    knn_execute(cfg, ds, src, arena, cancel, out);
    return;
  }
  validate_request(cfg, ds);
  const bool rxs = cfg.mode == JoinMode::RxS;
  const bool fleet_active = cfg.fleet.active();
  src.sync();

  out.results = ResultSet(cfg.store_pairs);
  if (cfg.store_pairs) {
    // Reuse the arena's spare pair buffer (capacity only; no content).
    out.results.adopt_storage(std::move(arena.spare_pairs));
    arena.spare_pairs = {};
  }
  if (rxs && cfg.probe->empty()) {
    // No queries — the answer is empty without gridding anything (an
    // empty *gridded* dataset stays a config error, matching Self).
    return;
  }
  Timer host;

  // Host execution pool: when the config asks for worker threads but
  // supplies no external pool, the source's cached/leased pool of that
  // size is attached — same pool across the grid build, planning and
  // every batch launch. `device` is the effective config handed to
  // every launch.
  simt::DeviceConfig device = cfg.device;
  if (device.host.num_threads > 0 && device.host.pool == nullptr) {
    device.host.pool = src.pool(device.host.num_threads);
  }
  ThreadPool* p = device.host.num_threads > 0 ? device.host.pool : nullptr;

  obs::Tracer* tracer = cfg.tracer;
  if (tracer != nullptr) tracer->set_device_config(device);
  auto pipeline_span = obs::span(tracer, "self_join");

  // Request attribution (JoinService::submit): "plan"/"execute" spans
  // on the service channel parented under the request root, plus the
  // RequestBreakdown totals. request_id == 0 (engine runs, run()/
  // self_join()) emits nothing, keeping those channels' span sequences
  // exactly as before.
  obs::RequestObs* robs = src.request_obs();
  const obs::SpanContext rctx =
      robs != nullptr ? robs->ctx : obs::SpanContext{};
  obs::Tracer* req_tracer =
      (robs != nullptr && rctx.request_id != 0) ? robs->tracer : nullptr;
  auto plan_span = obs::span(req_tracer, "plan", rctx);

  // --- plan stage: resolve every artifact from the cache, computing
  // and caching on miss. The per-run span sequence below is exactly the
  // monolith's (grid_build; for WQ: workload_quantify, sortbywl_sort,
  // batch_plan; otherwise batch_plan with nested sub-spans opened by
  // the planner), so logical traces are byte-identical on hit and miss.
  bool grid_hit = false;
  {
    const auto sp = obs::span(tracer, "grid_build");
    src.resolve_grid(cfg.epsilon, p, &grid_hit);
  }
  const GridIndex& grid = src.grid();
  // Engine/service-channel span marking a cache-served plan stage.
  auto reuse_span = obs::span(grid_hit ? src.channel_tracer() : nullptr,
                              "plan_reuse");

  // The unidirectional patterns' pair-once trick has no meaning when
  // queries and candidates come from different datasets: R×S probes
  // every window cell, i.e. LID-UNICOMP degenerates to plain neighbor
  // probing. Forcing Full here keys the workload/order artifacts (and
  // the kernels, which additionally ignore the pattern in R×S mode)
  // uniformly across the six variants.
  const CellPattern pattern = rxs ? CellPattern::Full : cfg.pattern;
  const Dataset* probe = rxs ? cfg.probe : nullptr;

  const EstimateKey est_key{
      std::bit_cast<std::uint64_t>(cfg.batching.sample_fraction),
      std::bit_cast<std::uint64_t>(cfg.batching.inject_estimator_skew),
      probe_signature(cfg)};

  std::span<const PointId> queue_order;
  std::span<const std::uint64_t> fleet_workloads;
  BatchPlan plan;
  if (fleet_active) {
    // Fleet plan stage: grain partitioning and the per-grain chunk
    // budgets need per-point workloads regardless of variant, the
    // work-queue variants need D', and the whole-join size estimate is
    // resolved through the same shared cache the batch planners use —
    // then execute_fleet does its own per-grain chunking, so no batch
    // plan is built here.
    {
      const auto sp = obs::span(tracer, "workload_quantify");
      fleet_workloads = src.resolve_workloads(pattern, p);
    }
    if (cfg.work_queue) {
      const auto sp = obs::span(tracer, "sortbywl_sort");
      queue_order = src.resolve_order(pattern, p);
    }
    const auto sp = obs::span(tracer, "batch_plan");
    std::optional<std::uint64_t> est =
        src.find_estimate(cfg.work_queue, est_key);
    if (!est.has_value()) {
      if (rxs) {
        est = cfg.work_queue ? estimate_rxs_queue_total(grid, *probe,
                                                        cfg.batching,
                                                        queue_order)
                             : estimate_rxs_strided_total(grid, *probe,
                                                          cfg.batching);
      } else {
        est = cfg.work_queue
                  ? estimate_queue_total(grid, cfg.batching, queue_order)
                  : estimate_strided_total(grid, cfg.batching);
      }
      src.put_estimate(cfg.work_queue, est_key, *est);
    }
    plan.estimated_total_pairs = *est;
    plan.num_batches = 0;  // execute_fleet chunks per grain
  } else if (cfg.work_queue) {
    std::span<const std::uint64_t> pw;
    {
      const auto sp = obs::span(tracer, "workload_quantify");
      pw = src.resolve_workloads(pattern, p);
    }
    {
      const auto sp = obs::span(tracer, "sortbywl_sort");
      queue_order = src.resolve_order(pattern, p);
    }
    const auto sp = obs::span(tracer, "batch_plan");
    std::optional<std::uint64_t> est = src.find_estimate(true, est_key);
    plan = plan_queue(grid, cfg.batching, queue_order, pw, tracer, est, probe);
    if (!est.has_value()) {
      src.put_estimate(true, est_key, plan.estimated_total_pairs);
    }
  } else {
    const auto sp = obs::span(tracer, "batch_plan");
    std::span<const std::uint64_t> pw;
    if (cfg.sort_by_workload) pw = src.resolve_workloads(pattern, p);
    std::optional<std::uint64_t> est = src.find_estimate(false, est_key);
    plan = plan_strided(grid, cfg.batching, cfg.sort_by_workload, pattern,
                        tracer, p, pw, est, probe);
    if (!est.has_value()) {
      src.put_estimate(false, est_key, plan.estimated_total_pairs);
    }
  }
  reuse_span.finish();

  out.stats.num_batches = plan.num_batches;
  out.stats.estimated_total_pairs = plan.estimated_total_pairs;
  out.stats.host_prep_seconds = host.seconds();
  plan_span.finish();
  if (robs != nullptr) {
    if (robs->breakdown != nullptr) {
      robs->breakdown->plan_seconds = out.stats.host_prep_seconds;
    }
    if (robs->recorder != nullptr) {
      robs->recorder->record("plan_done", rctx.request_id,
                             plan.estimated_total_pairs);
    }
  }

  // --- execute stage (sj/execute.cpp) ---
  Timer exec_timer;
  auto exec_span = obs::span(req_tracer, "execute", rctx);
  ExecutionInputs in;
  in.grid = &grid;
  in.plan = &plan;
  in.probe = probe;
  in.queue_order = queue_order;
  in.device = device;
  in.cancel = cancel;
  in.channel_tracer = req_tracer;
  // Batch spans parent under this run's execute span. Built by hand
  // (not exec_span.child_context()) so the request id survives even
  // when no tracer is attached — the flight recorder still wants it.
  in.channel_ctx = obs::SpanContext{rctx.request_id, exec_span.id()};
  in.recorder = robs != nullptr ? robs->recorder : nullptr;
  if (fleet_active) {
    in.point_workloads = fleet_workloads;
    in.estimated_total_pairs = plan.estimated_total_pairs;
    execute_fleet(cfg, in, arena, out);
  } else {
    execute_self_join(cfg, in, arena, out);
  }
  exec_span.finish();
  if (robs != nullptr && robs->breakdown != nullptr) {
    obs::RequestBreakdown& b = *robs->breakdown;
    b.execute_seconds = exec_timer.seconds();
    b.batches = out.stats.num_batches;
    b.overflow_retries = out.stats.overflow_retries;
    b.result_pairs = out.stats.result_pairs;
  }
}

}  // namespace gsj::detail
