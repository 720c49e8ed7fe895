#include "sj/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <mutex>
#include <numeric>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/batching.hpp"

namespace gsj::detail {

/// The plan stage's artifact source over a SharedDataset's reader/
/// writer-locked caches. Discipline:
///
///  * hits take the shared lock only (scan, bump the atomic LRU tick,
///    copy the slot's shared_future) — concurrent hits never serialize;
///  * misses double-check under the exclusive lock, install a
///    promise-backed future (single-flight), then build *outside* any
///    lock and publish through the promise; waiters block on their
///    future copy, also outside the lock;
///  * every resolved slot/artifact is pinned by a shared_ptr member for
///    the run's duration, so concurrent LRU eviction can drop a slot
///    from the cache vectors without invalidating anything this run
///    still references — except that each resolve_grid replaces the
///    previous grid pin (KNN resolves one grid per widening round);
///  * a builder that throws publishes the exception to its waiters and
///    rolls the slot back so later requests rebuild.
///
/// The builder counts the miss; waiters and fast-path readers count
/// hits (a waiter is served from the cache — it just arrives early).
class ServicePlanSource {
 public:
  /// `cfg` makes the source mode-aware: for R×S requests, workloads/D'
  /// and estimates resolve against the probe dataset and plan slots
  /// are keyed by probe_signature. Null `cfg` (delta_join) behaves as
  /// Self.
  ServicePlanSource(JoinService& svc, SharedDataset& sd,
                    const SelfJoinConfig* cfg, obs::RequestObs* robs)
      : svc_(svc),
        sd_(sd),
        probe_(cfg != nullptr && cfg->mode == JoinMode::RxS ? cfg->probe
                                                            : nullptr),
        probe_sig_(cfg != nullptr ? probe_signature(*cfg) : 0),
        robs_(robs) {}
  ServicePlanSource(const ServicePlanSource&) = delete;
  ServicePlanSource& operator=(const ServicePlanSource&) = delete;

  ~ServicePlanSource() {
    if (pool_ != nullptr) svc_.return_pool(pool_threads_, std::move(pool_));
  }

  void sync() { svc_.sync_shared(sd_); }

  /// The service depot's pool of `n` threads, leased for the run.
  ThreadPool* pool(int n) {
    if (pool_ == nullptr) {
      pool_threads_ = n;
      pool_ = svc_.checkout_pool(n);
    }
    return pool_.get();
  }

  /// Resolves the `eps` grid, building it on a miss; true on a hit.
  bool resolve_grid(double eps, ThreadPool* p) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(eps);
    std::promise<SharedDataset::GridPtr> prom;
    std::shared_future<SharedDataset::GridPtr> fut;
    const bool builder = find_or_install(
        [&] {
          gslot_ = find_locked(sd_.grids_, [bits](const auto& s) {
            return s.eps_bits == bits;
          });
          if (gslot_ != nullptr) fut = gslot_->grid;
          return gslot_ != nullptr;
        },
        [&] {
          gslot_ = std::make_shared<SharedDataset::GridSlot>();
          gslot_->eps_bits = bits;
          gslot_->grid = fut = prom.get_future().share();
          install_locked(sd_.grids_, gslot_, sd_.max_grids_);
        });
    grid_ = settle(
        "grid", builder, prom, fut,
        [&] {
          return std::make_shared<const GridIndex>(sd_.dataset(), eps, p);
        },
        [&] { std::erase(sd_.grids_, gslot_); });
    return !builder;
  }

  /// The last resolved grid.
  [[nodiscard]] const SharedDataset::GridPtr& grid() const { return grid_; }

  std::span<const std::uint64_t> resolve_workloads(CellPattern pattern,
                                                   ThreadPool* p) {
    workloads_ = resolve_in_plan(
        pattern, &SharedDataset::PlanSlot::workloads, "workload", [&] {
          return std::make_shared<const std::vector<std::uint64_t>>(
              probe_ != nullptr ? probe_point_workloads(*grid_, *probe_, p)
                                : point_workloads(*grid_, pattern, p));
        });
    return *workloads_;
  }

  /// D': point ids by non-increasing workload. Requires resolve_workloads
  /// first (a builder sorts by the pinned workloads).
  std::span<const PointId> resolve_order(CellPattern pattern, ThreadPool* p) {
    order_ = resolve_in_plan(
        pattern, &SharedDataset::PlanSlot::order, "order", [&] {
          std::vector<PointId> order(workloads_->size());
          std::iota(order.begin(), order.end(), PointId{0});
          parallel_stable_sort(
              order,
              [&pw = *workloads_](PointId a, PointId b) {
                return pw[a] > pw[b];
              },
              p);
          return std::make_shared<const std::vector<PointId>>(
              std::move(order));
        });
    return *order_;
  }

  /// The run's whole-join size estimate: WORKQUEUE's first-1%-of-D'
  /// one (cached in the plan slot, as it depends on D'), else the
  /// strided one (cached in the grid slot). Sampled on a miss.
  std::uint64_t resolve_estimate(const SelfJoinConfig& cfg,
                                 std::span<const PointId> queue_order) {
    SharedDataset::Estimates& cache =
        cfg.work_queue ? pslot_->queue_estimates : gslot_->strided_estimates;
    const EstimateKey key = estimate_key(cfg);
    std::optional<std::uint64_t> est = cache.find(key);
    cache_event("estimate", est.has_value());
    if (!est.has_value()) {
      est = cfg.work_queue
                ? estimate_queue_total(*grid_, cfg.batching, queue_order,
                                       probe_)
                : estimate_strided_total(*grid_, cfg.batching, probe_);
      cache.put(key, *est);
    }
    return *est;
  }

 private:
  [[nodiscard]] std::uint64_t next_tick() {
    return sd_.tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Double-checked find-or-install under sd_.mu_: `find` runs under
  /// the shared lock, then once more under the exclusive lock; only
  /// when both miss does `install` run (still exclusive). True when
  /// this call installed.
  template <typename Find, typename Install>
  bool find_or_install(Find find, Install install) {
    {
      std::shared_lock lk(sd_.mu_);
      if (find()) return false;
    }
    std::unique_lock lk(sd_.mu_);
    if (find()) return false;
    install();
    return true;
  }

  /// Single-flight publish: the installing run builds outside any lock
  /// and publishes through `prom`; a failed build reaches the waiters
  /// and `rollback` (exclusive lock held) lets later requests rebuild.
  /// Then everyone waits on `fut`, outside any lock.
  template <typename Ptr, typename Build, typename Rollback>
  Ptr settle(const char* artifact, bool builder, std::promise<Ptr>& prom,
             const std::shared_future<Ptr>& fut, Build build,
             Rollback rollback) {
    cache_event(artifact, !builder);
    if (builder) {
      try {
        prom.set_value(build());
      } catch (...) {
        prom.set_exception(std::current_exception());
        std::unique_lock lk(sd_.mu_);
        rollback();
        throw;
      }
    }
    return fut.get();
  }

  /// The first slot of `v` that `match`es, LRU-bumped; null if none.
  /// Caller holds sd_.mu_ in either mode (the tick is atomic).
  template <typename Slot, typename Match>
  std::shared_ptr<Slot> find_locked(
      const std::vector<std::shared_ptr<Slot>>& v, Match match) {
    for (const auto& s : v) {
      if (match(*s)) {
        s->last_used.store(next_tick(), std::memory_order_relaxed);
        return s;
      }
    }
    return nullptr;
  }

  /// Appends a fresh slot and LRU-evicts beyond `bound`. The new slot
  /// holds the max tick, so it is never the victim; pinned runs keep
  /// evicted slots alive through their shared_ptrs.
  template <typename Slot>
  void install_locked(std::vector<std::shared_ptr<Slot>>& v,
                      const std::shared_ptr<Slot>& slot, std::size_t bound) {
    slot->last_used.store(next_tick(), std::memory_order_relaxed);
    v.push_back(slot);
    if (v.size() <= std::max<std::size_t>(1, bound)) return;
    v.erase(std::min_element(v.begin(), v.end(), [](const auto& a,
                                                    const auto& b) {
      return a->last_used.load(std::memory_order_relaxed) <
             b->last_used.load(std::memory_order_relaxed);
    }));
    count("evictions");
  }

  /// Single-flight resolution of one future-held artifact of the
  /// (grid, pattern, probe) plan slot, which is found or created and
  /// pinned first.
  template <typename Ptr, typename Build>
  Ptr resolve_in_plan(CellPattern pattern,
                      std::shared_future<Ptr> SharedDataset::PlanSlot::*member,
                      const char* artifact, Build build) {
    if (pslot_ == nullptr) {
      const std::uint64_t key = grid_->content_key();
      find_or_install(
          [&] {
            pslot_ = find_locked(sd_.plans_, [&](const auto& s) {
              return s.grid_key == key && s.pattern == pattern &&
                     s.probe_sig == probe_sig_;
            });
            return pslot_ != nullptr;
          },
          [&] {
            pslot_ = std::make_shared<SharedDataset::PlanSlot>();
            pslot_->grid_key = key;
            pslot_->pattern = pattern;
            pslot_->probe_sig = probe_sig_;
            install_locked(sd_.plans_, pslot_, sd_.max_plans_);
          });
    }
    std::shared_future<Ptr>& slot_future = (*pslot_).*member;
    std::promise<Ptr> prom;
    std::shared_future<Ptr> fut;
    const bool builder = find_or_install(
        [&] {
          fut = slot_future;
          return fut.valid();
        },
        [&] { slot_future = fut = prom.get_future().share(); });
    return settle(artifact, builder, prom, fut, build,
                  [&] { slot_future = {}; });
  }

  void count(const char* event) {
    if (svc_.config().obs.metrics != nullptr) {
      svc_.config().obs.metrics->counter(std::string("sj.cache.") + event)
          .add(1);
    }
  }

  void cache_event(const char* artifact, bool hit) {
    if (robs_ != nullptr && robs_->breakdown != nullptr) {
      robs_->breakdown->count_cache(artifact, hit);
    }
    obs::Registry* m = svc_.config().obs.metrics;
    if (m == nullptr) return;
    m->counter(hit ? "sj.cache.hits" : "sj.cache.misses").add(1);
    m->counter(std::string("sj.cache.") + artifact +
               (hit ? ".hits" : ".misses"))
        .add(1);
  }

  JoinService& svc_;
  SharedDataset& sd_;
  const Dataset* probe_ = nullptr;    ///< R×S only; null for Self/KNN
  std::uint64_t probe_sig_ = 0;
  obs::RequestObs* robs_;             ///< request attribution (may be null)
  std::unique_ptr<ThreadPool> pool_;  ///< depot lease, returned in dtor
  int pool_threads_ = 0;

  // Pins for the run's duration.
  std::shared_ptr<SharedDataset::GridSlot> gslot_;
  std::shared_ptr<SharedDataset::PlanSlot> pslot_;
  SharedDataset::GridPtr grid_;
  SharedDataset::WorkloadsPtr workloads_;
  SharedDataset::OrderPtr order_;
};

namespace {

/// KNN's k clamped to the dataset (k > n answers every point).
std::size_t knn_k_eff(const SelfJoinConfig& cfg, const Dataset& ds) {
  return std::min(static_cast<std::size_t>(cfg.knn_k), ds.size());
}

/// KNN's round-0 ε: cfg.knn_initial_epsilon, else seeded so a
/// uniform-density region holds ~k points per 2ε₀-ball — the round-0
/// grid then has on the order of n/k non-empty cells, and the
/// geometric schedule reaches any realistic neighborhood within a
/// handful of rounds.
double knn_initial_epsilon(const SelfJoinConfig& cfg, const Dataset& ds) {
  if (cfg.knn_initial_epsilon > 0.0) return cfg.knn_initial_epsilon;
  const std::size_t k_eff = knn_k_eff(cfg, ds);
  const auto lo = ds.min_corner();
  const auto hi = ds.max_corner();
  double volume = 1.0;
  for (int d = 0; d < ds.dims(); ++d) {
    volume *= hi[static_cast<std::size_t>(d)] - lo[static_cast<std::size_t>(d)];
  }
  const double eps0 =
      volume > 0.0 ? 0.5 * std::pow(static_cast<double>(k_eff) * volume /
                                        static_cast<double>(ds.size()),
                                    1.0 / static_cast<double>(ds.dims()))
                   : 0.0;
  // Degenerate boxes (single point, axis-flat data) have zero volume;
  // any positive seed works — widening corrects it geometrically.
  return eps0 > 0.0 && std::isfinite(eps0) ? eps0 : 1.0;
}

/// KNN-join by per-query iterative ε-widening (docs/JOINS.md, after the
/// Hybrid KNN-Join reduction): round r probes the ε_r = ε₀·growth^r
/// grid — resolved through the same grid cache the ε-joins use, so
/// repeated requests (and the shared schedule across queries) hit the
/// per-ε LRU — and a query resolves once ≥ k candidates sit within ε_r.
/// That is exact: the k-th nearest distance is then ≤ ε_r, so every
/// potential member of the answer set (distance ≤ k-th, boundary ties
/// included) is already a candidate; selection sorts by (distance², id),
/// the canonical tie-break.
void knn_search(const SelfJoinConfig& cfg, const Dataset& ds,
                ServicePlanSource& src, ThreadPool* p, double eps0,
                const std::atomic<bool>* cancel, SelfJoinOutput& out) {
  const Dataset& probe = *cfg.probe;
  const std::size_t k_eff = knn_k_eff(cfg, ds);
  const std::size_t n = ds.size();
  const std::size_t nq = probe.size();
  const int dims = ds.dims();
  struct Hit {
    double d2;
    PointId id;
  };
  const auto hit_before = [](const Hit& a, const Hit& b) {
    return a.d2 != b.d2 ? a.d2 < b.d2 : a.id < b.id;
  };

  Timer exec_timer;
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
    {
      const auto sp = obs::span(cfg.tracer, "grid_build");
      src.resolve_grid(eps_r, p);
    }
    const GridIndex& grid = *src.grid();
    out.stats.knn_rounds = static_cast<std::uint64_t>(round) + 1;
    out.stats.knn_final_epsilon = eps_r;
    for (std::size_t q = 0; q < nq; ++q) {
      if (done[q] != 0) continue;
      for (int d = 0; d < dims; ++d) {
        qc[static_cast<std::size_t>(d)] = probe.coord(q, d);
      }
      cand.clear();
      grid.for_each_in_range(qc, eps_r, [&cand](PointId c, double d2) {
        cand.push_back({d2, c});
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
  out.stats.warp_size = cfg.device.warp_size;
  out.stats.total_seconds = exec_timer.seconds();
}

}  // namespace

void plan_and_execute(JoinService& svc, SharedDataset& sd,
                      const SelfJoinConfig& cfg, ScratchArena& arena,
                      const std::atomic<bool>* cancel, obs::RequestObs* robs,
                      SelfJoinOutput& out) {
  const Dataset& ds = sd.dataset();
  validate_request(cfg, ds);
  ServicePlanSource src(svc, sd, &cfg, robs);  // returns its pool in dtor
  src.sync();

  out.results = ResultSet(cfg.store_pairs);
  if (cfg.store_pairs) {
    // Reuse the arena's spare pair buffer (capacity only; no content).
    out.results.adopt_storage(std::move(arena.spare_pairs));
    arena.spare_pairs = {};
  }
  const bool knn = cfg.mode == JoinMode::Knn;
  const bool rxs = cfg.mode == JoinMode::RxS;
  if (rxs && cfg.probe->empty()) {
    // No queries — the answer is empty without gridding anything (an
    // empty *gridded* dataset stays a config error, matching Self).
    return;
  }
  Timer host;

  // Host execution pool: when the config asks for worker threads but
  // supplies no external pool, the depot's pool of that size is
  // attached — same pool across the grid builds, planning and every
  // batch launch. `device` is the effective config handed to every
  // launch.
  simt::DeviceConfig device = cfg.device;
  if (device.host.num_threads > 0 && device.host.pool == nullptr) {
    device.host.pool = src.pool(device.host.num_threads);
  }
  ThreadPool* p = device.host.num_threads > 0 ? device.host.pool : nullptr;

  obs::Tracer* tracer = cfg.tracer;
  if (tracer != nullptr) tracer->set_device_config(device);
  auto pipeline_span = obs::span(tracer, knn ? "knn_join" : "self_join");

  // Request attribution (JoinService::submit): "plan"/"execute" spans
  // on the service channel parented under the request root, plus the
  // RequestBreakdown totals. request_id == 0 (engine runs, run()/
  // self_join()) emits nothing, keeping those channels' span sequences
  // exactly as before.
  const obs::SpanContext rctx =
      robs != nullptr ? robs->ctx : obs::SpanContext{};
  obs::Tracer* req_tracer =
      (robs != nullptr && rctx.request_id != 0) ? robs->tracer : nullptr;
  auto plan_span = obs::span(req_tracer, "plan", rctx);

  // --- plan stage. The ε-joins resolve every artifact from the cache,
  // computing and caching on miss, in one fixed sequence whose spans
  // each contain their work: grid_build; workload_quantify (fleet,
  // WORKQUEUE, SORTBYWL); sortbywl_sort (D', WORKQUEUE); batch_plan
  // around estimation_sample and the planner (SORTBYWL's per-batch
  // sort under its own sortbywl_sort). Hit and miss emit the same
  // spans, so logical traces are byte-identical warm and cold. KNN
  // plans only its round-0 ε; its grids resolve per widening round.
  //
  // The unidirectional patterns' pair-once trick has no meaning when
  // queries and candidates come from different datasets: R×S probes
  // every window cell, i.e. LID-UNICOMP degenerates to plain neighbor
  // probing. Forcing Full here keys the workload/order artifacts (and
  // the kernels, which additionally ignore the pattern in R×S mode)
  // uniformly across the six variants.
  const CellPattern pattern = rxs ? CellPattern::Full : cfg.pattern;
  const Dataset* probe = rxs ? cfg.probe : nullptr;
  const bool fleet = cfg.fleet.active();
  double eps0 = 0.0;
  BatchPlan plan;
  std::span<const std::uint64_t> workloads;
  std::span<const PointId> queue_order;
  if (knn) {
    eps0 = knn_initial_epsilon(cfg, ds);
  } else {
    bool grid_hit = false;
    {
      const auto sp = obs::span(tracer, "grid_build");
      grid_hit = src.resolve_grid(cfg.epsilon, p);
    }
    // Engine/service-channel span marking a cache-served plan stage.
    const auto reuse_span =
        obs::span(grid_hit ? svc.config().obs.tracer : nullptr, "plan_reuse");
    if (fleet || cfg.work_queue || cfg.sort_by_workload) {
      const auto sp = obs::span(tracer, "workload_quantify");
      workloads = src.resolve_workloads(pattern, p);
    }
    if (cfg.work_queue) {
      const auto sp = obs::span(tracer, "sortbywl_sort");
      queue_order = src.resolve_order(pattern, p);
    }
    const auto sp = obs::span(tracer, "batch_plan");
    std::uint64_t est = 0;
    {
      const auto esp = obs::span(tracer, "estimation_sample");
      est = src.resolve_estimate(cfg, queue_order);
    }
    const GridIndex& grid = *src.grid();
    if (fleet) {
      // execute_fleet plans each grain's batches from the estimate.
      plan.estimated_total_pairs = est;
      plan.num_batches = 0;
    } else if (cfg.work_queue) {
      plan = plan_queue(grid, cfg.batching, queue_order, workloads, nullptr,
                        est, probe);
    } else {
      const auto ssp = obs::span(cfg.sort_by_workload ? tracer : nullptr,
                                 "sortbywl_sort");
      plan = plan_strided(grid, cfg.batching, cfg.sort_by_workload, pattern,
                          nullptr, p, workloads, est, probe);
    }
    out.stats.num_batches = plan.num_batches;
    out.stats.estimated_total_pairs = plan.estimated_total_pairs;
  }
  out.stats.host_prep_seconds = host.seconds();
  plan_span.finish();
  if (robs != nullptr && robs->breakdown != nullptr) {
    robs->breakdown->plan_seconds = out.stats.host_prep_seconds;
  }
  if (robs != nullptr && robs->recorder != nullptr && !knn) {
    robs->recorder->record("plan_done", rctx.request_id,
                           plan.estimated_total_pairs);
  }

  // --- execute stage: the batched launches (sj/execute.cpp), or KNN's
  // widening rounds (knn_search) ---
  Timer exec_timer;
  auto exec_span = obs::span(req_tracer, "execute", rctx);
  if (knn) {
    knn_search(cfg, ds, src, p, eps0, cancel, out);
  } else {
    ExecutionInputs in;
    in.grid = src.grid().get();
    in.plan = &plan;
    in.probe = probe;
    in.queue_order = queue_order;
    in.point_workloads = workloads;
    in.device = device;
    in.cancel = cancel;
    in.channel_tracer = req_tracer;
    // Batch spans parent under this run's execute span. Built by hand
    // (not exec_span.child_context()) so the request id survives even
    // when no tracer is attached — the flight recorder still wants it.
    in.channel_ctx = obs::SpanContext{rctx.request_id, exec_span.id()};
    in.recorder = robs != nullptr ? robs->recorder : nullptr;
    if (fleet) {
      execute_fleet(cfg, in, arena, out);
    } else {
      execute_self_join(cfg, in, arena, out);
    }
  }
  exec_span.finish();
  if (robs != nullptr && robs->breakdown != nullptr) {
    obs::RequestBreakdown& b = *robs->breakdown;
    b.execute_seconds = exec_timer.seconds();
    b.batches = out.stats.num_batches;
    b.overflow_retries = out.stats.overflow_retries;
    b.result_pairs = out.stats.result_pairs;
  }
  if (robs != nullptr && robs->recorder != nullptr && knn) {
    robs->recorder->record("knn_done", rctx.request_id, out.stats.knn_rounds);
  }
}

std::shared_ptr<const GridIndex> shared_grid(JoinService& svc,
                                             SharedDataset& sd,
                                             double epsilon) {
  ServicePlanSource src(svc, sd, /*cfg=*/nullptr, /*robs=*/nullptr);
  src.sync();
  src.resolve_grid(epsilon, /*p=*/nullptr);
  return src.grid();
}

}  // namespace gsj::detail
