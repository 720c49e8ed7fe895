// JoinService: concurrent multi-client serving over the one plan-
// artifact cache.
//
// JoinService runs the plan+execute pipeline (sj/pipeline.hpp) for
// many clients against shared prepared datasets — the paper's
// scheduling discipline (decouple work items from executors, §III-D)
// applied one level up. Its SharedDataset is the repo's only artifact
// cache: JoinEngine (sj/engine.hpp) is a single-owner facade over a
// private JoinService, and the free self_join routes through
// JoinService::shared().
//
//   attach(ds)     -> shared_ptr<SharedDataset>  shared plan caches
//   run(sd,cfg)    -> SelfJoinOutput             synchronous, on the caller
//   submit(...)    -> Ticket                     queued, on the worker pool
//   self_join()    -> SelfJoinOutput             one-shot (no cross-call cache)
//   delta_join(..) -> optional<PairDelta>        churn delta (docs/STREAMING.md)
//
// Concurrency design (docs/SERVICE.md):
//
//  * SharedDataset carries the artifact caches (GridIndex by epsilon
//    bits, workloads + D' order by (grid content_key, pattern, probe
//    signature), estimates by (sample_fraction, skew, probe signature))
//    behind a reader/writer lock: concurrent cache *hits* take the
//    shared lock only and never serialize on each other.
//  * Misses are *single-flight*: the first requester installs a
//    promise-backed shared_future under the exclusive lock, builds
//    outside any lock, and publishes; N clients requesting the same
//    grid build it exactly once, the rest wait on the future.
//  * Working memory is pooled, not shared: every in-flight run checks
//    a ScratchArena (and, when host threads are requested, a
//    ThreadPool) out of a bounded depot and returns it afterwards, so
//    resident state is bounded by the depot caps — not by how many
//    threads ever joined.
//  * The admission queue is bounded and priority-ordered (higher
//    priority first, FIFO within a priority), with per-request queue
//    deadlines and cooperative cancellation routed through the
//    LaunchAbort hook (a cancelled in-flight run aborts at the next
//    warp-block boundary and reports JoinStatus::Cancelled).
//  * submit() additionally passes the *result-serving* gate of the
//    dataset's detail::ResultCache (sj/result_cache.hpp) before a
//    worker runs the pipeline: an exact cached result for the same
//    (dataset generation, ε, request class) is served directly; an
//    identical request already executing is joined as a follower
//    (single-flight result coalescing — duplicates never occupy a
//    worker); and a cached result for a larger ε answers a smaller ε'
//    through a linear dist² filter when a cost model says the filter
//    beats re-joining (ε-subsumption). Every served path is
//    bit-identical to a cold run of the same request — cached pairs
//    are stored in canonical order, the order every cold stored-pairs
//    run ends in. One function, JoinService::complete, finishes every
//    Ok answer, and any exception before a request is answered
//    becomes its Failed response. See docs/SERVICE.md §6.
//
// Correctness bar: any interleaving of concurrent clients yields
// results bit-identical to running those requests serially on a cold
// engine (tests/test_service.cpp pins this under TSan).
//
// Observability: the service's own channel (ServiceConfig::obs)
// carries svc.* instruments — queue depth, wait/service time
// histograms, per-status counters — plus the sj.cache.* family for the
// shared artifact caches; per-run sinks (SelfJoinConfig::tracer /
// ::metrics) are untouched and see exactly what a cold engine run
// would emit. Every submit()ted request additionally gets a stable
// request id, a parented span tree on the service tracer (queue_wait /
// plan / execute / batch N / overflow_retry under one "request" root),
// a RequestBreakdown in its JoinResponse, and flight-recorder
// breadcrumbs in the service's always-on recorder (docs/
// OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <shared_mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "obs/context.hpp"
#include "sj/delta.hpp"
#include "sj/result_cache.hpp"
#include "sj/selfjoin.hpp"

namespace gsj {

class SharedDataset;
class ThreadPool;
struct ServiceRequestState;  // sj/service.cpp (a ticket's shared state)

namespace detail {
struct ScratchArena;      // sj/execute.hpp
class ServicePlanSource;  // sj/pipeline.cpp (the plan stage's artifacts)
/// Result-size-estimate cache key (sj/pipeline.hpp estimate_key):
/// (sample_fraction bits, inject_estimator_skew bits, probe signature —
/// 0 for Self, so R×S estimates of different probes never alias).
using EstimateKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
}  // namespace detail

struct ServiceConfig {
  /// Worker threads serving the admission queue. Spawned lazily on the
  /// first submit(); run()/self_join() execute on the caller's thread
  /// and never require workers. Clamped to >= 1 at spawn time.
  std::size_t workers = 4;
  /// Bound on queued (not yet running) requests; submit() beyond it
  /// answers JoinStatus::Rejected immediately.
  std::size_t max_queue_depth = 256;
  /// Per-SharedDataset cache bounds: grids (one per ε) and plans (one
  /// per (grid, pattern, probe)); LRU beyond, clamped to >= 1.
  std::size_t max_cached_grids = 4;
  std::size_t max_cached_plans = 8;
  /// Per-SharedDataset byte budget for the result cache: completed
  /// submit() results (canonical pairs + scalar stats) retained for
  /// exact-ε and ε-subsumption serving, LRU-evicted beyond the budget.
  /// 0 disables retention entirely (in-flight duplicate coalescing
  /// still applies — it needs no storage beyond the running request).
  std::size_t max_result_cache_bytes = std::size_t{64} << 20;

  // --- the service's own observability channel (optional, non-owning).
  /// obs.tracer receives "prepare" (attach) / "plan_reuse" (cache-
  /// served plan) spans plus the per-request span tree; obs.metrics
  /// receives svc.* instruments (submitted/completed/rejected/expired/
  /// cancelled/failed counters, svc.queue_depth gauge,
  /// svc.queue_wait_seconds and svc.service_seconds time histograms),
  /// the sj.cache.* family, the sj.incr.* incremental family
  /// (repairs/repaired_cells/plan_patches/rebuild_fallbacks/
  /// delta_joins/delta_candidates), the svc.result_cache.* family
  /// (hits/misses/coalesced/subsumed/evictions/invalidations/
  /// repair_kept counters plus a bytes gauge) and the svc.stream.*
  /// subscription family (subscribes/polls/deltas/fallbacks/
  /// gained_pairs/lost_pairs). obs.recorder, when set, replaces the
  /// service-owned flight recorder; leave null for the always-on
  /// default (JoinService::recorder()).
  obs::ObsContext obs;
  /// Where the flight recorder auto-dumps the failing request's
  /// breadcrumbs on a Failed/Expired response. Null = std::cerr.
  std::ostream* recorder_dump = nullptr;
};

/// Terminal state of a served request.
enum class JoinStatus {
  Ok,         ///< ran to completion; JoinResponse::output is valid
  Rejected,   ///< admission queue full (or service shutting down)
  Expired,    ///< queue-wait deadline passed before the run started
  Cancelled,  ///< cancel token observed before or during the run
  Failed,     ///< the run threw (OverflowError, CheckError, ...)
};

[[nodiscard]] const char* to_string(JoinStatus s) noexcept;

/// One queued join request. The epsilon/variant/device knobs live in
/// `config`, exactly as a direct engine run would take them.
struct JoinRequest {
  SelfJoinConfig config;
  /// Higher runs first; FIFO within equal priorities.
  int priority = 0;
  /// Max seconds the request may wait in the queue before it is
  /// answered JoinStatus::Expired instead of run. Infinity = no limit.
  double deadline_seconds = std::numeric_limits<double>::infinity();
};

struct JoinResponse {
  JoinStatus status = JoinStatus::Failed;
  /// Valid only when status == Ok.
  SelfJoinOutput output;
  /// what() of the failure when status == Failed.
  std::string error;
  double wait_seconds = 0.0;     ///< admission-queue wait
  double service_seconds = 0.0;  ///< run wall time (0 unless started)
  /// Stable id assigned at submit() (>= 1); keys this request's spans
  /// on the service tracer and its flight-recorder breadcrumbs.
  /// 0 for run()/self_join() responses, which are not requests.
  std::uint64_t request_id = 0;
  /// Per-stage attribution for this request (wait/plan/execute
  /// seconds, per-artifact cache hits/misses, batches, retries,
  /// pairs). Stage fields are filled only for requests that ran.
  obs::RequestBreakdown breakdown;
};

namespace detail {

/// One submitted request from submit() to its answer: queued, running,
/// or parked on an identical request's flight (sj/result_cache.hpp).
struct QueueItem {
  std::shared_ptr<SharedDataset> sd;
  JoinRequest req;
  std::shared_ptr<ServiceRequestState> state;
  std::uint64_t seq = 0;
  std::uint64_t request_id = 0;  ///< stable id assigned at submit()
  std::uint64_t submit_ts = 0;   ///< tracer timestamp at submit (0 = none)
  Timer queued;                  ///< measures admission-queue wait
  // --- set when a worker dequeues it ---
  double wait_seconds = 0.0;   ///< admission-queue wait
  std::uint64_t root_id = 0;   ///< id of its root "request" span
  std::uint64_t serve_ts = 0;  ///< tracer timestamp at the result gate
  Timer serving;               ///< wall time since the result gate
  /// Set while it is the primary its duplicates attach to.
  std::shared_ptr<ResultCache::Flight> flight;

  /// Heap order of the admission queue: `a` dequeues after `b` when it
  /// has lower priority, or equal priority and a later seq (FIFO).
  static bool dequeues_after(const QueueItem& a, const QueueItem& b) {
    if (a.req.priority != b.req.priority) {
      return a.req.priority < b.req.priority;
    }
    return a.seq > b.seq;
  }
};

}  // namespace detail

/// Point-in-time view of a running service (JoinService::snapshot).
struct ServiceSnapshot {
  /// Queued-but-not-started requests, total and by priority.
  std::size_t queue_depth = 0;
  std::map<int, std::size_t> queued_by_priority;
  struct InFlightRequest {
    std::uint64_t request_id = 0;
    int priority = 0;
    double age_seconds = 0.0;  ///< since the worker started executing
  };
  /// Requests currently executing on workers, request-id ascending.
  std::vector<InFlightRequest> in_flight;
  /// Depot levels (idle, excludes checked-out leases).
  std::size_t idle_arenas = 0;
  std::size_t idle_thread_pools = 0;
  /// Live attach()ed datasets and their aggregate cache population.
  std::size_t attached_datasets = 0;
  std::size_t cached_grids = 0;
  std::size_t cached_plans = 0;
  /// Approximate bytes held by ready cached artifacts (grids,
  /// workloads, D' orders) across live attached datasets.
  std::size_t cached_bytes = 0;
  /// Result-cache occupancy across live attached datasets
  /// (docs/SERVICE.md result-serving layer), plus the per-dataset byte
  /// budget it is bounded by (ServiceConfig::max_result_cache_bytes).
  std::size_t result_entries = 0;
  std::size_t result_bytes = 0;
  std::size_t result_budget_bytes = 0;
  /// Live streaming delta subscriptions (JoinService::subscribe).
  std::size_t subscriptions = 0;
  /// Fleet serving totals (docs/SIMULATOR.md §fleet): accumulated over
  /// every run with fleet.num_devices > 1 since service construction.
  /// Empty/zero when no fleet run has happened.
  struct FleetDeviceRow {
    int device = 0;
    std::uint64_t grains = 0;          ///< grains scheduled onto it
    double busy_seconds = 0.0;         ///< modeled busy (incl. wasted)
    double tail_idle_seconds = 0.0;    ///< idle behind each makespan
  };
  std::uint64_t fleet_runs = 0;
  std::uint64_t fleet_rebalances = 0;
  /// Device-level busy-seconds CoV of the most recent fleet run.
  double fleet_device_cov = 0.0;
  /// Makespan imbalance (max/mean busy) of the most recent fleet run.
  double fleet_imbalance = 0.0;
  /// Per-device cumulative rows, device id ascending.
  std::vector<FleetDeviceRow> fleet_devices;
};

/// A dataset attached to the service, carrying the shared,
/// reader/writer-locked plan-artifact caches. Create via
/// JoinService::attach; the Dataset must outlive every run against it,
/// and requests against it are submit()ted to that service, whose
/// result budget and metrics its result cache uses. Runs may be issued
/// against one SharedDataset from any number of threads concurrently;
/// mutating the *dataset* is only supported while no run is in flight.
/// A generation change does not drop the caches as a unit: each
/// cached grid is clone-and-repaired cell-granularly
/// from the dataset's mutation log (GridIndex::repair) and dependent
/// workload/D' plans are patched for the affected cells only
/// (docs/STREAMING.md); only an unrepairable window (bulk load, log
/// overrun, grid-shape change) drops what cannot be repaired.
class SharedDataset {
 public:
  SharedDataset(const SharedDataset&) = delete;
  SharedDataset& operator=(const SharedDataset&) = delete;

  [[nodiscard]] const Dataset& dataset() const noexcept { return *ds_; }
  /// Dataset generation the artifact caches were last synced to; a
  /// mismatch with dataset().generation() means the next run repairs
  /// them first.
  [[nodiscard]] std::uint64_t generation() const;
  [[nodiscard]] std::size_t cached_grid_count() const;
  [[nodiscard]] std::size_t cached_plan_count() const;
  /// Approximate bytes held by *ready* cached artifacts (built grids,
  /// workload vectors, D' orders); artifacts still building count 0.
  [[nodiscard]] std::size_t cached_artifact_bytes() const;
  /// Result-cache occupancy: completed submit() results retained for
  /// exact-ε and ε-subsumption serving (docs/SERVICE.md).
  [[nodiscard]] std::size_t result_cache_entries() const {
    return answers_.entries();
  }
  [[nodiscard]] std::size_t result_cache_bytes() const {
    return answers_.bytes();
  }

  /// One ready cached grid's identity: the epsilon it was built for,
  /// its content digest (GridIndex::content_key) and the dataset
  /// generation it reflects. Used by churn harnesses (sjtool serve
  /// --churn-rate) to assert repaired grids are digest-identical to
  /// from-scratch rebuilds without reaching into the cache.
  struct GridDigest {
    double epsilon = 0.0;
    std::uint64_t content_key = 0;
    std::uint64_t generation = 0;
  };
  /// Digests of every *ready* cached grid (building/failed slots are
  /// skipped), in cache order.
  [[nodiscard]] std::vector<GridDigest> cached_grid_digests() const;

 private:
  friend class JoinService;
  friend class detail::ServicePlanSource;
  friend class detail::ResultCache;

  using GridPtr = std::shared_ptr<const GridIndex>;
  using WorkloadsPtr = std::shared_ptr<const std::vector<std::uint64_t>>;
  using OrderPtr = std::shared_ptr<const std::vector<PointId>>;

  /// Result-size estimates cached in one grid or plan slot. Its own
  /// mutex, so estimate traffic from pinned runs never touches the
  /// dataset-wide lock.
  struct Estimates {
    std::mutex mu;
    std::map<detail::EstimateKey, std::uint64_t> map;
    /// The one estimate-cache read: the plan stage's and the result
    /// gate's cost model (SharedDataset::strided_estimate).
    std::optional<std::uint64_t> find(const detail::EstimateKey& key) {
      std::lock_guard lk(mu);
      const auto it = map.find(key);
      if (it == map.end()) return std::nullopt;
      return it->second;
    }
    /// First wins: concurrent runs compute the same pure function of
    /// (grid, config), so whichever lands is the value.
    void put(const detail::EstimateKey& key, std::uint64_t value) {
      std::lock_guard lk(mu);
      map.emplace(key, value);
    }
    void clear() {
      std::lock_guard lk(mu);
      map.clear();
    }
  };

  /// One cached grid (single-flight: `grid` may still be building).
  /// Slots are shared_ptr-held: an in-flight run pins its slot, so LRU
  /// eviction under the exclusive lock can never dangle a reader.
  struct GridSlot {
    std::uint64_t eps_bits = 0;
    std::shared_future<GridPtr> grid;  ///< guarded by SharedDataset::mu_
    Estimates strided_estimates;
    std::atomic<std::uint64_t> last_used{0};
  };

  /// One cached workload/order entry per (grid, pattern, probe
  /// signature). Self plans carry probe_sig 0 and index the gridded
  /// dataset; R×S plans carry detail::probe_signature of their request
  /// and index the probe dataset — the signature in the match key is
  /// what keeps the two from ever aliasing.
  struct PlanSlot {
    std::uint64_t grid_key = 0;
    CellPattern pattern = CellPattern::Full;
    std::uint64_t probe_sig = 0;
    /// Single-flight futures; !valid() until the first requester
    /// installs its promise. Guarded by SharedDataset::mu_.
    std::shared_future<WorkloadsPtr> workloads;
    std::shared_future<OrderPtr> order;
    Estimates queue_estimates;
    std::atomic<std::uint64_t> last_used{0};
  };

  SharedDataset(const Dataset& ds, std::size_t max_grids,
                std::size_t max_plans,
                std::shared_ptr<detail::ResultCache::Env> results)
      : ds_(&ds),
        generation_(ds.generation()),
        max_grids_(max_grids),
        max_plans_(max_plans),
        answers_(ds.generation(), std::move(results)) {}

  /// The result cache's reads of the artifact caches: a ready cached
  /// grid of the dataset's current generation (any ε), and the strided
  /// estimate on file for cfg at cfg.epsilon — the one estimate read,
  /// bumping no LRU tick and counting no plan-cache event.
  [[nodiscard]] GridPtr current_grid() const;
  [[nodiscard]] std::optional<std::uint64_t> strided_estimate(
      const SelfJoinConfig& cfg) const;

  const Dataset* ds_;
  mutable std::shared_mutex mu_;
  std::uint64_t generation_;  ///< guarded by mu_
  std::atomic<std::uint64_t> tick_{0};  ///< LRU clock
  std::size_t max_grids_;
  std::size_t max_plans_;
  std::vector<std::shared_ptr<GridSlot>> grids_;  ///< guarded by mu_
  std::vector<std::shared_ptr<PlanSlot>> plans_;  ///< guarded by mu_
  /// Retained answers and in-flight duplicates (its own lock).
  detail::ResultCache answers_;
};

class JoinService {
 public:
  explicit JoinService(ServiceConfig cfg = {});
  /// Drains the admission queue (every outstanding ticket is answered)
  /// and joins the workers. Cancel tickets first for a fast shutdown.
  ~JoinService();
  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;

  /// Handle to one queued request: its eventual response plus the
  /// cooperative cancel token. Copyable; all copies share state.
  class Ticket {
   public:
    Ticket() = default;

    /// Blocks until the request reaches a terminal state. Valid once
    /// per ticket (the response's output is moved out).
    [[nodiscard]] JoinResponse get();

    /// Requests cooperative cancellation: a queued request is answered
    /// Cancelled without running; an in-flight one aborts at the next
    /// launch-abort poll or batch boundary. Idempotent; racing with
    /// completion is benign (the run may still finish Ok).
    void cancel() noexcept;

    /// True once a worker has started executing the request (used to
    /// drive genuinely mid-flight cancellations in tests).
    [[nodiscard]] bool started() const noexcept;

   private:
    friend class JoinService;
    std::shared_ptr<struct ServiceRequestState> state_;
  };

  /// Admits a dataset for shared serving: returns the cache shell all
  /// subsequent runs against `ds` should share. The dataset must
  /// outlive every run against the handle.
  [[nodiscard]] std::shared_ptr<SharedDataset> attach(const Dataset& ds);

  /// Runs one join synchronously on the calling thread against the
  /// shared caches. Identical contract (validation, OverflowError) and
  /// bit-identical output to a cold engine run; safe to call from any
  /// number of threads concurrently.
  [[nodiscard]] SelfJoinOutput run(SharedDataset& sd,
                                   const SelfJoinConfig& cfg);

  /// Enqueues one join for the worker pool. Never blocks: a full queue
  /// (or a stopping service) yields an immediately-ready Rejected
  /// ticket.
  [[nodiscard]] Ticket submit(std::shared_ptr<SharedDataset> sd,
                              JoinRequest req);

  /// One-shot convenience with the free self_join's exact semantics:
  /// an ephemeral SharedDataset per call (no plan caching across
  /// calls, no dataset lifetime entanglement), but arenas and host
  /// pools still come from the bounded depots.
  [[nodiscard]] SelfJoinOutput self_join(const Dataset& ds,
                                         const SelfJoinConfig& cfg);

  /// Reclaims a consumed output's allocations (pair buffer, batch
  /// stats, slot vectors) into an idle pooled arena for a later run.
  /// Drops them when no arena is idle.
  void recycle(SelfJoinOutput&& out);

  /// Streaming delta join (docs/STREAMING.md): the exact gained/lost
  /// ordered-pair sets of the `epsilon` self-join across the mutation
  /// window [from_generation, now], computed by re-joining only the
  /// churn's ε-neighborhood against the ε grid, which it resolves (and
  /// repairs) through the same shared cache run() uses. Returns nullopt
  /// when the window is not available — the dataset's bounded log no
  /// longer covers from_generation, a bulk load intervened, or the
  /// dataset is empty — in which case the caller must fall back to a
  /// full join. Requires epsilon > 0. Counts sj.incr.delta_joins and
  /// sj.incr.delta_candidates.
  [[nodiscard]] std::optional<PairDelta> delta_join(
      SharedDataset& sd, double epsilon, std::uint64_t from_generation);

  // --- streaming delta subscriptions (docs/STREAMING.md) ---

  /// Identifies one standing subscription; valid until unsubscribe().
  using SubscriptionId = std::uint64_t;

  /// One poll()'s answer: the exact ordered-pair delta of the ε
  /// self-join between the subscriber's last-delivered snapshot and the
  /// current dataset. `delta.gained` is labeled with current point ids,
  /// `delta.lost` with the ids of the last-delivered snapshot (see
  /// PairDelta). `fallback` is true when the dataset's mutation log no
  /// longer covered the window and the service re-joined from scratch
  /// and diffed — the delta is exact either way.
  struct DeltaPoll {
    bool fallback = false;
    /// Dataset generation this poll advanced the subscription to.
    std::uint64_t generation = 0;
    PairDelta delta;
  };

  /// Opens a standing subscription on the ε self-join over `sd`: runs
  /// one full join to seed the retained snapshot (through the shared
  /// caches, so the work is reused by later requests) and returns the
  /// handle polls are issued against. Requires epsilon > 0; an empty
  /// dataset seeds an empty snapshot without running a join.
  [[nodiscard]] SubscriptionId subscribe(std::shared_ptr<SharedDataset> sd,
                                         double epsilon);
  /// Delivers the delta accumulated since the last poll (or since
  /// subscribe) and advances the subscription to the current dataset
  /// generation. Quiescent datasets answer an empty delta without any
  /// join work; churn within the mutation-log window is answered by
  /// delta_join. Polls are serialized per service; each poll runs on
  /// the calling thread.
  [[nodiscard]] DeltaPoll poll(SubscriptionId id);
  /// Closes a subscription; unknown ids are a no-op.
  void unsubscribe(SubscriptionId id);
  /// Live subscriptions (tests, sjtool top).
  [[nodiscard]] std::size_t subscription_count() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

  /// Bounds on the idle scratch arenas / host thread pools the depots
  /// keep for reuse; leases beyond them are served fresh and destroyed
  /// on return.
  static constexpr std::size_t kMaxPooledArenas = 8;
  static constexpr std::size_t kMaxPooledThreadPools = 4;

  // --- introspection (tests, sjtool top, docs/SERVICE.md) ---
  /// Queued-but-not-started requests.
  [[nodiscard]] std::size_t queue_depth() const;
  /// Idle pooled scratch arenas (excludes checked-out leases).
  [[nodiscard]] std::size_t resident_arenas() const;
  /// Idle pooled host thread pools (excludes checked-out leases).
  [[nodiscard]] std::size_t resident_thread_pools() const;
  /// Point-in-time view: queue depth and per-priority occupancy,
  /// in-flight requests with ages, depot levels, attached-dataset
  /// cache population/bytes. Each section is internally consistent;
  /// the whole is advisory (the service keeps running underneath).
  [[nodiscard]] ServiceSnapshot snapshot() const;
  /// The effective flight recorder: cfg.obs.recorder when set, else
  /// the service-owned always-on one. Never null.
  [[nodiscard]] obs::FlightRecorder& recorder() const noexcept;

  /// The process-wide service backing the free self_join wrapper.
  /// Default-configured; workers spawn only if submit() is ever used.
  [[nodiscard]] static JoinService& shared();

 private:
  friend class detail::ServicePlanSource;

  /// Core run path shared by run()/submit()/self_join(): leases
  /// working memory, resolves the plan through the shared caches and
  /// executes. Throws as a cold self_join does (CheckError,
  /// OverflowError), plus CancelledError. `robs`
  /// carries the request attribution bundle for submit()ted requests
  /// (null for run()/self_join(), which are not requests).
  SelfJoinOutput execute(SharedDataset& sd, const SelfJoinConfig& cfg,
                         const std::atomic<bool>* cancel,
                         obs::RequestObs* robs);

  /// Brings a SharedDataset's artifact caches up to date with its
  /// dataset's generation: clone-and-repairs every ready cached grid
  /// (slots hold immutable shared GridIndex instances pinned by
  /// in-flight runs, so repair happens on a private copy that replaces
  /// the slot's future) and patches dependent workload/D' plans for the
  /// affected cells only. Unrepairable grids are rebuilt from scratch
  /// and their plans dropped; a grid whose repair throws (no longer
  /// buildable) is dropped with its plans. No-op when already current.
  /// Called by ServicePlanSource::sync (every run and delta_join) and
  /// before the result gate.
  void sync_shared(SharedDataset& sd);

  // --- the request path of submit() ---
  /// Answers one dequeued request: cancelled or expired in the queue,
  /// else through the result gate (sj/result_cache.hpp) and, unless it
  /// is served there, the pipeline.
  void serve(detail::QueueItem& item);
  /// The one completion of every Ok answer — executed, exact hit,
  /// subsumed or coalesced — `seconds` after its service clock started.
  /// A primary also settles its flight: its answer is retained and each
  /// parked duplicate is answered from it (Failed alone if its copy
  /// fails).
  void complete(detail::QueueItem& item, JoinResponse&& r,
                obs::ServedFrom from, double seconds);
  /// Ends a request answered Cancelled, Expired or Failed: counts the
  /// status, leaves `crumb` (if any) in the flight recorder, dumps a
  /// Failed/Expired request's breadcrumbs, and sends a primary's parked
  /// duplicates back to the queue to run again.
  void end_not_ok(detail::QueueItem& item, JoinResponse&& r,
                  const char* crumb);
  /// Fills the response's ids and queue wait, records the root
  /// "request" span, then responds — the single exit of every dequeued
  /// request.
  void finish(const detail::QueueItem& item, JoinResponse&& r);
  /// Records one hand-timed span of the request, open since tracer
  /// time `since`: its root "request" span or a child of the root
  /// (queue_wait, result_hit, subsume_filter, result_coalesce).
  void request_span(const detail::QueueItem& item, const char* name,
                    std::uint64_t since, bool root = false);

  /// Folds a fleet run's device-level stats into the service totals
  /// (snapshot fleet section) and publishes the svc.fleet.* metric
  /// family. Called by execute() whenever the run used the fleet path.
  void record_fleet(const simt::FleetStats& fs);

  void spawn_workers_locked();
  void worker_loop();
  void respond(ServiceRequestState& st, JoinResponse&& r);
  void count(const char* name, std::uint64_t n = 1);
  void observe(const char* histogram, double seconds);
  void push_locked(detail::QueueItem&& item);
  void set_queue_depth_locked(std::size_t depth);
  /// Dumps the request's recorder breadcrumbs to cfg_.recorder_dump
  /// (std::cerr when null), serialized by a dump mutex.
  void dump_recorder(std::uint64_t request_id, const char* why);

  // Depot checkout/return (bounded; see ServiceConfig).
  std::unique_ptr<detail::ScratchArena> checkout_arena();
  void return_arena(std::unique_ptr<detail::ScratchArena> arena);
  std::unique_ptr<ThreadPool> checkout_pool(int num_threads);
  void return_pool(int num_threads, std::unique_ptr<ThreadPool> pool);

  ServiceConfig cfg_;
  /// Backs recorder() when cfg_.obs.recorder is null (always-on).
  std::unique_ptr<obs::FlightRecorder> own_recorder_;
  std::atomic<std::uint64_t> next_request_id_{0};
  mutable std::mutex dump_mu_;  ///< serializes recorder dumps
  /// Every dataset's result cache shares it. Its service-wide byte total
  /// feeds the svc.result_cache.bytes gauge; snapshot() recomputes
  /// exact totals from the live datasets instead of reading it.
  std::shared_ptr<detail::ResultCache::Env> results_env_ =
      std::make_shared<detail::ResultCache::Env>();

  // --- admission queue ---
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::vector<detail::QueueItem> queue_;  ///< heap (priority desc, seq asc)
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // --- fleet serving totals (snapshot + svc.fleet.* metrics) ---
  mutable std::mutex fleet_mu_;
  std::uint64_t fleet_runs_ = 0;
  std::uint64_t fleet_rebalances_ = 0;
  double fleet_last_cov_ = 0.0;
  double fleet_last_imbalance_ = 0.0;
  std::vector<ServiceSnapshot::FleetDeviceRow> fleet_devices_;

  // --- in-flight request tracking (snapshot) ---
  struct InFlight {
    int priority = 0;
    Timer started;
  };
  mutable std::mutex inflight_mu_;
  std::map<std::uint64_t, InFlight> inflight_;

  // --- attached datasets (snapshot; pruned of expired entries) ---
  mutable std::mutex attach_mu_;
  mutable std::vector<std::weak_ptr<SharedDataset>> attached_;

  // --- streaming delta subscriptions (docs/STREAMING.md) ---
  /// One standing subscription: the retained canonical ordered-pair
  /// set of the ε self-join at `generation`, advanced by sorted set
  /// ops (retained \ lost ∪ gained) on every non-empty poll.
  struct Subscription {
    std::shared_ptr<SharedDataset> sd;
    double epsilon = 0.0;
    std::uint64_t generation = 0;
    std::vector<ResultPair> retained;
  };
  /// Fallback path when delta_join has no window: full re-join diffed
  /// against the retained set.
  PairDelta full_diff(Subscription& sub);
  mutable std::mutex sub_mu_;  ///< guards subs_ / next_sub_id_; polls
                               ///< hold it for their full duration
  std::map<SubscriptionId, Subscription> subs_;
  SubscriptionId next_sub_id_ = 0;

  // --- pooled working memory ---
  mutable std::mutex arena_mu_;
  std::vector<std::unique_ptr<detail::ScratchArena>> idle_arenas_;
  mutable std::mutex pool_mu_;
  std::map<int, std::vector<std::unique_ptr<ThreadPool>>> idle_pools_;
  std::size_t idle_pool_count_ = 0;
};

}  // namespace gsj
