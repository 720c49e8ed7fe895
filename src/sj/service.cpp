#include "sj/service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <iostream>
#include <optional>
#include <span>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "data/churn.hpp"
#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/execute.hpp"
#include "sj/pipeline.hpp"

namespace gsj {

const char* to_string(JoinStatus s) noexcept {
  switch (s) {
    case JoinStatus::Ok:
      return "ok";
    case JoinStatus::Rejected:
      return "rejected";
    case JoinStatus::Expired:
      return "expired";
    case JoinStatus::Cancelled:
      return "cancelled";
    case JoinStatus::Failed:
      return "failed";
  }
  return "unknown";
}

/// Shared state between a Ticket and the worker serving its request.
struct ServiceRequestState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;        ///< guarded by mu
  JoinResponse response;    ///< guarded by mu; valid once done
  std::atomic<bool> cancel{false};
  std::atomic<bool> started{false};
};

struct JoinService::QueueItem {
  std::shared_ptr<SharedDataset> sd;
  JoinRequest req;
  std::shared_ptr<ServiceRequestState> state;
  std::uint64_t seq = 0;
  std::uint64_t request_id = 0;  ///< stable id assigned at submit()
  std::uint64_t submit_ts = 0;   ///< tracer timestamp at submit (0 = none)
  Timer queued;                  ///< measures admission-queue wait

  /// Heap order of the admission queue: `a` dequeues after `b` when it
  /// has lower priority, or equal priority and a later seq (FIFO).
  static bool dequeues_after(const QueueItem& a, const QueueItem& b) {
    if (a.req.priority != b.req.priority) {
      return a.req.priority < b.req.priority;
    }
    return a.seq > b.seq;
  }
};

namespace detail {

/// One single-flight slot of the result-coalescing layer: the primary
/// request executing a result key, plus every identical request that
/// attached while it ran. Lives in SharedDataset::result_flights_;
/// `followers` is guarded by the owner's result_mu_. The primary
/// detaches the flight (publish_result / abandon_flight) on every exit
/// path, which also breaks the transient sd -> flight -> QueueItem ->
/// sd ownership cycle.
struct ResultFlight {
  SharedDataset* sd = nullptr;
  ResultKey key;
  bool store_pairs = false;  ///< the primary's storage mode
  std::uint64_t primary_rid = 0;
  struct Follower {
    JoinService::QueueItem item;
    /// Response shell filled at the follower's own dequeue
    /// (request id, wait_seconds) — completed at publish time.
    JoinResponse partial;
    std::uint64_t root_id = 0;
    std::uint64_t attach_ts = 0;  ///< tracer ts at attach (0 = none)
    Timer attached;               ///< wall time spent attached
  };
  std::vector<Follower> followers;
};

}  // namespace detail

namespace {

/// ε-subsumption cost model: a cached ε-result answers a smaller ε' via
/// a linear dist² filter only when cached_pairs <= ratio ×
/// estimated_result_pairs(ε') (from the shared estimate cache). With no
/// estimate on file the filter is taken unconditionally — one linear
/// pass over an existing pair list is far cheaper than the join that
/// would have to produce it.
constexpr double kSubsumeCostRatio = 8.0;

/// The artifact a single-flight slot holds, or null while it is still
/// building (no blocking). get() on a ready future can still rethrow a
/// build failure in the narrow window before the builder rolls its
/// slot back; such slots read as null too.
template <typename Ptr>
Ptr ready_or_null(const std::shared_future<Ptr>& f) {
  if (!f.valid() ||
      f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    return nullptr;
  }
  try {
    return f.get();
  } catch (...) {
    return nullptr;
  }
}

/// A ready shared_future wrapping an already-built artifact — how
/// repaired/patched artifacts re-enter the single-flight slots.
template <typename T>
std::shared_future<T> ready_future(T value) {
  std::promise<T> prom;
  prom.set_value(std::move(value));
  return prom.get_future().share();
}

/// The producing run's stats reduced to an *answer* summary: per-batch
/// and per-slot vectors describe one execution, not the result, so a
/// cached payload drops them.
SelfJoinStats scalar_stats(const SelfJoinStats& s) {
  SelfJoinStats c = s;
  c.batches.clear();
  c.batches.shrink_to_fit();
  c.slots.clear();
  c.slots.shrink_to_fit();
  return c;
}

/// Copies a cached result into a response's output honoring the
/// request's storage mode. A pairs-bearing payload can answer a
/// count-only request (the count rides along); the serving gate never
/// pairs the reverse.
void fill_served_output(SelfJoinOutput& out, const ResultSet& results,
                        const SelfJoinStats& stats, bool store_pairs) {
  out.stats = stats;
  if (results.stores_pairs() == store_pairs) {
    out.results = results;
  } else {
    out.results = ResultSet(false);
    out.results.add_count(results.count());
  }
}

/// True when a pure-move churn provably leaves a cached ε-result's
/// pair set unchanged: no touched point appears in a non-self cached
/// pair (its old ε-neighborhood was empty) and none has an ε-neighbor
/// at its new position (checked against the current grid). Cached
/// pairs are canonical sorted ordered pairs including self-pairs, so
/// both directions of any pair with a touched endpoint are caught by
/// probing `first == id`.
bool churn_misses_result(const Dataset& ds, const GridIndex& grid,
                         const ChurnSummary& churn, double epsilon,
                         const ResultSet& results) {
  const std::span<const ResultPair> pairs = results.pairs();
  const double eps2 = epsilon * epsilon;
  const int dims = grid.dims();
  const auto sdims = static_cast<std::size_t>(dims);
  // Enough shells that anything within `epsilon` of the probe sits in
  // a visited cell (cells are grid.epsilon() wide; floor+1 >= ceil).
  const int shells =
      static_cast<int>(std::floor(epsilon / grid.epsilon())) + 1;
  std::array<double, kMaxDims> cur{};
  for (const auto& t : churn.touched) {
    const auto lo = std::lower_bound(pairs.begin(), pairs.end(),
                                     ResultPair{t.id, PointId{0}});
    for (auto it = lo; it != pairs.end() && it->first == t.id; ++it) {
      if (it->second != t.id) return false;  // had an ε-neighbor before
    }
    for (int d = 0; d < dims; ++d) {
      cur[static_cast<std::size_t>(d)] = ds.coord(t.id, d);
    }
    bool neighbor = false;
    grid.for_each_within(
        {cur.data(), sdims}, shells,
        [&](std::size_t ci, const CellCoords&, std::uint64_t) {
          if (neighbor) return;
          for (const PointId q : grid.cell_points(ci)) {
            if (q == t.id) continue;
            double s = 0.0;
            for (int d = 0; d < dims; ++d) {
              const double diff =
                  cur[static_cast<std::size_t>(d)] - ds.coord(q, d);
              s += diff * diff;
            }
            if (s <= eps2) {
              neighbor = true;
              return;
            }
          }
        });
    if (neighbor) return false;  // has an ε-neighbor at the new spot
  }
  return true;
}

}  // namespace

std::uint64_t SharedDataset::generation() const {
  std::shared_lock lk(mu_);
  return generation_;
}

std::size_t SharedDataset::cached_grid_count() const {
  std::shared_lock lk(mu_);
  return grids_.size();
}

std::size_t SharedDataset::cached_plan_count() const {
  std::shared_lock lk(mu_);
  return plans_.size();
}

std::size_t SharedDataset::cached_artifact_bytes() const {
  std::shared_lock lk(mu_);
  std::size_t bytes = 0;
  for (const auto& g : grids_) {
    if (const GridPtr p = ready_or_null(g->grid); p != nullptr) {
      bytes += p->memory_bytes();
    }
  }
  for (const auto& pl : plans_) {
    if (const WorkloadsPtr w = ready_or_null(pl->workloads); w != nullptr) {
      bytes += w->capacity() * sizeof(std::uint64_t);
    }
    if (const OrderPtr o = ready_or_null(pl->order); o != nullptr) {
      bytes += o->capacity() * sizeof(PointId);
    }
  }
  return bytes;
}

std::vector<SharedDataset::GridDigest> SharedDataset::cached_grid_digests()
    const {
  std::shared_lock lk(mu_);
  std::vector<GridDigest> out;
  out.reserve(grids_.size());
  for (const auto& g : grids_) {
    if (const GridPtr p = ready_or_null(g->grid); p != nullptr) {
      out.push_back({std::bit_cast<double>(g->eps_bits), p->content_key(),
                     p->generation()});
    }
  }
  return out;
}

std::size_t SharedDataset::result_cache_entries() const {
  std::lock_guard lk(result_mu_);
  return results_.size();
}

std::size_t SharedDataset::result_cache_bytes() const {
  std::lock_guard lk(result_mu_);
  return result_bytes_;
}

// ---------------------------------------------------------------------------
// JoinService
// ---------------------------------------------------------------------------

JoinService::JoinService(ServiceConfig cfg) : cfg_(cfg) {
  // The flight recorder is always on: cheap enough for serving mode,
  // and a Failed/Expired response needs breadcrumbs to dump.
  if (cfg_.obs.recorder == nullptr) {
    own_recorder_ = std::make_unique<obs::FlightRecorder>();
  }
}

JoinService::~JoinService() {
  {
    std::lock_guard lk(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

JoinService& JoinService::shared() {
  static JoinService svc;
  return svc;
}

obs::FlightRecorder& JoinService::recorder() const noexcept {
  return cfg_.obs.recorder != nullptr ? *cfg_.obs.recorder : *own_recorder_;
}

std::shared_ptr<SharedDataset> JoinService::attach(const Dataset& ds) {
  const auto sp = obs::span(cfg_.obs.tracer, "prepare");
  auto sd = std::shared_ptr<SharedDataset>(new SharedDataset(
      ds, cfg_.max_cached_grids, cfg_.max_cached_plans));
  std::lock_guard lk(attach_mu_);
  std::erase_if(attached_, [](const auto& w) { return w.expired(); });
  attached_.push_back(sd);
  return sd;
}

SelfJoinOutput JoinService::execute(SharedDataset& sd,
                                    const SelfJoinConfig& cfg,
                                    const std::atomic<bool>* cancel,
                                    obs::RequestObs* robs) {
  // Arena lease: returned to the depot on every exit path (including
  // OverflowError / CancelledError) so working memory stays bounded.
  struct ArenaLease {
    JoinService& svc;
    std::unique_ptr<detail::ScratchArena> arena;
    ~ArenaLease() { svc.return_arena(std::move(arena)); }
  } lease{*this, checkout_arena()};
  SelfJoinOutput out;
  detail::plan_and_execute(*this, sd, cfg, *lease.arena, cancel, robs, out);
  if (out.stats.fleet.ran()) record_fleet(out.stats.fleet);
  return out;
}

SelfJoinOutput JoinService::run(SharedDataset& sd, const SelfJoinConfig& cfg) {
  return execute(sd, cfg, /*cancel=*/nullptr, /*robs=*/nullptr);
}

void JoinService::sync_shared(SharedDataset& sd) {
  {
    std::shared_lock lk(sd.mu_);
    if (sd.ds_->generation() == sd.generation_) return;
  }
  std::unique_lock lk(sd.mu_);
  const std::uint64_t g = sd.ds_->generation();
  if (g == sd.generation_) return;
  const bool had = !sd.grids_.empty() || !sd.plans_.empty();
  if (sd.ds_->empty()) {
    // Nothing to repair against; drop everything (old behaviour).
    if (had) count("sj.cache.invalidations");
    sd.grids_.clear();
    sd.plans_.clear();
    sd.generation_ = g;
    return;
  }

  std::size_t repairs = 0;
  std::size_t repaired_cells = 0;
  std::size_t fallbacks = 0;
  std::size_t patches = 0;
  std::vector<std::shared_ptr<SharedDataset::GridSlot>> kept_grids;
  kept_grids.reserve(sd.grids_.size());
  std::vector<char> plan_alive(sd.plans_.size(), 0);
  for (auto& gs : sd.grids_) {
    // Still building or failed: no artifact to repair — drop the slot
    // (defensive; mutations are contracted to happen with no run in
    // flight, so this path is not normally reachable).
    const SharedDataset::GridPtr old = ready_or_null(gs->grid);
    if (old == nullptr) continue;

    // Repair a private copy: in-flight runs pin the old immutable
    // index through their shared_ptrs, so it must not change under
    // them; the slot's future swings to the repaired clone.
    const std::uint64_t old_key = old->content_key();
    auto fresh = std::make_shared<GridIndex>(*old);
    const GridRepairOutcome rep = fresh->repair();
    // Estimates always re-derive under churn (a cold run would
    // re-sample the changed data), keeping warm == cold.
    gs->strided_estimates.clear();
    gs->grid = ready_future(SharedDataset::GridPtr(fresh));
    kept_grids.push_back(gs);
    if (!rep.repaired) {
      // Full rebuild inside repair(): the grid is current but there is
      // no dirty set, so dependent plans cannot be patched.
      ++fallbacks;
      continue;
    }
    ++repairs;
    repaired_cells += rep.dirty_cell_ids.size();

    const std::uint64_t new_key = fresh->content_key();
    for (std::size_t i = 0; i < sd.plans_.size(); ++i) {
      auto& ps = sd.plans_[i];
      if (ps->grid_key != old_key) continue;
      // R×S plans depend on probe points; the gridded side's churn
      // changes their candidate counts in ways the cell-granular patch
      // cannot express. Drop, don't patch (probe churn needs nothing:
      // it rotates probe_signature, so stale slots age out via LRU).
      if (ps->probe_sig != 0) continue;
      const SharedDataset::WorkloadsPtr w = ready_or_null(ps->workloads);
      if (w == nullptr) continue;  // never built: nothing worth keeping
      const SharedDataset::OrderPtr o = ready_or_null(ps->order);
      WorkloadPatchResult patch = patch_workloads(
          *fresh, ps->pattern, rep.dirty_cell_ids, *w,
          o != nullptr ? std::span<const PointId>(*o)
                       : std::span<const PointId>{});
      ps->workloads =
          ready_future(SharedDataset::WorkloadsPtr(std::make_shared<
              const std::vector<std::uint64_t>>(
              std::move(patch.point_workloads))));
      if (!patch.order.empty()) {
        ps->order = ready_future(SharedDataset::OrderPtr(
            std::make_shared<const std::vector<PointId>>(
                std::move(patch.order))));
      } else {
        ps->order = {};
      }
      ps->grid_key = new_key;
      ps->queue_estimates.clear();
      plan_alive[i] = 1;
      ++patches;
    }
  }
  const std::size_t dropped_grids = sd.grids_.size() - kept_grids.size();
  sd.grids_ = std::move(kept_grids);
  std::size_t dropped_plans = 0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < sd.plans_.size(); ++i) {
    if (plan_alive[i] != 0) {
      if (live != i) sd.plans_[live] = std::move(sd.plans_[i]);
      ++live;
    } else {
      ++dropped_plans;
    }
  }
  sd.plans_.resize(live);
  sd.generation_ = g;

  if (repairs > 0) {
    count("sj.incr.repairs", repairs);
    count("sj.incr.repaired_cells", repaired_cells);
  }
  if (patches > 0) count("sj.incr.plan_patches", patches);
  if (fallbacks > 0) count("sj.incr.rebuild_fallbacks", fallbacks);
  if (had && (fallbacks > 0 || dropped_plans > 0 || dropped_grids > 0)) {
    count("sj.cache.invalidations");
  }
}

SelfJoinOutput JoinService::self_join(const Dataset& ds,
                                      const SelfJoinConfig& cfg) {
  // Ephemeral cache shell: exactly the free self_join's semantics (no
  // plan reuse across calls, no dataset lifetime entanglement) while
  // arenas and host pools still come from the bounded depots.
  SharedDataset sd(ds, cfg_.max_cached_grids, cfg_.max_cached_plans);
  return execute(sd, cfg, /*cancel=*/nullptr, /*robs=*/nullptr);
}

void JoinService::recycle(SelfJoinOutput&& out) {
  std::lock_guard lk(arena_mu_);
  if (idle_arenas_.empty()) return;  // no idle arena to donate to; drop
  detail::ScratchArena& arena = *idle_arenas_.back();
  arena.spare_pairs = out.results.take_storage();
  out.stats.batches.clear();
  arena.spare_batch_stats = std::move(out.stats.batches);
  out.stats.slots.clear();
  arena.spare_slots = std::move(out.stats.slots);
}

JoinService::Ticket JoinService::submit(std::shared_ptr<SharedDataset> sd,
                                        JoinRequest req) {
  Ticket t;
  t.state_ = std::make_shared<ServiceRequestState>();
  const std::uint64_t rid =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  count("svc.submitted");
  recorder().record("submit", rid, 0);

  bool rejected = false;
  {
    std::lock_guard lk(queue_mu_);
    if (stopping_ || queue_.size() >= cfg_.max_queue_depth) {
      rejected = true;
    } else {
      spawn_workers_locked();
      QueueItem item;
      item.sd = std::move(sd);
      item.req = std::move(req);
      item.state = t.state_;
      item.seq = next_seq_++;
      item.request_id = rid;
      if (cfg_.obs.tracer != nullptr) {
        item.submit_ts = cfg_.obs.tracer->now_ts();
      }
      queue_.push_back(std::move(item));
      std::push_heap(queue_.begin(), queue_.end(), QueueItem::dequeues_after);
      set_queue_depth_locked(queue_.size());
    }
  }
  if (rejected) {
    count("svc.rejected");
    recorder().record("rejected", rid, 0);
    JoinResponse r;
    r.status = JoinStatus::Rejected;
    r.request_id = rid;
    r.breakdown.request_id = rid;
    respond(*t.state_, std::move(r));
  } else {
    queue_cv_.notify_one();
  }
  return t;
}

void JoinService::spawn_workers_locked() {
  if (!workers_.empty()) return;
  const std::size_t n = std::max<std::size_t>(1, cfg_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void JoinService::worker_loop() {
  for (;;) {
    QueueItem item;
    {
      std::unique_lock lk(queue_mu_);
      queue_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      // Shutdown drains: outstanding tickets are still answered.
      if (queue_.empty()) return;
      std::pop_heap(queue_.begin(), queue_.end(), QueueItem::dequeues_after);
      item = std::move(queue_.back());
      queue_.pop_back();
      set_queue_depth_locked(queue_.size());
    }

    ServiceRequestState& st = *item.state;
    const std::uint64_t rid = item.request_id;
    obs::Tracer* tracer = cfg_.obs.tracer;
    obs::FlightRecorder& rec = recorder();
    JoinResponse r;
    r.request_id = rid;
    r.breakdown.request_id = rid;
    r.wait_seconds = item.queued.seconds();
    r.breakdown.wait_seconds = r.wait_seconds;
    if (cfg_.obs.metrics != nullptr) {
      cfg_.obs.metrics->time_histogram("svc.queue_wait_seconds")
          .observe(r.wait_seconds);
    }
    // The request's root span id is allocated up-front so every child
    // (queue_wait here; plan/execute and their launches down the
    // pipeline) parents under it; the root span itself is recorded
    // once the terminal status is known.
    std::uint64_t root_id = 0;
    if (tracer != nullptr) {
      root_id = tracer->next_span_id();
      const std::uint64_t now = tracer->now_ts();
      const std::uint64_t dur =
          now >= item.submit_ts ? now - item.submit_ts : 0;
      tracer->record_span("queue_wait", item.submit_ts, dur,
                          obs::SpanContext{rid, root_id},
                          tracer->next_span_id());
    }
    rec.record("dequeue", rid, item.seq);

    if (st.cancel.load(std::memory_order_relaxed)) {
      r.status = JoinStatus::Cancelled;
      count("svc.cancelled");
      rec.record("cancelled_queued", rid, 0);
    } else if (r.wait_seconds > item.req.deadline_seconds) {
      r.status = JoinStatus::Expired;
      count("svc.expired");
      rec.record("expired", rid, 0);
    } else {
      // Result-serving gate (docs/SERVICE.md): serve an exact cached
      // result, attach to an identical in-flight execution, or run the
      // pipeline — possibly as the coalescing primary that duplicates
      // attach to.
      std::shared_ptr<detail::ResultFlight> flight;
      const ResultGate gate = result_gate(item, r, root_id, &flight);
      if (gate == ResultGate::Attached) continue;  // answered at publish
      if (gate == ResultGate::Served) {
        count("svc.completed");
        rec.record("done", rid, r.breakdown.result_pairs);
      } else {
        st.started.store(true, std::memory_order_release);
        {
          std::lock_guard lk(inflight_mu_);
          inflight_.emplace(rid, InFlight{item.req.priority, Timer{}});
        }
        Timer service_timer;
        obs::RequestObs robs;
        robs.tracer = tracer;
        robs.ctx = obs::SpanContext{rid, root_id};
        robs.recorder = &rec;
        robs.breakdown = &r.breakdown;
        try {
          r.output = execute(*item.sd, item.req.config, &st.cancel, &robs);
          r.status = JoinStatus::Ok;
          count("svc.completed");
          rec.record("done", rid, r.breakdown.result_pairs);
          if (flight != nullptr) publish_result(item, r.output, flight);
        } catch (const CancelledError&) {
          // Partial output was discarded with the run's scratch state.
          r.status = JoinStatus::Cancelled;
          count("svc.cancelled");
          if (flight != nullptr) abandon_flight(flight);
        } catch (const std::exception& e) {
          r.status = JoinStatus::Failed;
          r.error = e.what();
          count("svc.failed");
          rec.record("failed", rid, 0);
          if (flight != nullptr) abandon_flight(flight);
        }
        r.service_seconds = service_timer.seconds();
        if (cfg_.obs.metrics != nullptr) {
          cfg_.obs.metrics->time_histogram("svc.service_seconds")
              .observe(r.service_seconds);
        }
        {
          std::lock_guard lk(inflight_mu_);
          inflight_.erase(rid);
        }
      }
    }
    finish_request(item, root_id, std::move(r));
  }
}

void JoinService::finish_request(const QueueItem& item, std::uint64_t root_id,
                                 JoinResponse&& r) {
  obs::Tracer* tracer = cfg_.obs.tracer;
  if (tracer != nullptr) {
    const std::uint64_t now = tracer->now_ts();
    const std::uint64_t dur = now >= item.submit_ts ? now - item.submit_ts : 0;
    tracer->record_span("request", item.submit_ts, dur,
                        obs::SpanContext{item.request_id, 0}, root_id);
  }
  // Failed/Expired responses auto-dump the request's breadcrumbs —
  // the flight recorder's reason to exist.
  if (r.status == JoinStatus::Failed) {
    dump_recorder(item.request_id, "failed");
  } else if (r.status == JoinStatus::Expired) {
    dump_recorder(item.request_id, "expired");
  }
  respond(*item.state, std::move(r));
}

JoinService::ResultGate JoinService::result_gate(
    QueueItem& item, JoinResponse& r, std::uint64_t root_id,
    std::shared_ptr<detail::ResultFlight>* flight) {
  SharedDataset& sd = *item.sd;
  const SelfJoinConfig& cfg = item.req.config;
  // A request the pipeline would reject must reach the pipeline so the
  // cache never masks the canonical validation error.
  try {
    detail::validate_request(cfg, sd.dataset());
  } catch (const std::exception&) {
    return ResultGate::Execute;
  }

  const detail::ResultKey key =
      detail::make_result_key(sd.dataset().generation(), cfg);
  const bool needs_pairs = cfg.store_pairs;
  const std::uint64_t rid = item.request_id;
  obs::Tracer* tracer = cfg_.obs.tracer;
  obs::FlightRecorder& rec = recorder();
  Timer serve_timer;
  const std::uint64_t serve_ts = tracer != nullptr ? tracer->now_ts() : 0;

  // Generation repair: advance the result cache across the churn,
  // keeping entries the mutation window provably did not affect
  // (selective invalidation — see repair_result_cache).
  repair_result_cache(sd, key.generation);

  // One critical section decides the request's path, so exactly one
  // request can ever become the primary for a given key: check the
  // cache, else attach to a flight, else register as primary.
  ResultPtr exact;
  ResultPtr super;
  {
    std::lock_guard lk(sd.result_mu_);
    // Wholesale sweep as a race backstop: a mutation that landed
    // between the repair above and this lookup invalidates everything
    // as a unit (the pre-repair discipline).
    if (sd.result_generation_ != key.generation) {
      if (!sd.results_.empty()) {
        count("svc.result_cache.invalidations");
        adjust_result_bytes(-static_cast<long long>(sd.result_bytes_));
        sd.results_.clear();
        sd.result_bytes_ = 0;
      }
      sd.result_generation_ = key.generation;
    }
    for (const auto& s : sd.results_) {
      if (s->eps_bits == key.eps_bits &&
          s->class_digest == key.config_digest &&
          (!needs_pairs || s->has_pairs)) {
        s->last_used = ++sd.result_tick_;
        exact = s->payload;
        break;
      }
    }
    if (exact == nullptr) {
      for (const auto& f : sd.result_flights_) {
        if (f->key == key && (!needs_pairs || f->store_pairs)) {
          count("svc.result_cache.coalesced");
          rec.record("result_coalesce", rid, f->primary_rid);
          detail::ResultFlight::Follower fo;
          fo.item = std::move(item);
          fo.partial = std::move(r);
          fo.root_id = root_id;
          fo.attach_ts = serve_ts;
          f->followers.push_back(std::move(fo));
          return ResultGate::Attached;
        }
      }
      // ε-subsumption candidate: the smallest pairs-bearing superset
      // (least filter work). Self-only — an R×S/KNN payload's pairs
      // are not a superset of any other request class, and the filter
      // pass assumes self-join pair semantics. Candidates must share
      // this request's config class (same digest) so that, e.g., an
      // R×S cache entry never leaks into a Self request. A same-ε
      // entry is unreachable here — it either hit above or lacks the
      // pairs this request needs (in which case has_pairs is false and
      // it is skipped too).
      const SharedDataset::ResultSlot* cand = nullptr;
      if (cfg.mode == JoinMode::Self) {
        for (const auto& s : sd.results_) {
          if (!s->has_pairs || s->class_digest != key.config_digest ||
              s->payload->epsilon < cfg.epsilon) {
            continue;
          }
          if (cand == nullptr ||
              s->payload->results.count() < cand->payload->results.count()) {
            cand = s.get();
          }
        }
      }
      if (cand != nullptr && subsume_worthwhile(sd, cfg, *cand->payload)) {
        // Safe lock nesting: result_mu_ -> sd.mu_ (shared) -> the
        // slot's Estimates::mu; no path acquires result_mu_ while
        // holding either.
        super = cand->payload;
      }
      if (super == nullptr) {
        // Miss: this request becomes the coalescing primary its
        // duplicates attach to, registered in the same critical
        // section as the lookup that missed.
        auto f = std::make_shared<detail::ResultFlight>();
        f->sd = &sd;
        f->key = key;
        f->store_pairs = needs_pairs;
        f->primary_rid = rid;
        sd.result_flights_.push_back(f);
        *flight = std::move(f);
      }
    }
  }
  if (exact == nullptr && super == nullptr) {
    count("svc.result_cache.misses");
    return ResultGate::Execute;
  }

  if (exact != nullptr) {
    fill_served_output(r.output, exact->results, exact->stats, needs_pairs);
    r.breakdown.served_from = obs::ServedFrom::ResultCache;
    count("svc.result_cache.hits");
    rec.record("result_hit", rid, r.output.stats.result_pairs);
  } else {
    // Serve ε' from the cached ε ⊇ ε' result: one linear dist² pass
    // over canonically ordered pairs. Filtering preserves order, so
    // the output is bit-identical to a cold run's canonicalized
    // result. `super` pins the payload — concurrent eviction of its
    // slot cannot dangle this read.
    ResultSet filtered(needs_pairs);
    const std::uint64_t kept =
        detail::subsume_filter(sd.dataset(), super->results.pairs(),
                               cfg.epsilon, needs_pairs ? &filtered : nullptr);
    if (!needs_pairs) filtered.add_count(kept);
    SelfJoinStats stats;
    stats.result_pairs = kept;
    // Retain the derived ε' entry so repeats hit exactly; allocation
    // failure only skips retention.
    if (cfg_.max_result_cache_bytes > 0) {
      try {
        auto pay = std::make_shared<ResultPayload>();
        pay->epsilon = cfg.epsilon;
        pay->results = filtered;
        pay->stats = stats;
        pay->bytes = sizeof(ResultPayload) + pay->results.memory_bytes();
        std::lock_guard lk(sd.result_mu_);
        if (sd.result_generation_ == key.generation) {
          insert_result_locked(sd, key.eps_bits, key.config_digest, pay);
        }
      } catch (const std::bad_alloc&) {
      }
    }
    r.output.results = std::move(filtered);
    r.output.stats = stats;
    r.breakdown.served_from = obs::ServedFrom::Subsumed;
    count("svc.result_cache.subsumed");
    rec.record("subsume_filter", rid, kept);
  }
  r.status = JoinStatus::Ok;
  r.breakdown.result_pairs = r.output.stats.result_pairs;
  r.service_seconds = serve_timer.seconds();
  if (r.breakdown.served_from == obs::ServedFrom::Subsumed) {
    // The filter pass is this request's whole execution stage.
    r.breakdown.execute_seconds = r.service_seconds;
  }
  if (cfg_.obs.metrics != nullptr) {
    cfg_.obs.metrics->time_histogram("svc.service_seconds")
        .observe(r.service_seconds);
  }
  if (tracer != nullptr) {
    const char* name = r.breakdown.served_from == obs::ServedFrom::Subsumed
                           ? "subsume_filter"
                           : "result_hit";
    const std::uint64_t now = tracer->now_ts();
    const std::uint64_t dur = now >= serve_ts ? now - serve_ts : 0;
    tracer->record_span(name, serve_ts, dur, obs::SpanContext{rid, root_id},
                        tracer->next_span_id());
  }
  return ResultGate::Served;
}

bool JoinService::subsume_worthwhile(SharedDataset& sd,
                                     const SelfJoinConfig& cfg,
                                     const ResultPayload& entry) {
  // Cost model: the filter reads every cached pair once; a full join
  // costs at least its own output. Compare the superset's size against
  // the estimate cache's prediction for the requested ε (the grid-level
  // strided estimate — present once any variant has planned this ε).
  // No estimate on file means no grid exists for this ε either: the
  // single linear pass wins by default against grid build + join.
  // The read bumps no LRU tick and counts no plan-cache event.
  std::optional<std::uint64_t> est;
  {
    std::shared_lock lk(sd.mu_);
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(cfg.epsilon);
    for (const auto& g : sd.grids_) {
      if (g->eps_bits == bits) {
        est = g->strided_estimates.find(detail::estimate_key(cfg));
        break;
      }
    }
  }
  if (!est.has_value()) return true;
  return static_cast<double>(entry.results.count()) <=
         kSubsumeCostRatio * static_cast<double>(*est);
}

void JoinService::repair_result_cache(SharedDataset& sd,
                                      std::uint64_t to_generation) {
  std::uint64_t from = 0;
  {
    std::lock_guard lk(sd.result_mu_);
    if (sd.result_generation_ == to_generation) return;
    from = sd.result_generation_;
    if (sd.results_.empty()) {
      sd.result_generation_ = to_generation;
      return;
    }
  }
  // Survivor checks run against a repaired current-generation grid, so
  // bring the artifact caches current first (outside result_mu_; the
  // documented order is result_mu_ -> mu_, never the reverse).
  sync_shared(sd);

  const Dataset& ds = sd.dataset();
  std::optional<ChurnSummary> churn;
  if (const auto window = ds.mutations_since(from); window.has_value()) {
    churn = summarize_churn(ds, *window);
  }
  // Pure moves keep every point id stable, which is what makes the
  // cached pair lists' labels comparable across the window; any
  // insert/erase (or a lost window) falls back to dropping everything.
  SharedDataset::GridPtr grid;
  if (churn.has_value() && churn->pure_moves && !churn->touched.empty()) {
    std::shared_lock lk(sd.mu_);
    for (const auto& gs : sd.grids_) {
      if (SharedDataset::GridPtr p = ready_or_null(gs->grid);
          p != nullptr && p->generation() == ds.generation()) {
        grid = std::move(p);
        break;
      }
    }
  }
  const bool can_check = churn.has_value() && churn->pure_moves &&
                         (churn->touched.empty() || grid != nullptr);

  // Survivor analysis is Self-only: churn_misses_result reads cached
  // pair ids as gridded-dataset point ids, which R×S/KNN payloads'
  // probe-side ids are not. Non-Self entries always drop on churn.
  const std::uint64_t self_digest =
      detail::make_result_key(0, SelfJoinConfig{}).config_digest;
  std::lock_guard lk(sd.result_mu_);
  // Another worker already advanced (or re-swept) the cache — its
  // verdicts stand; re-checking against a different window is wrong.
  if (sd.result_generation_ != from) return;
  std::size_t kept = 0;
  std::size_t dropped = 0;
  std::erase_if(sd.results_, [&](const auto& s) {
    const bool survive =
        can_check && s->class_digest == self_digest &&
        (churn->touched.empty() ||
         (s->has_pairs && churn_misses_result(ds, *grid, *churn,
                                              s->payload->epsilon,
                                              s->payload->results)));
    if (survive) {
      ++kept;
      return false;
    }
    adjust_result_bytes(-static_cast<long long>(s->payload->bytes));
    sd.result_bytes_ -= s->payload->bytes;
    ++dropped;
    return true;
  });
  sd.result_generation_ = to_generation;
  if (kept > 0) count("svc.result_cache.repair_kept", kept);
  if (dropped > 0) count("svc.result_cache.invalidations");
}

void JoinService::insert_result_locked(SharedDataset& sd,
                                       std::uint64_t eps_bits,
                                       std::uint64_t class_digest,
                                       const ResultPtr& payload) {
  if (cfg_.max_result_cache_bytes == 0) return;
  const bool has_pairs = payload->results.stores_pairs();
  for (auto it = sd.results_.begin(); it != sd.results_.end();) {
    if ((*it)->eps_bits != eps_bits || (*it)->class_digest != class_digest) {
      ++it;
      continue;
    }
    // First-wins when the resident entry already satisfies at least as
    // much as the new one; a pairs-bearing entry supersedes a
    // count-only duplicate for the same ε.
    if ((*it)->has_pairs || !has_pairs) return;
    adjust_result_bytes(-static_cast<long long>((*it)->payload->bytes));
    sd.result_bytes_ -= (*it)->payload->bytes;
    it = sd.results_.erase(it);
  }
  auto slot = std::make_shared<SharedDataset::ResultSlot>();
  slot->eps_bits = eps_bits;
  slot->class_digest = class_digest;
  slot->has_pairs = has_pairs;
  slot->payload = payload;
  slot->last_used = ++sd.result_tick_;
  sd.results_.push_back(std::move(slot));
  sd.result_bytes_ += payload->bytes;
  adjust_result_bytes(static_cast<long long>(payload->bytes));
  // Byte-budget LRU. The just-inserted entry holds the freshest tick,
  // so it goes only when it alone exceeds the budget — a result larger
  // than the whole budget is not worth holding the cache for.
  while (sd.result_bytes_ > cfg_.max_result_cache_bytes &&
         !sd.results_.empty()) {
    const auto victim = std::min_element(
        sd.results_.begin(), sd.results_.end(),
        [](const auto& a, const auto& b) { return a->last_used < b->last_used; });
    adjust_result_bytes(-static_cast<long long>((*victim)->payload->bytes));
    sd.result_bytes_ -= (*victim)->payload->bytes;
    sd.results_.erase(victim);
    count("svc.result_cache.evictions");
  }
}

void JoinService::publish_result(
    const QueueItem& item, const SelfJoinOutput& out,
    const std::shared_ptr<detail::ResultFlight>& flight) {
  SharedDataset& sd = *item.sd;
  // Build the immutable payload outside any lock. An allocation
  // failure must not fail an Ok request: skip retention and serve the
  // followers straight from the output.
  ResultPtr payload;
  if (cfg_.max_result_cache_bytes > 0) {
    try {
      auto pay = std::make_shared<ResultPayload>();
      pay->epsilon = item.req.config.epsilon;
      pay->results = out.results;
      pay->stats = scalar_stats(out.stats);
      pay->bytes = sizeof(ResultPayload) + pay->results.memory_bytes();
      payload = std::move(pay);
    } catch (const std::bad_alloc&) {
    }
  }
  std::vector<detail::ResultFlight::Follower> followers;
  {
    std::lock_guard lk(sd.result_mu_);
    followers = std::move(flight->followers);
    flight->followers.clear();
    std::erase(sd.result_flights_, flight);
    if (payload != nullptr && sd.result_generation_ == flight->key.generation) {
      insert_result_locked(sd, flight->key.eps_bits,
                           flight->key.config_digest, payload);
    }
  }
  if (followers.empty()) return;

  const SelfJoinStats fallback_stats =
      payload != nullptr ? SelfJoinStats{} : scalar_stats(out.stats);
  obs::Tracer* tracer = cfg_.obs.tracer;
  obs::FlightRecorder& rec = recorder();
  for (auto& fo : followers) {
    JoinResponse fr = std::move(fo.partial);
    const std::uint64_t frid = fo.item.request_id;
    if (fo.item.state->cancel.load(std::memory_order_relaxed)) {
      fr.status = JoinStatus::Cancelled;
      count("svc.cancelled");
      rec.record("cancelled_coalesced", frid, 0);
    } else {
      const ResultSet& res = payload != nullptr ? payload->results : out.results;
      const SelfJoinStats& stats =
          payload != nullptr ? payload->stats : fallback_stats;
      fill_served_output(fr.output, res, stats,
                         fo.item.req.config.store_pairs);
      fr.status = JoinStatus::Ok;
      fr.breakdown.served_from = obs::ServedFrom::Coalesced;
      fr.breakdown.result_pairs = fr.output.stats.result_pairs;
      fr.service_seconds = fo.attached.seconds();
      count("svc.completed");
      rec.record("done", frid, fr.breakdown.result_pairs);
      if (cfg_.obs.metrics != nullptr) {
        cfg_.obs.metrics->time_histogram("svc.service_seconds")
            .observe(fr.service_seconds);
      }
      if (tracer != nullptr) {
        const std::uint64_t now = tracer->now_ts();
        const std::uint64_t dur = now >= fo.attach_ts ? now - fo.attach_ts : 0;
        tracer->record_span("result_coalesce", fo.attach_ts, dur,
                            obs::SpanContext{frid, fo.root_id},
                            tracer->next_span_id());
      }
    }
    finish_request(fo.item, fo.root_id, std::move(fr));
  }
}

void JoinService::abandon_flight(
    const std::shared_ptr<detail::ResultFlight>& flight) {
  SharedDataset& sd = *flight->sd;
  std::vector<detail::ResultFlight::Follower> followers;
  {
    std::lock_guard lk(sd.result_mu_);
    followers = std::move(flight->followers);
    flight->followers.clear();
    std::erase(sd.result_flights_, flight);
  }
  if (followers.empty()) return;
  // The primary produced no result (failed or cancelled). Followers go
  // back into the admission queue with their original seq, so priority
  // order is preserved; each re-runs the gate on its next dequeue and
  // one becomes the new primary. Their queue-wait clocks keep running
  // and the queue_wait histogram sees a second observation on
  // re-dequeue — accepted for this rare path.
  {
    std::lock_guard lk(queue_mu_);
    for (auto& fo : followers) {
      queue_.push_back(std::move(fo.item));
      std::push_heap(queue_.begin(), queue_.end(), QueueItem::dequeues_after);
    }
    set_queue_depth_locked(queue_.size());
  }
  queue_cv_.notify_all();
}

void JoinService::adjust_result_bytes(long long delta) {
  const long long now =
      result_bytes_total_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (cfg_.obs.metrics != nullptr) {
    cfg_.obs.metrics->gauge("svc.result_cache.bytes")
        .set(static_cast<double>(std::max<long long>(0, now)));
  }
}

// ---------------------------------------------------------------------------
// Streaming delta subscriptions (docs/STREAMING.md)
// ---------------------------------------------------------------------------

JoinService::SubscriptionId JoinService::subscribe(
    std::shared_ptr<SharedDataset> sd, double epsilon) {
  GSJ_CHECK_MSG(sd != nullptr, "subscribe requires an attached dataset");
  GSJ_CHECK_MSG(epsilon > 0.0, "subscribe requires epsilon > 0");
  Subscription sub;
  sub.epsilon = epsilon;
  sub.generation = sd->dataset().generation();
  if (!sd->dataset().empty()) {
    // Seed the retained snapshot with one full stored-pairs join run
    // through the shared caches (so its grid/plan work is reused by
    // later requests). Stored pairs come out canonicalized — the order
    // every delta set-op below relies on.
    SelfJoinConfig cfg;
    cfg.epsilon = epsilon;
    cfg.store_pairs = true;
    SelfJoinOutput out = run(*sd, cfg);
    const auto pairs = out.results.pairs();
    sub.retained.assign(pairs.begin(), pairs.end());
    recycle(std::move(out));
  }
  sub.sd = std::move(sd);
  count("svc.stream.subscribes");
  std::lock_guard lk(sub_mu_);
  const SubscriptionId id = ++next_sub_id_;
  subs_.emplace(id, std::move(sub));
  return id;
}

JoinService::DeltaPoll JoinService::poll(SubscriptionId id) {
  std::lock_guard lk(sub_mu_);
  const auto it = subs_.find(id);
  GSJ_CHECK_MSG(it != subs_.end(), "poll on unknown subscription " << id);
  Subscription& sub = it->second;
  count("svc.stream.polls");
  DeltaPoll out;
  const Dataset& ds = sub.sd->dataset();
  out.generation = ds.generation();
  if (out.generation == sub.generation) return out;  // quiescent: no work

  std::optional<PairDelta> delta =
      delta_join(*sub.sd, sub.epsilon, sub.generation);
  if (delta.has_value()) {
    count("svc.stream.deltas");
  } else {
    delta = full_diff(sub);
    out.fallback = true;
    count("svc.stream.fallbacks");
  }
  sub.retained = apply_pair_delta(sub.retained, *delta);
  sub.generation = out.generation;
  if (!delta->gained.empty()) {
    count("svc.stream.gained_pairs", delta->gained.size());
  }
  if (!delta->lost.empty()) {
    count("svc.stream.lost_pairs", delta->lost.size());
  }
  out.delta = std::move(*delta);
  return out;
}

std::optional<PairDelta> JoinService::delta_join(
    SharedDataset& sd, double epsilon, std::uint64_t from_generation) {
  GSJ_CHECK_MSG(epsilon > 0.0, "delta_join requires epsilon > 0");
  const Dataset& ds = sd.dataset();
  if (ds.empty()) return std::nullopt;
  // A view of the dataset's log: the sync below repairs the caches but
  // never touches the log, so the view stays valid across it.
  const auto window = ds.mutations_since(from_generation);
  if (!window.has_value()) return std::nullopt;
  const ChurnSummary churn = summarize_churn(ds, *window);
  PairDelta delta =
      compute_pair_delta(*detail::shared_grid(*this, sd, epsilon), churn,
                         epsilon);
  count("sj.incr.delta_joins");
  count("sj.incr.delta_candidates", delta.stats.candidates);
  return delta;
}

PairDelta JoinService::full_diff(Subscription& sub) {
  PairDelta d;
  std::vector<ResultPair> now;
  if (!sub.sd->dataset().empty()) {
    SelfJoinConfig cfg;
    cfg.epsilon = sub.epsilon;
    cfg.store_pairs = true;
    SelfJoinOutput out = run(*sub.sd, cfg);
    const auto pairs = out.results.pairs();
    now.assign(pairs.begin(), pairs.end());
    recycle(std::move(out));
  }
  std::set_difference(now.begin(), now.end(), sub.retained.begin(),
                      sub.retained.end(), std::back_inserter(d.gained));
  std::set_difference(sub.retained.begin(), sub.retained.end(), now.begin(),
                      now.end(), std::back_inserter(d.lost));
  return d;
}

void JoinService::unsubscribe(SubscriptionId id) {
  std::lock_guard lk(sub_mu_);
  subs_.erase(id);
}

std::size_t JoinService::subscription_count() const {
  std::lock_guard lk(sub_mu_);
  return subs_.size();
}

void JoinService::record_fleet(const simt::FleetStats& fs) {
  {
    std::lock_guard lk(fleet_mu_);
    ++fleet_runs_;
    fleet_rebalances_ += fs.rebalances;
    fleet_last_cov_ = fs.device_cov;
    fleet_last_imbalance_ = fs.imbalance;
    if (fleet_devices_.size() < fs.devices.size()) {
      fleet_devices_.resize(fs.devices.size());
    }
    for (const simt::DeviceLoad& d : fs.devices) {
      const auto idx = static_cast<std::size_t>(d.device);
      if (idx >= fleet_devices_.size()) continue;  // defensive
      ServiceSnapshot::FleetDeviceRow& row = fleet_devices_[idx];
      row.device = d.device;
      row.grains += d.grains;
      row.busy_seconds += d.busy_seconds;
      row.tail_idle_seconds += d.tail_idle_seconds;
    }
  }
  obs::Registry* m = cfg_.obs.metrics;
  if (m == nullptr) return;
  m->counter("svc.fleet.runs").add(1);
  m->counter("svc.fleet.rebalances").add(fs.rebalances);
  m->counter("svc.fleet.grains").add(fs.num_grains);
  m->gauge("svc.fleet.devices").set(static_cast<double>(fs.devices.size()));
  m->gauge("svc.fleet.device_cov").set(fs.device_cov);
  m->gauge("svc.fleet.makespan_seconds").set(fs.makespan_seconds);
  m->gauge("svc.fleet.tail_idle_seconds").set(fs.tail_idle_seconds);
  m->gauge("svc.fleet.imbalance").set(fs.imbalance);
  for (const simt::DeviceLoad& d : fs.devices) {
    const std::string dev = std::to_string(d.device);
    m->gauge(obs::labeled("svc.fleet.device_busy_seconds", {{"device", dev}}))
        .set(d.busy_seconds);
  }
}

void JoinService::dump_recorder(std::uint64_t request_id, const char* why) {
  std::lock_guard lk(dump_mu_);
  std::ostream& os =
      cfg_.recorder_dump != nullptr ? *cfg_.recorder_dump : std::cerr;
  os << "flight-recorder dump (request " << request_id << ", " << why
     << "):\n";
  recorder().dump(os, request_id);
  os.flush();
}

ServiceSnapshot JoinService::snapshot() const {
  ServiceSnapshot s;
  {
    std::lock_guard lk(queue_mu_);
    s.queue_depth = queue_.size();
    for (const QueueItem& q : queue_) ++s.queued_by_priority[q.req.priority];
  }
  {
    std::lock_guard lk(inflight_mu_);
    s.in_flight.reserve(inflight_.size());
    for (const auto& [rid, f] : inflight_) {
      s.in_flight.push_back({rid, f.priority, f.started.seconds()});
    }
  }
  s.idle_arenas = resident_arenas();
  s.idle_thread_pools = resident_thread_pools();
  {
    std::lock_guard lk(attach_mu_);
    std::erase_if(attached_, [](const auto& w) { return w.expired(); });
    for (const auto& w : attached_) {
      const std::shared_ptr<SharedDataset> sd = w.lock();
      if (sd == nullptr) continue;
      ++s.attached_datasets;
      s.cached_grids += sd->cached_grid_count();
      s.cached_plans += sd->cached_plan_count();
      s.cached_bytes += sd->cached_artifact_bytes();
      s.result_entries += sd->result_cache_entries();
      s.result_bytes += sd->result_cache_bytes();
    }
  }
  s.result_budget_bytes = cfg_.max_result_cache_bytes;
  s.subscriptions = subscription_count();
  {
    std::lock_guard lk(fleet_mu_);
    s.fleet_runs = fleet_runs_;
    s.fleet_rebalances = fleet_rebalances_;
    s.fleet_device_cov = fleet_last_cov_;
    s.fleet_imbalance = fleet_last_imbalance_;
    s.fleet_devices = fleet_devices_;
  }
  return s;
}

void JoinService::respond(ServiceRequestState& st, JoinResponse&& r) {
  {
    std::lock_guard lk(st.mu);
    st.response = std::move(r);
    st.done = true;
  }
  st.cv.notify_all();
}

void JoinService::count(const char* name, std::uint64_t n) {
  if (cfg_.obs.metrics != nullptr) cfg_.obs.metrics->counter(name).add(n);
}

void JoinService::set_queue_depth_locked(std::size_t depth) {
  if (cfg_.obs.metrics != nullptr) {
    cfg_.obs.metrics->gauge("svc.queue_depth").set(static_cast<double>(depth));
  }
}

JoinResponse JoinService::Ticket::get() {
  GSJ_CHECK_MSG(state_ != nullptr, "Ticket::get on an empty ticket");
  std::unique_lock lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->done; });
  return std::move(state_->response);
}

void JoinService::Ticket::cancel() noexcept {
  if (state_ != nullptr) {
    state_->cancel.store(true, std::memory_order_relaxed);
  }
}

bool JoinService::Ticket::started() const noexcept {
  return state_ != nullptr && state_->started.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Depots: bounded pools of per-run working memory.
// ---------------------------------------------------------------------------

std::unique_ptr<detail::ScratchArena> JoinService::checkout_arena() {
  {
    std::lock_guard lk(arena_mu_);
    if (!idle_arenas_.empty()) {
      auto arena = std::move(idle_arenas_.back());
      idle_arenas_.pop_back();
      return arena;
    }
  }
  return std::make_unique<detail::ScratchArena>();
}

void JoinService::return_arena(std::unique_ptr<detail::ScratchArena> arena) {
  std::lock_guard lk(arena_mu_);
  if (idle_arenas_.size() < cfg_.max_pooled_arenas) {
    idle_arenas_.push_back(std::move(arena));
  }
  // else: dropped — resident memory stays bounded by the depot cap.
}

std::unique_ptr<ThreadPool> JoinService::checkout_pool(int num_threads) {
  GSJ_CHECK_MSG(num_threads > 0, "pool requires num_threads > 0");
  {
    std::lock_guard lk(pool_mu_);
    auto& idle = idle_pools_[num_threads];
    if (!idle.empty()) {
      auto pool = std::move(idle.back());
      idle.pop_back();
      --idle_pool_count_;
      return pool;
    }
  }
  // Spawn outside the lock: pool construction starts real threads.
  return std::make_unique<ThreadPool>(static_cast<std::size_t>(num_threads));
}

void JoinService::return_pool(int num_threads,
                              std::unique_ptr<ThreadPool> pool) {
  {
    std::lock_guard lk(pool_mu_);
    if (idle_pool_count_ < cfg_.max_pooled_thread_pools) {
      idle_pools_[num_threads].push_back(std::move(pool));
      ++idle_pool_count_;
      return;
    }
  }
  // Destroy (join) the surplus pool outside the lock.
}

std::size_t JoinService::queue_depth() const {
  std::lock_guard lk(queue_mu_);
  return queue_.size();
}

std::size_t JoinService::resident_arenas() const {
  std::lock_guard lk(arena_mu_);
  return idle_arenas_.size();
}

std::size_t JoinService::resident_thread_pools() const {
  std::lock_guard lk(pool_mu_);
  return idle_pool_count_;
}

}  // namespace gsj
