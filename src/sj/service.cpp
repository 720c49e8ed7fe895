#include "sj/service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
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

namespace {

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

/// A response carrying only its terminal status (and error message).
JoinResponse answer(JoinStatus status, std::string error = {}) {
  JoinResponse r;
  r.status = status;
  r.error = std::move(error);
  return r;
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

SharedDataset::GridPtr SharedDataset::current_grid() const {
  std::shared_lock lk(mu_);
  for (const auto& gs : grids_) {
    if (GridPtr p = ready_or_null(gs->grid);
        p != nullptr && p->generation() == ds_->generation()) {
      return p;
    }
  }
  return nullptr;
}

std::optional<std::uint64_t> SharedDataset::strided_estimate(
    const SelfJoinConfig& cfg) const {
  std::shared_lock lk(mu_);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(cfg.epsilon);
  for (const auto& g : grids_) {
    if (g->eps_bits == bits) {
      return g->strided_estimates.find(detail::estimate_key(cfg));
    }
  }
  return std::nullopt;
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
  results_env_->budget = cfg_.max_result_cache_bytes;
  results_env_->metrics = cfg_.obs.metrics;
  results_env_->recorder = &recorder();
}

JoinService::~JoinService() {
  {
    std::lock_guard lk(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
  // Datasets still attached outlive this service's registry.
  const std::lock_guard lk(results_env_->mu);
  results_env_->metrics = nullptr;
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
      ds, cfg_.max_cached_grids, cfg_.max_cached_plans, results_env_));
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
    GridRepairOutcome rep;
    try {
      rep = fresh->repair();
    } catch (const std::exception&) {
      // No longer buildable (say, too many cells for the grown bounding
      // box): drop it with its plans; a later request at this ε
      // rebuilds it and fails exactly as a cold run does.
      continue;
    }
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
  SharedDataset sd(ds, cfg_.max_cached_grids, cfg_.max_cached_plans,
                   results_env_);
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
      detail::QueueItem item;
      item.sd = std::move(sd);
      item.req = std::move(req);
      item.state = t.state_;
      item.seq = next_seq_++;
      item.request_id = rid;
      if (cfg_.obs.tracer != nullptr) {
        item.submit_ts = cfg_.obs.tracer->now_ts();
      }
      push_locked(std::move(item));
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
    detail::QueueItem item;
    {
      std::unique_lock lk(queue_mu_);
      queue_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      // Shutdown drains: outstanding tickets are still answered.
      if (queue_.empty()) return;
      std::pop_heap(queue_.begin(), queue_.end(),
                    detail::QueueItem::dequeues_after);
      item = std::move(queue_.back());
      queue_.pop_back();
      set_queue_depth_locked(queue_.size());
    }
    item.wait_seconds = item.queued.seconds();
    observe("svc.queue_wait_seconds", item.wait_seconds);
    // The request's root span id is allocated up-front so every child
    // (queue_wait here; plan/execute and their launches down the
    // pipeline) parents under it; the root span itself is recorded
    // once the terminal status is known.
    if (cfg_.obs.tracer != nullptr) {
      item.root_id = cfg_.obs.tracer->next_span_id();
      request_span(item, "queue_wait", item.submit_ts);
    }
    recorder().record("dequeue", item.request_id, item.seq);
    try {
      serve(item);
    } catch (const std::exception& e) {
      // Whatever throws before the request is answered is its answer.
      end_not_ok(item, answer(JoinStatus::Failed, e.what()), "failed");
    }
  }
}

void JoinService::serve(detail::QueueItem& item) {
  ServiceRequestState& st = *item.state;
  if (st.cancel.load(std::memory_order_relaxed)) {
    return end_not_ok(item, answer(JoinStatus::Cancelled), "cancelled_queued");
  }
  if (item.wait_seconds > item.req.deadline_seconds) {
    return end_not_ok(item, answer(JoinStatus::Expired), "expired");
  }
  JoinResponse r;
  // The result gate (sj/result_cache.hpp). A request a cold run rejects
  // skips it, so a cached answer never masks the validation error.
  SharedDataset& sd = *item.sd;
  bool gated = true;
  try {
    detail::validate_request(item.req.config, sd.dataset());
  } catch (const std::exception&) {
    gated = false;
  }
  if (gated) {
    item.serving.restart();
    if (cfg_.obs.tracer != nullptr) item.serve_ts = cfg_.obs.tracer->now_ts();
    sync_shared(sd);
    const obs::ServedFrom from = sd.answers_.gate(item, r.output);
    if (from == obs::ServedFrom::Coalesced) return;  // its primary answers
    if (from != obs::ServedFrom::Execution) {
      return complete(item, std::move(r), from, item.serving.seconds());
    }
  }

  st.started.store(true, std::memory_order_release);
  {
    std::lock_guard lk(inflight_mu_);
    inflight_.emplace(item.request_id, InFlight{item.req.priority, Timer{}});
  }
  Timer service_timer;
  obs::RequestObs robs{cfg_.obs.tracer, {item.request_id, item.root_id},
                      &recorder(), &r.breakdown};
  const char* crumb = nullptr;
  try {
    r.output = execute(sd, item.req.config, &st.cancel, &robs);
    r.status = JoinStatus::Ok;
  } catch (const CancelledError&) {
    // Partial output was discarded with the run's scratch state.
    r.status = JoinStatus::Cancelled;
  } catch (const std::exception& e) {
    r.status = JoinStatus::Failed;
    r.error = e.what();
    crumb = "failed";
  }
  {
    std::lock_guard lk(inflight_mu_);
    inflight_.erase(item.request_id);
  }
  if (r.status == JoinStatus::Ok) {
    return complete(item, std::move(r), obs::ServedFrom::Execution,
                    service_timer.seconds());
  }
  r.service_seconds = service_timer.seconds();
  observe("svc.service_seconds", r.service_seconds);
  end_not_ok(item, std::move(r), crumb);
}

void JoinService::complete(detail::QueueItem& item, JoinResponse&& r,
                           obs::ServedFrom from, double seconds) {
  r.status = JoinStatus::Ok;
  r.breakdown.served_from = from;
  r.breakdown.result_pairs = r.output.stats.result_pairs;
  r.service_seconds = seconds;
  // The filter pass is a subsumed answer's whole execution stage.
  if (from == obs::ServedFrom::Subsumed) r.breakdown.execute_seconds = seconds;
  observe("svc.service_seconds", seconds);
  if (from != obs::ServedFrom::Execution) {
    request_span(item,
                 from == obs::ServedFrom::ResultCache ? "result_hit"
                 : from == obs::ServedFrom::Subsumed  ? "subsume_filter"
                                                      : "result_coalesce",
                 item.serve_ts);
  }
  count("svc.completed");
  recorder().record("done", item.request_id, r.breakdown.result_pairs);
  if (item.flight != nullptr) {
    for (detail::QueueItem& fo : item.sd->answers_.settle(
             std::exchange(item.flight, nullptr), &r.output)) {
      try {
        if (fo.state->cancel.load(std::memory_order_relaxed)) {
          end_not_ok(fo, answer(JoinStatus::Cancelled), "cancelled_coalesced");
          continue;
        }
        JoinResponse fr;
        detail::copy_answer(fr.output, r.output, fo.req.config.store_pairs);
        complete(fo, std::move(fr), obs::ServedFrom::Coalesced,
                 fo.serving.seconds());
      } catch (const std::exception& e) {
        end_not_ok(fo, answer(JoinStatus::Failed, e.what()), "failed");
      }
    }
  }
  finish(item, std::move(r));
}

void JoinService::end_not_ok(detail::QueueItem& item, JoinResponse&& r,
                             const char* crumb) {
  count(("svc." + std::string(to_string(r.status))).c_str());
  if (crumb != nullptr) recorder().record(crumb, item.request_id, 0);
  // Failed/Expired responses auto-dump the request's breadcrumbs —
  // the flight recorder's reason to exist.
  if (r.status != JoinStatus::Cancelled) {
    dump_recorder(item.request_id, to_string(r.status));
  }
  if (item.flight != nullptr) {
    // The primary produced no answer. Its duplicates go back into the
    // admission queue with their original seq, so priority order is
    // preserved; each re-runs the gate on its next dequeue and one
    // becomes the new primary. Their queue-wait clocks keep running
    // and the queue_wait histogram sees a second observation on
    // re-dequeue — accepted for this rare path.
    std::vector<detail::QueueItem> parked = item.sd->answers_.settle(
        std::exchange(item.flight, nullptr), nullptr);
    {
      std::lock_guard lk(queue_mu_);
      for (detail::QueueItem& fo : parked) push_locked(std::move(fo));
    }
    queue_cv_.notify_all();
  }
  finish(item, std::move(r));
}

void JoinService::finish(const detail::QueueItem& item, JoinResponse&& r) {
  r.request_id = r.breakdown.request_id = item.request_id;
  r.wait_seconds = r.breakdown.wait_seconds = item.wait_seconds;
  request_span(item, "request", item.submit_ts, /*root=*/true);
  respond(*item.state, std::move(r));
}

void JoinService::request_span(const detail::QueueItem& item,
                               const char* name, std::uint64_t since,
                               bool root) {
  obs::Tracer* tracer = cfg_.obs.tracer;
  if (tracer == nullptr) return;
  const std::uint64_t now = tracer->now_ts();
  tracer->record_span(
      name, since, now >= since ? now - since : 0,
      obs::SpanContext{item.request_id, root ? 0 : item.root_id},
      root ? item.root_id : tracer->next_span_id());
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
    for (const detail::QueueItem& q : queue_) {
      ++s.queued_by_priority[q.req.priority];
    }
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

void JoinService::observe(const char* histogram, double seconds) {
  if (cfg_.obs.metrics != nullptr) {
    cfg_.obs.metrics->time_histogram(histogram).observe(seconds);
  }
}

void JoinService::push_locked(detail::QueueItem&& item) {
  queue_.push_back(std::move(item));
  std::push_heap(queue_.begin(), queue_.end(),
                 detail::QueueItem::dequeues_after);
  set_queue_depth_locked(queue_.size());
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
  if (idle_arenas_.size() < kMaxPooledArenas) {
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
    if (idle_pool_count_ < kMaxPooledThreadPools) {
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
