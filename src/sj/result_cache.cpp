#include "sj/result_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <new>
#include <optional>
#include <utility>

#include "data/churn.hpp"
#include "grid/grid_index.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sj/service.hpp"

namespace gsj::detail {

/// `followers` is guarded by the cache's mu_. The primary settles its
/// flight on every exit path, which also breaks the transient
/// dataset -> flight -> follower -> dataset ownership cycle.
struct ResultCache::Flight {
  ResultKey key;
  bool store_pairs = false;  ///< the primary's storage mode
  std::uint64_t primary_rid = 0;
  std::vector<QueueItem> followers;
};

namespace {

/// ε-subsumption cost model: a cached ε-result answers a smaller ε' via
/// a linear dist² filter only when cached_pairs <= ratio ×
/// estimated_result_pairs(ε') (from the shared estimate cache). With no
/// estimate on file the filter is taken unconditionally — one linear
/// pass over an existing pair list is far cheaper than the join that
/// would have to produce it.
constexpr double kSubsumeCostRatio = 8.0;

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
  const auto dims = static_cast<std::size_t>(grid.dims());
  std::array<double, kMaxDims> cur{};
  for (const auto& t : churn.touched) {
    const auto lo = std::lower_bound(pairs.begin(), pairs.end(),
                                     ResultPair{t.id, PointId{0}});
    for (auto it = lo; it != pairs.end() && it->first == t.id; ++it) {
      if (it->second != t.id) return false;  // had an ε-neighbor before
    }
    for (std::size_t d = 0; d < dims; ++d) {
      cur[d] = ds.coord(t.id, static_cast<int>(d));
    }
    bool neighbor = false;
    grid.for_each_in_range({cur.data(), dims}, epsilon,
                           [&](PointId q, double) { neighbor |= q != t.id; });
    if (neighbor) return false;  // has an ε-neighbor at the new spot
  }
  return true;
}

}  // namespace

ResultKey make_result_key(std::uint64_t generation, const SelfJoinConfig& cfg) {
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
    return {generation, 0, digest};
  }
  return {generation, std::bit_cast<std::uint64_t>(cfg.epsilon), digest};
}

void subsume_filter(const Dataset& ds, std::span<const ResultPair> pairs,
                    double epsilon, ResultSet& out) {
  const double eps2 = epsilon * epsilon;
  // The 2-D specialization reads the two coordinate columns through
  // spans so the distance math in the hot loop is branch-free and
  // auto-vectorizable; other dimensionalities use Dataset::dist2, which
  // sums every dimension (no early exit).
  if (ds.dims() == 2) {
    const std::span<const double> x = ds.dim(0);
    const std::span<const double> y = ds.dim(1);
    for (const auto& [a, b] : pairs) {
      const double dx = x[a] - x[b];
      const double dy = y[a] - y[b];
      if (dx * dx + dy * dy <= eps2) out.emit(a, b);
    }
  } else {
    for (const auto& [a, b] : pairs) {
      if (ds.dist2(a, b) <= eps2) out.emit(a, b);
    }
  }
}

void copy_answer(SelfJoinOutput& out, const SelfJoinOutput& from,
                 bool store_pairs) {
  out.stats = from.stats;
  std::vector<BatchStats>().swap(out.stats.batches);
  std::vector<obs::SlotStats>().swap(out.stats.slots);
  if (from.results.stores_pairs() == store_pairs) {
    out.results = from.results;
  } else {
    out.results = ResultSet(false);
    out.results.add_count(from.results.count());
  }
}

obs::ServedFrom ResultCache::gate(QueueItem& item, SelfJoinOutput& out) {
  const SelfJoinConfig& cfg = item.req.config;
  const SharedDataset& sd = *item.sd;
  const Dataset& ds = sd.dataset();
  const ResultKey key = make_result_key(ds.generation(), cfg);
  const bool needs_pairs = cfg.store_pairs;
  const std::uint64_t rid = item.request_id;

  std::shared_ptr<const Payload> exact;
  std::shared_ptr<const Payload> super;
  {
    const std::unique_lock lk = lock_at(sd, key.generation);
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->eps_bits == key.eps_bits &&
          it->class_digest == key.config_digest &&
          (!needs_pairs || it->results().stores_pairs())) {
        exact = it->payload;
        slots_.splice(slots_.end(), slots_, it);  // most recently used
        break;
      }
    }
    if (exact == nullptr) {
      for (const auto& f : flights_) {
        if (f->key == key && (!needs_pairs || f->store_pairs)) {
          count("svc.result_cache.coalesced");
          env_->recorder->record("result_coalesce", rid, f->primary_rid);
          f->followers.push_back(std::move(item));
          return obs::ServedFrom::Coalesced;
        }
      }
      // ε-subsumption candidate: the smallest pairs-bearing superset
      // (least filter work). Self-only — an R×S/KNN payload's pairs
      // are not a superset of any other request class, and the filter
      // pass assumes self-join pair semantics. Candidates must share
      // this request's class (same digest). A same-ε entry is
      // unreachable here — it either hit above or lacks the pairs.
      const Slot* cand = nullptr;
      for (const Slot& s : slots_) {
        if (cfg.mode == JoinMode::Self && s.results().stores_pairs() &&
            s.class_digest == key.config_digest &&
            s.payload->epsilon >= cfg.epsilon &&
            (cand == nullptr ||
             s.results().count() < cand->results().count())) {
          cand = &s;
        }
      }
      // Cost model: the filter reads every cached pair once; a join
      // costs at least its own output. No estimate on file means no
      // grid exists for this ε either, and one linear pass wins by
      // default against grid build + join. Lock order: mu_, then the
      // artifact caches' locks; never the reverse.
      if (cand != nullptr) {
        const std::optional<std::uint64_t> est = sd.strided_estimate(cfg);
        const auto pairs = static_cast<double>(cand->results().count());
        if (!est.has_value() ||
            pairs <= kSubsumeCostRatio * static_cast<double>(*est)) {
          super = cand->payload;
        }
      }
      if (super == nullptr) {
        // Miss: this request becomes the primary its duplicates attach
        // to, registered in the same critical section as the lookup.
        item.flight = std::make_shared<Flight>(
            Flight{key, needs_pairs, rid, {}});
        flights_.push_back(item.flight);
      }
    }
  }
  if (exact != nullptr) {
    copy_answer(out, exact->answer, needs_pairs);
    count("svc.result_cache.hits");
    env_->recorder->record("result_hit", rid, out.stats.result_pairs);
    return obs::ServedFrom::ResultCache;
  }
  if (super == nullptr) {
    count("svc.result_cache.misses");
    return obs::ServedFrom::Execution;
  }
  // Serve ε' from the cached ε ⊇ ε' answer; filtering preserves the
  // canonical order. `super` pins the payload through any eviction.
  out.results = ResultSet(needs_pairs);
  subsume_filter(ds, super->answer.results.pairs(), cfg.epsilon, out.results);
  out.stats = SelfJoinStats{};
  out.stats.result_pairs = out.results.count();
  // Retain the derived ε' answer so repeats hit exactly.
  Slots slot = make_slot(key, out);
  {
    const std::lock_guard lk(mu_);
    insert_locked(std::move(slot), key.generation);
  }
  count("svc.result_cache.subsumed");
  env_->recorder->record("subsume_filter", rid, out.stats.result_pairs);
  return obs::ServedFrom::Subsumed;
}

std::vector<QueueItem> ResultCache::settle(
    const std::shared_ptr<Flight>& flight, const SelfJoinOutput* answer) {
  // Built outside the lock; spliced in with the flight's removal.
  Slots slot = answer != nullptr ? make_slot(flight->key, *answer) : Slots{};
  const std::lock_guard lk(mu_);
  std::erase(flights_, flight);
  insert_locked(std::move(slot), flight->key.generation);
  return std::exchange(flight->followers, {});
}

ResultCache::Slots ResultCache::make_slot(const ResultKey& key,
                                          const SelfJoinOutput& answer) const {
  Slots slot;
  if (env_->budget == 0) return slot;
  // An allocation failure must not fail an Ok request: it only skips
  // retention.
  try {
    auto pay = std::make_shared<Payload>();
    pay->epsilon = std::bit_cast<double>(key.eps_bits);
    copy_answer(pay->answer, answer, answer.results.stores_pairs());
    pay->bytes = sizeof(Payload) + pay->answer.results.memory_bytes();
    slot.push_back({key.eps_bits, key.config_digest, std::move(pay)});
  } catch (const std::bad_alloc&) {
  }
  return slot;
}

std::unique_lock<std::mutex> ResultCache::lock_at(const SharedDataset& sd,
                                                  std::uint64_t to) {
  std::unique_lock lk(mu_);
  const std::uint64_t from = generation_;
  if (from == to) return lk;
  // Pure moves keep every point id stable, which is what makes the
  // cached pair lists' labels comparable across the window; any
  // insert/erase (or a lost window) drops everything. The checks run
  // outside the lock, against a ready current-generation grid.
  std::optional<ChurnSummary> churn;
  std::shared_ptr<const GridIndex> grid;
  if (!slots_.empty()) {
    lk.unlock();
    if (const auto window = sd.dataset().mutations_since(from)) {
      churn = summarize_churn(sd.dataset(), *window);
    }
    grid = sd.current_grid();
    lk.lock();
  }
  // Another worker advanced to `to` meanwhile: its verdicts stand. One
  // that moved the cache anywhere else leaves nothing provable.
  if (generation_ == to) return lk;
  const bool can_check = generation_ == from && churn.has_value() &&
                         churn->pure_moves &&
                         (churn->touched.empty() || grid != nullptr);
  // Survivor analysis is Self-only: churn_misses_result reads cached
  // pair ids as gridded-dataset point ids, which R×S/KNN payloads'
  // probe-side ids are not.
  const std::uint64_t self_digest =
      make_result_key(0, SelfJoinConfig{}).config_digest;
  std::size_t kept = 0;
  const std::size_t dropped = drop_locked([&](const Slot& s) {
    const bool survive =
        can_check && s.class_digest == self_digest &&
        (churn->touched.empty() ||
         (s.results().stores_pairs() &&
          churn_misses_result(sd.dataset(), *grid, *churn,
                              s.payload->epsilon, s.results())));
    kept += survive ? 1 : 0;
    return !survive;
  });
  generation_ = to;
  if (kept > 0) count("svc.result_cache.repair_kept", kept);
  if (dropped > 0) count("svc.result_cache.invalidations");
  return lk;
}

void ResultCache::insert_locked(Slots&& slot, std::uint64_t generation) {
  if (slot.empty() || generation != generation_) return;
  const Slot& fresh = slot.front();
  const auto same_key = [&](const Slot& s) {
    return s.eps_bits == fresh.eps_bits &&
           s.class_digest == fresh.class_digest;
  };
  // First wins when the resident entry already answers at least as
  // much; a pairs-bearing entry supersedes a count-only duplicate.
  const bool pairs = fresh.results().stores_pairs();
  for (const Slot& s : slots_) {
    if (same_key(s) && (s.results().stores_pairs() || !pairs)) return;
  }
  drop_locked(same_key);
  account_locked(static_cast<long long>(fresh.payload->bytes));
  slots_.splice(slots_.end(), slot);
  // Byte-budget LRU. The new slot is the most recent, so it goes only
  // when it alone exceeds the budget — an answer larger than the whole
  // budget is not worth holding the cache for.
  while (bytes_ > env_->budget && !slots_.empty()) {
    const Slot* victim = &slots_.front();
    drop_locked([victim](const Slot& s) { return &s == victim; });
    count("svc.result_cache.evictions");
  }
}

template <typename Pred>
std::size_t ResultCache::drop_locked(Pred drop) {
  return std::erase_if(slots_, [&](const Slot& s) {
    if (!drop(s)) return false;
    account_locked(-static_cast<long long>(s.payload->bytes));
    return true;
  });
}

ResultCache::~ResultCache() {
  if (bytes_ != 0) account_locked(-static_cast<long long>(bytes_));
}

void ResultCache::account_locked(long long delta) {
  bytes_ = static_cast<std::size_t>(static_cast<long long>(bytes_) + delta);
  const std::lock_guard lk(env_->mu);
  env_->bytes += delta;
  if (env_->metrics != nullptr) {
    env_->metrics->gauge("svc.result_cache.bytes")
        .set(static_cast<double>(std::max<long long>(0, env_->bytes)));
  }
}

void ResultCache::count(const char* name, std::uint64_t n) const {
  const std::lock_guard lk(env_->mu);
  if (env_->metrics != nullptr) env_->metrics->counter(name).add(n);
}

}  // namespace gsj::detail
