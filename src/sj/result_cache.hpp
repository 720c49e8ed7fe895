// Result-serving layer of the join service (internal; docs/SERVICE.md
// §6): how a submitted request's answer is reused instead of computed.
//
// Each SharedDataset owns one ResultCache. A worker passes every
// dequeued request through ResultCache::gate, which picks its path in
// one critical section of the cache's lock:
//
//   exact hit  a cached answer for the same ResultKey is copied out;
//   coalesce   an identical request is executing: the duplicate parks
//              on its flight, never occupies a worker, and is answered
//              when the primary settles the flight;
//   subsume    a cached Self answer for a larger ε holds every pair of
//              the smaller one, so a linear dist² filter (subsume_filter)
//              answers it when the cost model says the filter beats
//              re-joining;
//   execute    otherwise, registered as the flight duplicates attach to.
//
// Retained answers are bounded by a per-dataset byte budget with LRU
// eviction. A dataset generation change advances the cache: under a
// pure-move churn window a Self answer survives when no touched point
// had an ε-neighbor before or has one now; anything unprovable drops.
// Every served answer is bit-identical to a cold run of the same
// request — cached pairs are canonical, the order every cold stored-
// pairs run ends in.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/context.hpp"
#include "sj/selfjoin.hpp"

namespace gsj {
class SharedDataset;  // sj/service.hpp
}  // namespace gsj

namespace gsj::detail {

struct QueueItem;  // sj/service.hpp: one submitted request

/// Identity of a submitted request's *answer*. Deliberately
/// variant-agnostic: all six kernel variants compute the same pair set
/// for (dataset, ε, mode) — the invariant the paper's variant
/// comparison rests on — so the key folds only the dataset generation,
/// the exact ε bits (0 for KNN, whose widening schedule never reads
/// ε), and a digest of the request *class*: the join mode, the second
/// dataset's identity (uid + generation) for R×S/KNN, and the KNN
/// parameters. k / cell pattern / batching / device knobs shape how
/// the answer is computed, never what it is; the storage mode is
/// deliberately NOT folded — pairs vs count-only is an asymmetry the
/// gate handles, so a stored-pairs entry can serve a count-only request.
struct ResultKey {
  std::uint64_t generation = 0;
  std::uint64_t eps_bits = 0;
  std::uint64_t config_digest = 0;
  friend bool operator==(const ResultKey&, const ResultKey&) = default;
};

[[nodiscard]] ResultKey make_result_key(std::uint64_t generation,
                                        const SelfJoinConfig& cfg);

/// ε-subsumption filter: keeps the pairs of a cached ε-result whose
/// dist² ≤ epsilon², for a requested epsilon ≤ the cached ε. `pairs`
/// must be the *canonical* (lexicographically sorted) pair list of the
/// superset result — filtering preserves order, so the output is exactly
/// what a cold run at `epsilon` would canonicalize to. Each kept pair
/// is emitted into `out`, whose storage mode decides pairs vs count.
/// One linear pass, dimension-specialized so the hot loop vectorizes.
void subsume_filter(const Dataset& ds, std::span<const ResultPair> pairs,
                    double epsilon, ResultSet& out);

/// Copies an answer into `out` in the request's storage mode, without
/// the per-batch and per-slot stats vectors (they describe one
/// execution, not the answer). A pairs-bearing answer can serve a
/// count-only request (the count rides along); the gate never pairs the
/// reverse.
void copy_answer(SelfJoinOutput& out, const SelfJoinOutput& from,
                 bool store_pairs);

class ResultCache {
 public:
  /// The owning service's side, shared by every dataset's cache: the
  /// per-dataset byte budget (ServiceConfig::max_result_cache_bytes),
  /// the svc.* channel, and the service-wide byte total that the
  /// svc.result_cache.bytes gauge mirrors. Shared ownership: a dataset
  /// handle can outlive its service (a PreparedDataset dropped after its
  /// JoinEngine) and still gives its bytes back when it goes.
  struct Env {
    std::size_t budget = 0;
    obs::FlightRecorder* recorder = nullptr;  ///< never null in use
    /// Guards `metrics` and `bytes`. The service sets `metrics` to null
    /// on destruction, so no cache touches a registry after it.
    std::mutex mu;
    obs::Registry* metrics = nullptr;
    long long bytes = 0;
  };

  /// One executing primary and the identical requests parked on it.
  struct Flight;

  /// The owning service must outlive every gate and settle; `env`
  /// outlives the cache.
  ResultCache(std::uint64_t generation, std::shared_ptr<Env> env)
      : generation_(generation), env_(std::move(env)) {}
  /// Gives the retained answers' bytes back to the service-wide total.
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Routes a valid request whose dataset's artifact caches are synced
  /// (JoinService::sync_shared): ResultCache or Subsumed — answered
  /// into `out`; Coalesced — `item` was moved onto an in-flight
  /// duplicate's flight and must not be touched; Execution — run the
  /// pipeline, and when this set item.flight the request is the
  /// primary that must settle() it on every exit path.
  obs::ServedFrom gate(QueueItem& item, SelfJoinOutput& out);
  /// Detaches a primary's flight and hands back its parked duplicates.
  /// With the primary's Ok `answer` it is retained in the same critical
  /// section, so no duplicate can miss both the flight and the entry;
  /// without one (the primary failed or was cancelled) the duplicates
  /// must run again.
  std::vector<QueueItem> settle(const std::shared_ptr<Flight>& flight,
                                const SelfJoinOutput* answer);

  [[nodiscard]] std::size_t entries() const {
    const std::lock_guard lk(mu_);
    return slots_.size();
  }
  [[nodiscard]] std::size_t bytes() const {
    const std::lock_guard lk(mu_);
    return bytes_;
  }

 private:
  /// One immutable retained answer at `epsilon`: `answer` copies the
  /// producing run's output (copy_answer), whose stored pairs are
  /// already canonical, so serving a copy reproduces a cold run bit
  /// for bit.
  struct Payload {
    double epsilon = 0.0;
    SelfJoinOutput answer;
    std::size_t bytes = 0;  ///< accounted against the byte budget
  };
  /// One cache slot. Payloads are shared_ptr-pinned: a server copying
  /// from one outside the lock keeps it alive through an eviction.
  struct Slot {
    std::uint64_t eps_bits = 0;
    /// ResultKey::config_digest of the producing request, compared on
    /// every lookup so no request class ever serves another.
    std::uint64_t class_digest = 0;
    std::shared_ptr<const Payload> payload;
    [[nodiscard]] const ResultSet& results() const {
      return payload->answer.results;
    }
  };
  /// Slots in LRU order (least recent first). A new slot is built as a
  /// one-node list outside the lock and spliced in under it.
  using Slots = std::list<Slot>;

  [[nodiscard]] Slots make_slot(const ResultKey& key,
                                const SelfJoinOutput& answer) const;
  /// Locks the cache and brings it to dataset generation `to`: under a
  /// pure-move churn window a Self answer survives when no touched
  /// point had an ε-neighbor before or has one now; everything
  /// unprovable is dropped. Counts svc.result_cache.repair_kept per
  /// survivor.
  [[nodiscard]] std::unique_lock<std::mutex> lock_at(const SharedDataset& sd,
                                                     std::uint64_t to);
  /// Inserts a slot built for `generation` (skipped if the cache has
  /// moved on, or `slot` is empty) and evicts LRU slots past the budget.
  void insert_locked(Slots&& slot, std::uint64_t generation);
  /// Unlinks the slots `drop` selects; returns how many.
  template <typename Pred>
  std::size_t drop_locked(Pred drop);
  /// The one place the byte total moves: this cache's, the service-wide
  /// sum, and the svc.result_cache.bytes gauge that mirrors it.
  void account_locked(long long delta);
  void count(const char* name, std::uint64_t n = 1) const;

  // Everything below is guarded by mu_ as a unit: "serve from cache,
  // else attach to a flight, else become the primary" is one critical
  // section, so exactly one request is ever the primary for a key.
  mutable std::mutex mu_;
  std::uint64_t generation_;
  std::size_t bytes_ = 0;
  Slots slots_;
  std::vector<std::shared_ptr<Flight>> flights_;
  std::shared_ptr<Env> env_;
};

}  // namespace gsj::detail
