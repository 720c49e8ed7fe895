// Metrics registry: labeled counters, gauges and histograms with a
// lock-free hot path and worker-shard merging.
//
// Usage pattern (the only pattern that is lock-free):
//
//   obs::Registry reg;
//   obs::Counter& pairs = reg.counter("sj.result_pairs");   // once, locked
//   ...
//   pairs.add(n);                                           // hot, atomic
//
// Registration (the name lookup) takes the registry mutex; the returned
// reference is stable for the registry's lifetime, and every update
// through it is a relaxed atomic operation. Thread-pool workers either
// share instruments (atomics make that safe) or — when even shared
// cache lines are too hot — populate a private Registry each and merge
// the shards with `merge_from` at the end of the parallel phase
// (see superego/super_ego.cpp for the worked example).
//
// Histograms are CycleHistograms: HDR-style log-linear buckets over
// the full uint64 range (exact below 64, ≤ ~3.2% relative error
// above), for latency/cycle-count distributions with unknown dynamic
// range; TimeHistogram is the same sketch over nanoseconds. Percentile
// queries walk the bucket array.
//
// Naming scheme (see docs/OBSERVABILITY.md): dot-separated lowercase
// path, optional {key=value,...} label suffix rendered by `labeled`.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gsj::obs {

/// Renders "name{k1=v1,k2=v2}" — the canonical labeled-metric key.
[[nodiscard]] std::string labeled(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// True when `name` is a valid registry key: a dot-path base matching
/// [a-zA-Z_.:][a-zA-Z0-9_.:]* (dots mangle to underscores in the
/// OpenMetrics exposition) plus an optional well-formed {k=v,...}
/// label suffix with keys matching [a-zA-Z_][a-zA-Z0-9_]* and values
/// free of '{' '}' ',' '"' '\'.
[[nodiscard]] bool is_valid_metric_name(std::string_view name) noexcept;

/// Returns `name` with every charset violation replaced by '_' (label
/// structure is preserved when well formed). Idempotent; the identity
/// on valid names. Registration applies this in release builds and
/// asserts validity in debug builds.
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Monotonic counter. add() is a relaxed atomic fetch-add.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written double value. set() is a relaxed atomic store.
class Gauge {
 public:
  void set(double v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_release);
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool is_set() const noexcept {
    return set_.load(std::memory_order_acquire);
  }

 private:
  friend class Registry;
  std::atomic<double> v_{0.0};
  std::atomic<bool> set_{false};
};

/// HDR-style log-linear histogram over uint64 values (cycles, counts).
/// Values below kSubBuckets*2 record exactly; above, buckets are
/// 2^e-wide ranges split into kSubBuckets linear sub-buckets, bounding
/// the relative quantization error by 1/kSubBuckets.
class CycleHistogram {
 public:
  static constexpr int kSubBucketBits = 5;                  // 32 sub-buckets
  static constexpr std::uint64_t kSubBuckets = 1u << kSubBucketBits;
  /// Worst-case relative error of a percentile query.
  static constexpr double kMaxRelativeError = 1.0 / kSubBuckets;

  CycleHistogram();

  void record(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept;
  [[nodiscard]] double mean() const noexcept;

  /// Percentile (q in [0,100]): the upper bound of the bucket holding
  /// the rank-ceil(q/100*total) value. Within kMaxRelativeError of the
  /// exact order statistic; returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

 private:
  friend class Registry;
  friend class TimeHistogram;
  void merge_from(const CycleHistogram& other) noexcept;

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t idx) noexcept;

  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};

 public:
  /// Sum of every recorded value — the OpenMetrics `_sum` series.
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
};

/// Seconds-valued latency histogram: a CycleHistogram over nanoseconds
/// behind a seconds API, so duration metrics carry the `_seconds` unit
/// suffix the OpenMetrics naming rules want while keeping the HDR
/// sketch's bounded relative error (~3.2%) across nine decades.
class TimeHistogram {
 public:
  static constexpr double kMaxRelativeError =
      CycleHistogram::kMaxRelativeError;

  void observe(double seconds) noexcept {
    h_.record(to_nanos(seconds));
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return h_.total(); }
  [[nodiscard]] double min_seconds() const noexcept {
    return static_cast<double>(h_.min()) * 1e-9;
  }
  [[nodiscard]] double max_seconds() const noexcept {
    return static_cast<double>(h_.max()) * 1e-9;
  }
  [[nodiscard]] double mean_seconds() const noexcept {
    return h_.mean() * 1e-9;
  }
  [[nodiscard]] double sum_seconds() const noexcept {
    return static_cast<double>(h_.sum()) * 1e-9;
  }
  /// q in [0,100]; within kMaxRelativeError of the exact quantile.
  [[nodiscard]] double percentile_seconds(double q) const noexcept {
    return static_cast<double>(h_.percentile(q)) * 1e-9;
  }

 private:
  friend class Registry;
  void merge_from(const TimeHistogram& other) noexcept {
    h_.merge_from(other.h_);
  }
  [[nodiscard]] static std::uint64_t to_nanos(double seconds) noexcept {
    if (seconds <= 0.0) return 0;
    return static_cast<std::uint64_t>(seconds * 1e9);
  }

  CycleHistogram h_;
};

/// Owns instruments by name. Lookup/registration is mutex-guarded;
/// returned references are stable and lock-free to update.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Registration validates names against the OpenMetrics charset
  // (is_valid_metric_name): debug builds throw CheckError on a
  // violation, release builds sanitize the name and register under the
  // sanitized key.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  CycleHistogram& cycle_histogram(std::string_view name);
  TimeHistogram& time_histogram(std::string_view name);

  /// Accumulates `other` into this registry: counters and histograms
  /// sum; a gauge is overwritten when `other`'s was ever set.
  void merge_from(const Registry& other);

  /// Flat JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} with p50/p95/p99 pre-computed per histogram.
  void write_json(std::ostream& os) const;

  /// OpenMetrics/Prometheus text exposition (docs/OBSERVABILITY.md):
  /// dot-path names mangled to underscores, counters as `_total`
  /// samples, Cycle/TimeHistograms as summaries with p50/p95/p99
  /// quantile series, `# EOF` terminator. Deterministically ordered (the name
  /// maps are sorted), so two exports of the same state are
  /// byte-identical.
  void write_openmetrics(std::ostream& os) const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  // std::map: deterministic (sorted) export order; unique_ptr: stable
  // addresses across rehash-free growth.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<CycleHistogram>, std::less<>> cycles_;
  std::map<std::string, std::unique_ptr<TimeHistogram>, std::less<>> times_;
};

}  // namespace gsj::obs
