#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "common/check.hpp"
#include "common/json.hpp"

namespace gsj::obs {

namespace {

[[nodiscard]] bool base_char_ok(char c, bool first) noexcept {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == '.' || c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

[[nodiscard]] bool label_key_char_ok(char c, bool first) noexcept {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

[[nodiscard]] bool label_value_char_ok(char c) noexcept {
  return c != '{' && c != '}' && c != ',' && c != '"' && c != '\\';
}

}  // namespace

bool is_valid_metric_name(std::string_view name) noexcept {
  const std::size_t brace = name.find('{');
  const std::string_view base = name.substr(0, brace);
  if (base.empty()) return false;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (!base_char_ok(base[i], i == 0)) return false;
  }
  if (brace == std::string_view::npos) return true;
  std::string_view rest = name.substr(brace + 1);
  if (rest.empty() || rest.back() != '}') return false;
  rest.remove_suffix(1);
  if (rest.find('{') != std::string_view::npos) return false;
  // k=v pairs, comma separated.
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0) return false;
    const std::string_view key = pair.substr(0, eq);
    for (std::size_t i = 0; i < key.size(); ++i) {
      if (!label_key_char_ok(key[i], i == 0)) return false;
    }
    for (const char c : pair.substr(eq + 1)) {
      if (!label_value_char_ok(c)) return false;
    }
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return true;
}

std::string sanitize_metric_name(std::string_view name) {
  if (is_valid_metric_name(name)) return std::string(name);
  std::string out;
  out.reserve(name.size());
  const std::size_t brace = name.find('{');
  const std::string_view base = name.substr(0, brace);
  if (base.empty()) {
    out += '_';
  } else {
    for (std::size_t i = 0; i < base.size(); ++i) {
      out += base_char_ok(base[i], i == 0) ? base[i] : '_';
    }
  }
  if (brace == std::string_view::npos) return out;
  const std::string_view rest = name.substr(brace);
  // Keep a well-formed {k=v,...} block (sanitizing each key/value
  // character); anything structurally broken folds into the base.
  if (rest.size() >= 2 && rest.back() == '}' &&
      rest.find('{', 1) == std::string_view::npos) {
    out += '{';
    bool key = true;    // scanning a key (vs a value)
    bool first = true;  // first char of the current key
    for (const char c : rest.substr(1, rest.size() - 2)) {
      if (key && c == '=') {
        out += '=';
        key = false;
        continue;
      }
      if (!key && c == ',') {
        out += ',';
        key = true;
        first = true;
        continue;
      }
      if (key) {
        out += label_key_char_ok(c, first) ? c : '_';
        first = false;
      } else {
        out += label_value_char_ok(c) ? c : '_';
      }
    }
    out += '}';
    return out;
  }
  for (const char c : rest) {
    out += base_char_ok(c, false) ? c : '_';
  }
  return out;
}

std::string labeled(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(name);
  if (labels.size() == 0) return out;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += '=';
    out += v;
  }
  out += '}';
  return out;
}

// --- CycleHistogram ---------------------------------------------------------

CycleHistogram::CycleHistogram()
    // Exact region [0, 2*kSubBuckets) plus (64 - kSubBucketBits - 1)
    // log blocks of kSubBuckets sub-buckets each.
    : counts_(2 * kSubBuckets +
              (64 - kSubBucketBits - 1) * static_cast<std::size_t>(kSubBuckets)) {}

std::size_t CycleHistogram::bucket_index(std::uint64_t v) noexcept {
  if (v < 2 * kSubBuckets) return static_cast<std::size_t>(v);  // exact
  const int e = std::bit_width(v) - 1;  // e >= kSubBucketBits + 1
  const auto sub = static_cast<std::size_t>(
      (v >> (e - kSubBucketBits)) - kSubBuckets);  // in [0, kSubBuckets)
  return static_cast<std::size_t>(2 * kSubBuckets) +
         static_cast<std::size_t>(e - kSubBucketBits - 1) * kSubBuckets + sub;
}

std::uint64_t CycleHistogram::bucket_upper(std::size_t idx) noexcept {
  if (idx < 2 * kSubBuckets) return idx;  // exact
  const std::size_t rel = idx - 2 * kSubBuckets;
  const int e = static_cast<int>(rel / kSubBuckets) + kSubBucketBits + 1;
  const std::uint64_t sub = rel % kSubBuckets + kSubBuckets;
  const std::uint64_t lower = sub << (e - kSubBucketBits);
  return lower + (std::uint64_t{1} << (e - kSubBucketBits)) - 1;
}

void CycleHistogram::record(std::uint64_t v) noexcept {
  counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
  }
}

std::uint64_t CycleHistogram::min() const noexcept {
  return total() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

std::uint64_t CycleHistogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

double CycleHistogram::mean() const noexcept {
  const std::uint64_t n = total();
  return n == 0 ? 0.0
                : static_cast<double>(sum_.load(std::memory_order_relaxed)) /
                      static_cast<double>(n);
}

std::uint64_t CycleHistogram::percentile(double q) const noexcept {
  const std::uint64_t n = total();
  if (n == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(n)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b].load(std::memory_order_relaxed);
    if (seen >= target) return std::min(bucket_upper(b), max());
  }
  return max();
}

void CycleHistogram::merge_from(const CycleHistogram& other) noexcept {
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b].fetch_add(other.counts_[b].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  total_.fetch_add(other.total(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  if (other.total() > 0) {
    std::uint64_t v = other.min_.load(std::memory_order_relaxed);
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    v = other.max_.load(std::memory_order_relaxed);
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
}

// --- Registry ---------------------------------------------------------------

namespace {

/// Registration-time name hygiene: assert in debug, sanitize in
/// release (a conforming name passes through unchanged either way).
std::string normalize_name(std::string_view name) {
#ifndef NDEBUG
  GSJ_CHECK_MSG(is_valid_metric_name(name),
                "metric name '" << name
                                << "' violates the OpenMetrics charset");
#endif
  return sanitize_metric_name(name);
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  const std::string key = normalize_name(name);
  std::lock_guard lk(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_.emplace(key, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::string key = normalize_name(name);
  std::lock_guard lk(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(key, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

CycleHistogram& Registry::cycle_histogram(std::string_view name) {
  const std::string key = normalize_name(name);
  std::lock_guard lk(mu_);
  auto it = cycles_.find(key);
  if (it == cycles_.end()) {
    it = cycles_.emplace(key, std::make_unique<CycleHistogram>()).first;
  }
  return *it->second;
}

TimeHistogram& Registry::time_histogram(std::string_view name) {
  const std::string key = normalize_name(name);
  std::lock_guard lk(mu_);
  auto it = times_.find(key);
  if (it == times_.end()) {
    it = times_.emplace(key, std::make_unique<TimeHistogram>()).first;
  }
  return *it->second;
}

void Registry::merge_from(const Registry& other) {
  // Snapshot other's names first (other's mutex), then merge through the
  // public accessors (this' mutex) — never both at once.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::pair<bool, double>>> gauges;
  std::vector<std::pair<std::string, const CycleHistogram*>> cycles;
  std::vector<std::pair<std::string, const TimeHistogram*>> times;
  {
    std::lock_guard lk(other.mu_);
    for (const auto& [k, v] : other.counters_) counters.emplace_back(k, v->value());
    for (const auto& [k, v] : other.gauges_) {
      gauges.emplace_back(k, std::make_pair(v->is_set(), v->value()));
    }
    for (const auto& [k, v] : other.cycles_) cycles.emplace_back(k, v.get());
    for (const auto& [k, v] : other.times_) times.emplace_back(k, v.get());
  }
  for (const auto& [k, v] : counters) counter(k).add(v);
  for (const auto& [k, sv] : gauges) {
    if (sv.first) gauge(k).set(sv.second);
  }
  for (const auto& [k, h] : cycles) cycle_histogram(k).merge_from(*h);
  for (const auto& [k, h] : times) time_histogram(k).merge_from(*h);
}

std::size_t Registry::size() const {
  std::lock_guard lk(mu_);
  return counters_.size() + gauges_.size() + cycles_.size() + times_.size();
}

void Registry::write_json(std::ostream& os) const {
  std::lock_guard lk(mu_);
  json::JsonWriter w(os);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [k, v] : counters_) w.key(k).value(v->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [k, v] : gauges_) w.key(k).value(v->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [k, h] : cycles_) {
    w.key(k).begin_object();
    w.key("total").value(h->total());
    w.key("min").value(h->min());
    w.key("max").value(h->max());
    w.key("mean").value(h->mean());
    w.key("p50").value(h->percentile(50));
    w.key("p95").value(h->percentile(95));
    w.key("p99").value(h->percentile(99));
    w.end_object();
  }
  for (const auto& [k, h] : times_) {
    w.key(k).begin_object();
    w.key("total").value(h->total());
    w.key("min").value(h->min_seconds());
    w.key("max").value(h->max_seconds());
    w.key("mean").value(h->mean_seconds());
    w.key("p50").value(h->percentile_seconds(50));
    w.key("p95").value(h->percentile_seconds(95));
    w.key("p99").value(h->percentile_seconds(99));
    w.end_object();
  }
  w.end_object();  // "histograms"
  w.end_object();  // root
  os << '\n';
}

// --- OpenMetrics exposition -------------------------------------------------

namespace {

/// Splits a registry key into its mangled family name (dots ->
/// underscores) and its label block rendered with quoted values
/// ('k=v,...' -> 'k="v",...'; empty for unlabeled keys).
struct ExpoName {
  std::string family;
  std::string labels;  ///< rendered pairs, no braces
};

ExpoName expo_name(std::string_view key) {
  ExpoName out;
  const std::size_t brace = key.find('{');
  const std::string_view base = key.substr(0, brace);
  out.family.reserve(base.size());
  for (const char c : base) out.family += c == '.' ? '_' : c;
  if (brace == std::string_view::npos) return out;
  std::string_view rest = key.substr(brace + 1);
  if (!rest.empty() && rest.back() == '}') rest.remove_suffix(1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    const std::size_t eq = pair.find('=');
    if (!out.labels.empty()) out.labels += ',';
    if (eq == std::string_view::npos) {
      out.labels += pair;
      out.labels += "=\"\"";
    } else {
      out.labels += pair.substr(0, eq);
      out.labels += "=\"";
      out.labels += pair.substr(eq + 1);
      out.labels += '"';
    }
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return out;
}

/// "name{labels}" or "name{labels,extra}" — `extra` is a pre-rendered
/// pair like quantile="0.5" appended after the key's own labels.
std::string expo_series(const ExpoName& n, std::string_view suffix,
                        std::string_view extra = {}) {
  std::string out = n.family;
  out += suffix;
  if (n.labels.empty() && extra.empty()) return out;
  out += '{';
  out += n.labels;
  if (!extra.empty()) {
    if (!n.labels.empty()) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

/// Emits one "# TYPE <family> <type>" line when the family changes
/// (map order keeps equal-base keys adjacent, so each family's samples
/// stay grouped as the exposition format requires).
void type_line(std::ostream& os, std::string& last, const std::string& family,
               const char* type) {
  if (family == last) return;
  os << "# TYPE " << family << ' ' << type << '\n';
  last = family;
}

}  // namespace

void Registry::write_openmetrics(std::ostream& os) const {
  std::lock_guard lk(mu_);
  std::string last_family;
  for (const auto& [k, v] : counters_) {
    const ExpoName n = expo_name(k);
    type_line(os, last_family, n.family, "counter");
    os << expo_series(n, "_total") << ' ' << v->value() << '\n';
  }
  for (const auto& [k, v] : gauges_) {
    const ExpoName n = expo_name(k);
    type_line(os, last_family, n.family, "gauge");
    os << expo_series(n, "") << ' ' << json::format_double(v->value())
       << '\n';
  }
  for (const auto& [k, h] : cycles_) {
    const ExpoName n = expo_name(k);
    type_line(os, last_family, n.family, "summary");
    os << expo_series(n, "", "quantile=\"0.5\"") << ' ' << h->percentile(50)
       << '\n';
    os << expo_series(n, "", "quantile=\"0.95\"") << ' ' << h->percentile(95)
       << '\n';
    os << expo_series(n, "", "quantile=\"0.99\"") << ' ' << h->percentile(99)
       << '\n';
    os << expo_series(n, "_sum") << ' ' << h->sum() << '\n';
    os << expo_series(n, "_count") << ' ' << h->total() << '\n';
  }
  for (const auto& [k, h] : times_) {
    const ExpoName n = expo_name(k);
    type_line(os, last_family, n.family, "summary");
    os << expo_series(n, "", "quantile=\"0.5\"")
       << ' ' << json::format_double(h->percentile_seconds(50)) << '\n';
    os << expo_series(n, "", "quantile=\"0.95\"")
       << ' ' << json::format_double(h->percentile_seconds(95)) << '\n';
    os << expo_series(n, "", "quantile=\"0.99\"")
       << ' ' << json::format_double(h->percentile_seconds(99)) << '\n';
    os << expo_series(n, "_sum") << ' '
       << json::format_double(h->sum_seconds()) << '\n';
    os << expo_series(n, "_count") << ' ' << h->total() << '\n';
  }
  os << "# EOF\n";
}

}  // namespace gsj::obs
