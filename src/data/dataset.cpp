#include "data/dataset.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace gsj {

namespace {

/// Rejects a non-finite coordinate at the mutation boundary: NaN or
/// ±inf would reach the grid's floor→int cell math.
void check_finite(std::span<const double> p, const char* op, std::size_t id) {
  for (std::size_t d = 0; d < p.size(); ++d) {
    GSJ_CHECK_MSG(std::isfinite(p[d]), op << ": point " << id << " dimension "
                                          << d << " coordinate " << p[d]
                                          << " is not a finite number");
  }
}

}  // namespace

std::uint64_t Dataset::next_uid() noexcept {
  // Starts at 1 so uid 0 can serve as "no dataset" in key schemes.
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Dataset::Dataset(int dims) : dims_(dims), coords_(static_cast<std::size_t>(dims)) {
  GSJ_CHECK_MSG(dims >= 1 && dims <= 16, "dims=" << dims);
}

Dataset::Dataset(int dims, std::size_t n) : Dataset(dims) {
  n_ = n;
  for (auto& c : coords_) c.assign(n, 0.0);
}

Dataset::Dataset(const Dataset& other)
    : dims_(other.dims_),
      n_(other.n_),
      // uid_ keeps the fresh value from its initializer: the copy is a
      // distinct dataset (see header).
      generation_(other.generation_),
      coords_(other.coords_),
      log_(other.log_),
      log_base_gen_(other.log_base_gen_),
      bbox_valid_(other.bbox_valid_),
      bbox_min_(other.bbox_min_),
      bbox_max_(other.bbox_max_),
      bbox_min_dirty_(other.bbox_min_dirty_),
      bbox_max_dirty_(other.bbox_max_dirty_) {}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  dims_ = other.dims_;
  n_ = other.n_;
  uid_ = next_uid();
  generation_ = other.generation_;
  coords_ = other.coords_;
  log_ = other.log_;
  log_base_gen_ = other.log_base_gen_;
  bbox_valid_ = other.bbox_valid_;
  bbox_min_ = other.bbox_min_;
  bbox_max_ = other.bbox_max_;
  bbox_min_dirty_ = other.bbox_min_dirty_;
  bbox_max_dirty_ = other.bbox_max_dirty_;
  return *this;
}

void Dataset::log_mutation(Mutation m) {
  if (!logging()) return;
  log_.push_back(m);
  // Amortized trim: keep at least the kLogWindow most recent entries,
  // dropping the oldest half once the log doubles past the window.
  if (log_.size() >= 2 * kLogWindow) {
    const std::size_t drop = log_.size() - kLogWindow;
    log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(drop));
    log_base_gen_ += drop;
  }
}

void Dataset::capture(std::size_t i,
                      std::array<double, Mutation::kCoordCap>& out)
    const noexcept {
  for (int d = 0; d < dims_; ++d) {
    out[static_cast<std::size_t>(d)] = coord(i, d);
  }
}

std::optional<std::span<const Mutation>> Dataset::mutations_since(
    std::uint64_t gen) const {
  if (gen == generation_) return std::span<const Mutation>{};
  if (!logging()) return std::nullopt;
  if (gen < log_base_gen_ || gen > generation_) return std::nullopt;
  const std::size_t first = static_cast<std::size_t>(gen - log_base_gen_);
  // Entries beyond the log (a generation bump without a log record)
  // cannot happen for in-window generations: every mutation logs.
  if (first > log_.size()) return std::nullopt;
  return std::span<const Mutation>(log_.data() + first, log_.size() - first);
}

void Dataset::refresh_bbox() {
  if (!bbox_valid_) {
    if (n_ == 0) return;
    bbox_min_ = min_corner();
    bbox_max_ = max_corner();
    bbox_min_dirty_.assign(static_cast<std::size_t>(dims_), 0);
    bbox_max_dirty_.assign(static_cast<std::size_t>(dims_), 0);
    bbox_valid_ = true;
    return;
  }
  for (int d = 0; d < dims_; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    const auto& col = coords_[sd];
    if (bbox_min_dirty_[sd] != 0) {
      bbox_min_[sd] = *std::min_element(col.begin(), col.end());
      bbox_min_dirty_[sd] = 0;
    }
    if (bbox_max_dirty_[sd] != 0) {
      bbox_max_[sd] = *std::max_element(col.begin(), col.end());
      bbox_max_dirty_[sd] = 0;
    }
  }
}

void Dataset::bbox_extend(std::span<const double> p) {
  if (!bbox_valid_) return;
  for (int d = 0; d < dims_; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    // Dirty dims get rescanned anyway; extending them is harmless but
    // pointless, and min/max over the full column is authoritative.
    if (bbox_min_dirty_[sd] == 0) {
      bbox_min_[sd] = std::min(bbox_min_[sd], p[sd]);
    }
    if (bbox_max_dirty_[sd] == 0) {
      bbox_max_[sd] = std::max(bbox_max_[sd], p[sd]);
    }
  }
}

void Dataset::bbox_mark_removed(std::span<const double> old) {
  if (!bbox_valid_) return;
  for (int d = 0; d < dims_; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    // A coordinate sitting exactly on the cached boundary may have
    // been the only point there — that dimension's extremum can only
    // be recovered by a rescan.
    if (old[sd] <= bbox_min_[sd]) bbox_min_dirty_[sd] = 1;
    if (old[sd] >= bbox_max_[sd]) bbox_max_dirty_[sd] = 1;
  }
}

PointId Dataset::insert(std::span<const double> p) {
  GSJ_CHECK(static_cast<int>(p.size()) == dims_);
  check_finite(p, "insert", n_);
  refresh_bbox();
  const PointId id = static_cast<PointId>(n_);
  for (int d = 0; d < dims_; ++d) {
    coords_[static_cast<std::size_t>(d)].push_back(p[static_cast<std::size_t>(d)]);
  }
  ++n_;
  ++generation_;
  bbox_extend(p);
  Mutation m;
  m.kind = Mutation::Kind::Insert;
  m.id = id;
  if (logging()) {
    for (int d = 0; d < dims_; ++d) {
      m.new_coords[static_cast<std::size_t>(d)] = p[static_cast<std::size_t>(d)];
    }
  }
  log_mutation(m);
  return id;
}

void Dataset::erase(PointId i) {
  GSJ_CHECK_MSG(i < n_, "erase(" << i << ") of " << n_ << " points");
  refresh_bbox();
  Mutation m;
  m.kind = Mutation::Kind::Erase;
  m.id = i;
  if (logging()) capture(i, m.old_coords);
  std::vector<double> old(static_cast<std::size_t>(dims_));
  for (int d = 0; d < dims_; ++d) {
    old[static_cast<std::size_t>(d)] = coord(i, d);
  }
  const PointId last = static_cast<PointId>(n_ - 1);
  if (i != last) {
    m.renamed_from = last;
    for (int d = 0; d < dims_; ++d) {
      auto& col = coords_[static_cast<std::size_t>(d)];
      col[i] = col[last];
    }
  }
  for (auto& col : coords_) col.pop_back();
  --n_;
  ++generation_;
  if (n_ == 0) {
    // Bounding box of an empty dataset is undefined; drop the cache so
    // the first insert rebuilds it from scratch.
    bbox_valid_ = false;
  } else {
    bbox_mark_removed(old);
  }
  log_mutation(m);
}

void Dataset::move_point(PointId i, std::span<const double> p) {
  GSJ_CHECK_MSG(i < n_, "move_point(" << i << ") of " << n_ << " points");
  GSJ_CHECK(static_cast<int>(p.size()) == dims_);
  check_finite(p, "move_point", i);
  refresh_bbox();
  Mutation m;
  m.kind = Mutation::Kind::Move;
  m.id = i;
  if (logging()) capture(i, m.old_coords);
  std::vector<double> old(static_cast<std::size_t>(dims_));
  for (int d = 0; d < dims_; ++d) {
    old[static_cast<std::size_t>(d)] = coord(i, d);
    coords_[static_cast<std::size_t>(d)][i] = p[static_cast<std::size_t>(d)];
  }
  ++generation_;
  bbox_mark_removed(old);
  bbox_extend(p);
  if (logging()) {
    for (int d = 0; d < dims_; ++d) {
      m.new_coords[static_cast<std::size_t>(d)] = p[static_cast<std::size_t>(d)];
    }
  }
  log_mutation(m);
}

void Dataset::set_coord(PointId i, int d, double v) {
  GSJ_CHECK_MSG(d >= 0 && d < dims_, "set_coord dim " << d);
  std::vector<double> p(static_cast<std::size_t>(dims_));
  for (int dd = 0; dd < dims_; ++dd) {
    p[static_cast<std::size_t>(dd)] = coord(i, dd);
  }
  p[static_cast<std::size_t>(d)] = v;
  move_point(i, p);
}

std::span<double> Dataset::fill_dim(int d) {
  GSJ_CHECK_MSG(d >= 0 && d < dims_, "fill_dim dim " << d);
  ++generation_;
  log_.clear();
  log_base_gen_ = generation_;
  bbox_valid_ = false;
  return coords_[static_cast<std::size_t>(d)];
}

void Dataset::reserve(std::size_t n) {
  for (auto& c : coords_) c.reserve(n);
}

std::vector<double> Dataset::min_corner() const {
  GSJ_CHECK(!empty());
  std::vector<double> out(static_cast<std::size_t>(dims_));
  for (int d = 0; d < dims_; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    out[sd] = bbox_valid_ && bbox_min_dirty_[sd] == 0
                  ? bbox_min_[sd]
                  : *std::min_element(coords_[sd].begin(), coords_[sd].end());
  }
  return out;
}

std::vector<double> Dataset::max_corner() const {
  GSJ_CHECK(!empty());
  std::vector<double> out(static_cast<std::size_t>(dims_));
  for (int d = 0; d < dims_; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    out[sd] = bbox_valid_ && bbox_max_dirty_[sd] == 0
                  ? bbox_max_[sd]
                  : *std::max_element(coords_[sd].begin(), coords_[sd].end());
  }
  return out;
}

Dataset Dataset::permuted(std::span<const PointId> perm) const {
  GSJ_CHECK(perm.size() == n_);
  Dataset out(dims_, n_);
  for (int d = 0; d < dims_; ++d) {
    const auto& src = coords_[static_cast<std::size_t>(d)];
    auto& dst = out.coords_[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < n_; ++i) dst[i] = src[perm[i]];
  }
  return out;
}

std::string Dataset::describe() const {
  std::ostringstream os;
  os << "Dataset{n=" << n_ << ", dims=" << dims_;
  if (!empty()) {
    const auto lo = min_corner();
    const auto hi = max_corner();
    os << ", bbox=[";
    for (int d = 0; d < dims_; ++d) {
      if (d) os << " x ";
      os << '[' << lo[static_cast<std::size_t>(d)] << ','
         << hi[static_cast<std::size_t>(d)] << ']';
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

}  // namespace gsj
