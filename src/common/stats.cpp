#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace gsj {

double percentile_sorted(std::span<const double> sorted, double q) {
  GSJ_CHECK(q >= 0.0 && q <= 100.0);
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;

  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();

  double sum = 0.0;
  for (double x : sorted) sum += x;
  s.sum = sum;
  s.mean = sum / static_cast<double>(s.count);

  double var = 0.0;
  for (double x : sorted) {
    const double d = x - s.mean;
    var += d * d;
  }
  s.stddev = std::sqrt(var / static_cast<double>(s.count));

  s.p25 = percentile_sorted(sorted, 25.0);
  s.median = percentile_sorted(sorted, 50.0);
  s.p75 = percentile_sorted(sorted, 75.0);
  s.p99 = percentile_sorted(sorted, 99.0);
  return s;
}

Summary summarize(std::span<const std::uint64_t> xs) {
  std::vector<double> d(xs.size());
  std::transform(xs.begin(), xs.end(), d.begin(),
                 [](std::uint64_t v) { return static_cast<double>(v); });
  return summarize(std::span<const double>(d));
}

}  // namespace gsj
