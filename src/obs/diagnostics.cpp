#include "obs/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

namespace gsj::obs {

WarpImbalance analyze_warp_cycles(std::span<const std::uint64_t> cycles) {
  WarpImbalance w;
  w.warps = cycles.size();
  if (cycles.empty()) return w;

  std::vector<std::uint64_t> sorted(cycles.begin(), cycles.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  double sum = 0.0, sumsq = 0.0, weighted = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto x = static_cast<double>(sorted[i]);
    sum += x;
    sumsq += x * x;
    weighted += static_cast<double>(i + 1) * x;
  }
  w.mean_cycles = sum / n;
  const double var = std::max(0.0, sumsq / n - w.mean_cycles * w.mean_cycles);
  w.cov = w.mean_cycles == 0.0 ? 0.0 : std::sqrt(var) / w.mean_cycles;
  w.gini = sum == 0.0 || sorted.size() < 2
               ? 0.0
               : (2.0 * weighted) / (n * sum) - (n + 1.0) / n;
  w.min_cycles = sorted.front();
  w.max_cycles = sorted.back();
  const auto rank = [&](double q) {
    const auto r = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(sorted.size())));
    return sorted[r == 0 ? 0 : r - 1];
  };
  w.p50_cycles = rank(50);
  w.p95_cycles = rank(95);
  w.p99_cycles = rank(99);
  return w;
}

std::string describe(const WarpImbalance& w) {
  std::ostringstream os;
  os << w.warps << " warps, mean " << w.mean_cycles << " cyc, CoV " << w.cov
     << ", Gini " << w.gini << ", p99/p50 "
     << (w.p50_cycles == 0
             ? 0.0
             : static_cast<double>(w.p99_cycles) /
                   static_cast<double>(w.p50_cycles))
     << "x";
  return os.str();
}

}  // namespace gsj::obs
