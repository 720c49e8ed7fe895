// Descriptive statistics over sample vectors: moments and percentiles,
// used to characterise per-thread workload distributions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace gsj {

/// Summary of a numeric sample: count, extrema, moments and quartiles.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
  double sum = 0.0;

  /// Coefficient of variation (stddev / mean); 0 when mean == 0.
  [[nodiscard]] double cv() const noexcept {
    return mean == 0.0 ? 0.0 : stddev / mean;
  }
};

/// Computes a Summary of `xs`. An empty span yields a zeroed Summary.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Convenience overload for integer workload vectors.
[[nodiscard]] Summary summarize(std::span<const std::uint64_t> xs);

/// Linear interpolated percentile (q in [0,100]) of *sorted* data.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted, double q);

}  // namespace gsj
