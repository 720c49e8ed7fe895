// Imbalance diagnostics of a kernel's warps — the paper's
// load-imbalance story as first-class numbers instead of figure
// eyeballing:
//
//  * per-warp cycle dispersion — CoV (stddev/mean) and Gini coefficient
//    of warp execution times. CoV ~ 0 / Gini ~ 0 means SORTBYWL or the
//    WORKQUEUE packed similar work together; heavy skew shows up long
//    before end-to-end time regresses.
//  * per-slot tail idle — how long each resident-warp slot sat idle
//    before kernel end (the kernel-tail imbalance WORKQUEUE removes);
//    the slot breakdown shows whether the tail is one straggler slot or
//    systemic. The batch driver fills SlotStats as batches commit.
//  * WEE — intra-warp lane efficiency (nvprof's
//    warp_execution_efficiency), already tracked per batch.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace gsj::obs {

/// Dispersion summary of per-warp execution cycles.
struct WarpImbalance {
  std::uint64_t warps = 0;
  double mean_cycles = 0.0;
  double cov = 0.0;   ///< coefficient of variation (stddev / mean)
  double gini = 0.0;  ///< Gini coefficient in [0, 1)
  std::uint64_t min_cycles = 0;
  std::uint64_t p50_cycles = 0;
  std::uint64_t p95_cycles = 0;
  std::uint64_t p99_cycles = 0;
  std::uint64_t max_cycles = 0;
};

/// Per resident-warp slot accounting, merged over launches.
struct SlotStats {
  std::uint64_t warps = 0;
  std::uint64_t busy_cycles = 0;
  std::uint64_t tail_idle_cycles = 0;
};

/// Full dispersion summary of per-warp cycles.
[[nodiscard]] WarpImbalance analyze_warp_cycles(
    std::span<const std::uint64_t> cycles);

/// One-line human rendering ("CoV 0.42, Gini 0.31, p99/p50 5.1x").
[[nodiscard]] std::string describe(const WarpImbalance& w);

}  // namespace gsj::obs
