// Device fleet: N modeled simt::Device instances executing work grains
// concurrently (docs/SIMULATOR.md §fleet).
//
// The paper mitigates imbalance *within* one device by scheduling work
// at the right granularity (SORTBYWL packs similar-work threads into a
// warp, the WORKQUEUE decouples work items from executors). The fleet
// lifts that story one level: the ε-grid is sharded into work grains
// (grid/grain.hpp) and a greedy LPT scheduler places grains on devices
// so per-device makespans converge toward fair. Devices may be
// heterogeneous — per-device DeviceConfig overrides for num_sms /
// clock_ghz / issue_width — which is exactly when static uniform
// sharding loses and measured-throughput feedback wins (the Hybrid
// KNN-Join partitioning argument, PAPERS.md).
//
// Scheduling discipline (deterministic, host-modeled):
//  * grains are placed largest-estimated-workload-first (LPT);
//  * each grain goes to the device with the minimum *predicted finish*:
//    accumulated modeled busy seconds + grain workload / device rate;
//  * a device's rate starts as the static prior
//    (DeviceConfig::static_rate, ∝ num_sms x issue_width x clock) and
//    is replaced by its *measured* throughput (workload units per
//    modeled second) once the device has executed a grain — the
//    feedback loop that converges on heterogeneous fleets even when
//    the static prior is wrong;
//  * ties break toward the lowest device id, so runs are deterministic.
//
// The fleet is a modeling construct: grains execute one at a time on
// the host (like batches always have), but their modeled seconds
// accumulate per device and the fleet makespan is the max — which is
// why per-device KernelStats must combine with merge_concurrent, not
// the sequential merge (device.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "simt/device.hpp"

namespace gsj::simt {

/// Fleet shape: how many devices and (optionally) how each differs
/// from the base DeviceConfig of the run.
struct FleetConfig {
  /// 1 = the classic single-device path (no grain sharding, byte-
  /// identical behaviour to before the fleet existed).
  int num_devices = 1;
  /// Optional per-device overrides; empty = homogeneous copies of the
  /// run's base device config. When non-empty, size must equal
  /// num_devices. Host-execution knobs are taken from the base config
  /// regardless (the host pool is shared; see sj/pipeline.cpp).
  std::vector<DeviceConfig> devices;
  /// Grains per device under adaptive scheduling: more grains = finer
  /// rebalancing at more per-grain overhead. The static baseline always
  /// uses exactly one grain per device.
  int grains_per_device = 8;
  /// true = LPT + measured-rate feedback (the default); false = static
  /// uniform sharding (grain i -> device i over cell-count-uniform
  /// grains) — the baseline the rebalancer is measured against.
  bool adaptive = true;

  [[nodiscard]] bool active() const noexcept { return num_devices > 1; }

  /// Throws CheckError unless num_devices >= 1, grains_per_device >= 1,
  /// overrides (when present) match num_devices, every device config
  /// validates, and all devices share one warp_size (WEE and the k |
  /// warp_size contract are fleet-wide; heterogeneity means SM count /
  /// clock / issue width, not warp shape).
  void validate(const DeviceConfig& base) const;

  /// The effective per-device configs: overrides when present, else
  /// num_devices copies of `base`; host-execution knobs always from
  /// `base`.
  [[nodiscard]] std::vector<DeviceConfig> resolve(
      const DeviceConfig& base) const;
};

/// Accumulated load of one device of the fleet.
struct DeviceLoad {
  int device = 0;
  std::uint64_t grains = 0;          ///< grains executed
  std::uint64_t workload = 0;        ///< summed grain workload units
  double busy_seconds = 0.0;         ///< modeled kernel seconds
  double tail_idle_seconds = 0.0;    ///< makespan - busy (filled at end)
  KernelStats kernel;                ///< merged sequentially per device
};

/// Fleet-level imbalance summary — the per-warp diagnostics
/// (obs/diagnostics.hpp) mirrored at device granularity.
struct FleetStats {
  std::vector<DeviceLoad> devices;   ///< empty = fleet never ran
  std::uint64_t num_grains = 0;
  /// Grains placed on a device other than their static spatial owner
  /// (grain g of G -> device g*D/G) — how much the rebalancer actually
  /// moved.
  std::uint64_t rebalances = 0;
  double makespan_seconds = 0.0;     ///< max over device busy seconds
  double device_cov = 0.0;           ///< CoV of per-device busy seconds
  double tail_idle_seconds = 0.0;    ///< Σ (makespan - busy) over devices
  /// makespan / mean busy seconds (1 = perfectly fair); 0 before a run.
  double imbalance = 0.0;

  [[nodiscard]] bool ran() const noexcept { return !devices.empty(); }
};

/// Grain placement + accounting. Usage (sj/execute.cpp):
///
///   DeviceFleet fleet(cfg.resolve(base));
///   for (grain : lpt_order)            // caller orders by workload
///     d = fleet.pick(grain.workload);  // predicted-finish argmin
///     ... run grain on device d ...
///     fleet.record(d, grain.workload, seconds, stats);
///   FleetStats fs = fleet.finish();
class DeviceFleet {
 public:
  explicit DeviceFleet(std::vector<DeviceConfig> devices);

  [[nodiscard]] std::size_t size() const noexcept { return devices_.size(); }
  [[nodiscard]] const DeviceConfig& device(std::size_t d) const noexcept {
    return devices_[d];
  }

  /// Device with the minimum predicted finish time for a grain of
  /// `workload` units (lowest id on ties).
  [[nodiscard]] std::size_t pick(std::uint64_t workload) const noexcept;

  /// Accounts an executed grain: `seconds` of modeled device time and
  /// the launch stats, merged sequentially into the device's load.
  void record(std::size_t d, std::uint64_t workload, double seconds,
              const KernelStats& stats);

  /// Closes the run: per-device tail idle against the fleet makespan,
  /// device-level CoV, imbalance ratio. `num_grains`/`rebalances` are
  /// scheduling facts only the caller knows.
  [[nodiscard]] FleetStats finish(std::uint64_t num_grains,
                                  std::uint64_t rebalances) const;

 private:
  std::vector<DeviceConfig> devices_;
  std::vector<DeviceLoad> loads_;
  std::vector<double> static_rate_;  ///< prior, normalized
};

}  // namespace gsj::simt
