// sjtool — command-line driver for the self-join library.
//
//   sjtool generate --dataset Expo2D2M --n 100000 --out data.bin
//   sjtool info     --input data.bin
//   sjtool join     --input data.bin --epsilon 0.02 --variant combined
//                   [--pairs-out pairs.csv] [--k 8] [--sms 56]
//                   [--mode rxs --other s.bin]   (R×S ε-join)
//   sjtool knn      --input data.bin --k 8 [--queries q.bin]
//                   (exact k-NN join by iterative ε-widening)
//   sjtool dbscan   --input data.bin --epsilon 0.05 --minpts 8
//   sjtool profile  --input data.bin --epsilon 0.02 --variant combined
//                   [--out DIR] [--logical-time]   (trace.json + metrics.json)
//   sjtool sweep    --input data.bin --epsilons 0.01,0.02,0.04
//                   [--variants combined,workqueue] [--out sweep.json]
//                   [--per-call-baseline]
//                   (multi-epsilon x multi-variant grid through ONE
//                   shared JoinService: grids/workloads/estimates are
//                   cached across cells; the JSON reports per-run
//                   host_prep vs kernel seconds and the sj.cache.*
//                   counters)
//   sjtool serve    --input data.bin (--requests reqs.txt | --stress N)
//                   [--workers W] [--verify] [--out serve.json]
//                   (concurrent serving through one JoinService:
//                   priority/deadline admission, cooperative
//                   cancellation, svc.* metrics; --verify replays every
//                   completed request serially on a cold engine and
//                   checks bit-identical results)
//
// Variants: gpucalcglobal | unicomp | lidunicomp | sortbywl | workqueue
//           | combined | superego (superego: join/profile only)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"
#include "grid/grid_index.hpp"
#include "obs/diagnostics.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/dbscan.hpp"
#include "sj/engine.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"
#include "superego/super_ego.hpp"

namespace {

// Integer flag bounds, checked while flags are parsed and so before any
// thread starts: every narrowing cast of a flag below is of a value
// already inside its target type.
constexpr std::int64_t kMaxThreads = 1024;  ///< every thread-count flag
constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::int64_t kMaxI64 = std::numeric_limits<std::int64_t>::max();
/// --n and --probe-n: point ids are 32-bit.
constexpr std::int64_t kMaxPoints = std::numeric_limits<gsj::PointId>::max();

/// --host-threads, read by every subcommand that launches kernels.
int host_threads_flag(gsj::Cli& cli) {
  return static_cast<int>(cli.get_int("host-threads", 0, 0, kMaxThreads,
                                      "host worker threads (0 = sequential)"));
}

/// --seed of an in-process generated dataset.
std::uint64_t seed_flag(gsj::Cli& cli) {
  return static_cast<std::uint64_t>(cli.get_int("seed", 1, 0, kMaxI64, ""));
}

/// --n of an in-process generated dataset.
std::size_t n_flag(gsj::Cli& cli, std::int64_t def) {
  return static_cast<std::size_t>(cli.get_int("n", def, 0, kMaxPoints,
                                              "points (0 = spec default)"));
}

/// Where a subcommand's dataset comes from: --input names an existing
/// .bin; otherwise --dataset, --n and --seed generate one in-process.
/// dataset_flags only reads the flags, so a subcommand reads and checks
/// all of its flags, and rejects unknown ones, before load() does any
/// dataset work.
struct DatasetFlags {
  std::string input;
  std::string name;
  std::size_t n = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] gsj::Dataset load() const {
    return input.empty() ? gsj::make_dataset(name, n, seed)
                         : gsj::load_binary(input);
  }
};

DatasetFlags dataset_flags(gsj::Cli& cli) {
  DatasetFlags f;
  f.input = cli.get("input", "", "input dataset (.bin)");
  if (f.input.empty()) {
    f.name = cli.get("dataset", "Expo2D2M", "Table I dataset to generate");
    f.n = n_flag(cli, 20000);
    f.seed = seed_flag(cli);
  }
  return f;
}

int usage() {
  std::cout <<
      "usage: sjtool <generate|info|join|knn|dbscan|profile|sweep|serve"
      "|top|explain> [--flags]\n"
      "  generate --dataset <Table-I name> [--n N] [--seed S] --out F\n"
      "  info     --input F\n"
      "  join     --input F --epsilon E [--variant V] [--k K]\n"
      "           [--mode self|rxs] [--other F]\n"
      "           [--sms N] [--host-threads T] [--pairs-out F.csv]\n"
      "           [--devices D] [--device-sms S1,..] [--device-clock G1,..]\n"
      "           [--grains-per-device G] [--fleet-static]\n"
      "           --mode rxs joins --input (R) against --other (S): all\n"
      "           (r, s) pairs within E, the smaller side gridded\n"
      "  knn      --input F --k N [--queries F] [--growth G]\n"
      "           [--initial-epsilon E0] [--sms N] [--host-threads T]\n"
      "           [--pairs-out F.csv]\n"
      "           exact k-NN join (docs/JOINS.md): for each query point\n"
      "           (--queries, default: the input itself) the N nearest\n"
      "           input points, found by iterative eps-widening\n"
      "  dbscan   --input F --epsilon E [--minpts M] [--host-threads T]\n"
      "           [--labels-out F.csv]\n"
      "  profile  (--input F | --dataset <name> [--n N] [--seed S])\n"
      "           --epsilon E [--variant V] [--k K] [--sms N]\n"
      "           [--host-threads T] [--out DIR] [--logical-time]\n"
      "           writes DIR/trace.json (Chrome trace-event JSON — load in\n"
      "           Perfetto or chrome://tracing) and DIR/metrics.json\n"
      "  sweep    (--input F | --dataset <name> [--n N] [--seed S])\n"
      "           --epsilons E1,E2,... [--variants V1,V2,...] [--sms N]\n"
      "           [--host-threads T] [--out F.json] [--per-call-baseline]\n"
      "           runs the full epsilon x variant grid through one\n"
      "           shared JoinService (plan artifacts cached across\n"
      "           cells) and writes a JSON report: per-run\n"
      "           host_prep/kernel seconds plus the sj.cache.*\n"
      "           hit/miss/evict counters; --per-call-baseline also\n"
      "           times each cell through the one-shot path\n"
      "  serve    (--input F | --dataset <name> [--n N] [--seed S])\n"
      "           (--requests F | --stress N) [--workers W]\n"
      "           [--queue-depth Q] [--sms N] [--host-threads T]\n"
      "           [--devices D] [--device-sms S1,..] [--device-clock G1,..]\n"
      "           [--grains-per-device G] [--fleet-static]\n"
      "           [--duplicate-fraction F] [--verify] [--out F.json]\n"
      "           [--rxs-fraction F] [--knn-fraction F] [--probe-n N]\n"
      "           [--max-cached-grids G]\n"
      "           [--churn-rate R [--churn-epochs E]]\n"
      "           serves requests concurrently through one JoinService;\n"
      "           a requests file has one request per line as key=value\n"
      "           tokens (epsilon= variant= k= priority= deadline-ms=\n"
      "           cancel-ms= mode= knn-k=; # starts a comment; mode=knn\n"
      "           needs knn-k=K and no epsilon), --stress generates N\n"
      "           seeded random requests with occasional cancellations\n"
      "           (--duplicate-fraction F derives that fraction of them\n"
      "           from earlier requests — half exact duplicates, half\n"
      "           subsumable smaller radii — to exercise the result\n"
      "           cache; --rxs-fraction / --knn-fraction run those\n"
      "           fractions as R×S / KNN joins against a seeded probe\n"
      "           dataset of --probe-n points, and the report gains a\n"
      "           knn_grid_cache_hit_ratio over the widening rounds);\n"
      "           --verify replays every completed request\n"
      "           serially on a cold engine and checks results are\n"
      "           bit-identical, served (cache/coalesced/subsumed)\n"
      "           responses included, R×S and KNN requests replayed in\n"
      "           their own mode; --churn-rate R > 0 switches to an\n"
      "           epoch loop (docs/STREAMING.md): between request waves\n"
      "           a seeded mutation mix touches ~R of the points\n"
      "           (insert/erase/move), the incremental repair path is\n"
      "           timed against a cold rebuild+rejoin, and every cached\n"
      "           grid digest is checked against a from-scratch build;\n"
      "           with --verify the pairs advanced by each delta must\n"
      "           equal the cold rejoin's\n"
      "           (scheduled cancellations are skipped in churn mode)\n"
      "  top      (--input F | --dataset <name> [--n N] [--seed S])\n"
      "           [--stress N] [--workers W] [--interval-ms I]\n"
      "           [--sms N] [--host-threads T] [--devices D]\n"
      "           drives a seeded stress mix through one JoinService\n"
      "           and prints interval snapshots (queue depth, in-flight\n"
      "           requests, depot levels, cache population/bytes,\n"
      "           result-cache occupancy vs budget)\n"
      "  explain  (--input F | --dataset <name> [--n N] [--seed S])\n"
      "           --epsilon E [--variant V] [--k K] [--sms N]\n"
      "           [--host-threads T] [--logical-time] [--json]\n"
      "           runs ONE request through a 1-worker JoinService and\n"
      "           prints its span tree (request root, queue_wait, plan,\n"
      "           execute, per-batch launches) plus the RequestBreakdown\n"
      "           (stage seconds, per-artifact cache hits, batches,\n"
      "           retries, pairs) as aligned text or JSON\n"
      "--host-threads runs the simulator on T host worker threads\n"
      "(0 = sequential; results and traces are identical either way)\n"
      "--devices D > 1 shards the grid across D modeled devices with the\n"
      "adaptive LPT rebalancer (docs/SIMULATOR.md); results are\n"
      "bit-identical to the single-device run\n"
      "variants: gpucalcglobal unicomp lidunicomp sortbywl workqueue\n"
      "          combined superego (superego: join/profile only)\n";
  return 2;
}

/// Batching / overflow-recovery flags shared by join, dbscan and
/// profile. The inject-* knobs deterministically exercise the recovery
/// path (docs/ROBUSTNESS.md).
void apply_batching_flags(gsj::Cli& cli, gsj::BatchingConfig& b) {
  b.buffer_pairs = static_cast<std::uint64_t>(cli.get_int(
      "buffer-pairs", static_cast<std::int64_t>(b.buffer_pairs), 1, kMaxI64,
      "per-batch result buffer capacity (pairs)"));
  b.safety = cli.get_double("safety", b.safety, "batch-count safety factor");
  b.max_overflow_retries = static_cast<std::uint64_t>(cli.get_int(
      "max-overflow-retries",
      static_cast<std::int64_t>(b.max_overflow_retries), 0, kMaxI64,
      "failed-launch budget before the join gives up"));
  b.inject_estimator_skew = cli.get_double(
      "inject-estimator-skew", b.inject_estimator_skew,
      "fault injection: multiply result-size estimates (<1 = undershoot)");
  b.inject_capacity = static_cast<std::uint64_t>(cli.get_int(
      "inject-capacity", static_cast<std::int64_t>(b.inject_capacity), 0,
      kMaxI64,
      "fault injection: override overflow-detection capacity (0 = off)"));
}

/// Splits a comma-separated flag value ("0.01,0.02" / "combined,workqueue").
std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Fleet flags shared by join, serve and top (docs/SIMULATOR.md
/// §fleet): --devices selects the device count, the optional
/// --device-sms / --device-clock CSVs override per-device SM counts /
/// clocks (a heterogeneous fleet; every other knob copies `base`),
/// --grains-per-device sets the sharding granularity and
/// --fleet-static pins grains to their static uniform owner instead of
/// the adaptive LPT rebalancer.
gsj::simt::FleetConfig parse_fleet_flags(gsj::Cli& cli,
                                         const gsj::simt::DeviceConfig& base) {
  gsj::simt::FleetConfig fc;
  fc.num_devices = static_cast<int>(
      cli.get_int("devices", 1, 1, kMaxInt,
                  "modeled devices (1 = classic single-device path)"));
  fc.grains_per_device = static_cast<int>(
      cli.get_int("grains-per-device", fc.grains_per_device, 1, kMaxInt,
                  "work grains per device (adaptive sharding granularity)"));
  fc.adaptive = !cli.get_bool(
      "fleet-static", false,
      "static uniform grain ownership instead of the LPT rebalancer");
  const std::string sms_csv = cli.get(
      "device-sms", "", "per-device SM counts, CSV (heterogeneous fleet)");
  const std::string clock_csv =
      cli.get("device-clock", "", "per-device clocks in GHz, CSV");
  if (!sms_csv.empty() || !clock_csv.empty()) {
    fc.devices.assign(static_cast<std::size_t>(fc.num_devices), base);
    const auto apply = [&](const std::string& csv, auto&& set) {
      if (csv.empty()) return;
      const std::vector<std::string> vals = split_csv(csv);
      GSJ_CHECK_MSG(vals.size() == fc.devices.size(),
                    "per-device CSV needs exactly --devices values, got "
                        << vals.size());
      for (std::size_t i = 0; i < vals.size(); ++i) {
        set(fc.devices[i], vals[i]);
      }
    };
    apply(sms_csv, [](gsj::simt::DeviceConfig& d, const std::string& v) {
      d.num_sms =
          static_cast<int>(gsj::parse_int(v, "--device-sms", 1, kMaxInt));
    });
    apply(clock_csv, [](gsj::simt::DeviceConfig& d, const std::string& v) {
      d.clock_ghz = gsj::parse_double(v, "--device-clock");
    });
  }
  return fc;
}

/// Prints the device-level load breakdown of a fleet run.
void print_fleet_stats(const gsj::simt::FleetStats& fs) {
  std::cout << "fleet: " << fs.devices.size() << " devices, " << fs.num_grains
            << " grains, " << fs.rebalances << " rebalanced, makespan "
            << fs.makespan_seconds << " s, device CoV " << fs.device_cov
            << ", imbalance " << fs.imbalance << "\n";
  for (const auto& d : fs.devices) {
    std::cout << "  device " << d.device << ": " << d.grains
              << " grain(s), busy " << d.busy_seconds << " s, tail idle "
              << d.tail_idle_seconds << " s\n";
  }
}

/// Fails on every flag that was given but never read — a misspelling,
/// or a flag this subcommand does not take in this mode. Each
/// subcommand calls it once it has read its flags, before it runs.
void reject_unknown_flags(const gsj::Cli& cli) {
  std::string names;
  for (const std::string& name : cli.unknown()) names += " --" + name;
  if (!names.empty()) {
    throw std::invalid_argument("unknown flag(s):" + names);
  }
}

/// --input of a subcommand that takes only an existing .bin.
DatasetFlags input_flag(gsj::Cli& cli) {
  DatasetFlags f;
  f.input = cli.get("input", "", "input dataset (.bin)");
  GSJ_CHECK_MSG(!f.input.empty(), "--input is required");
  return f;
}

/// Resolves a GPU variant name to its configuration; false if unknown.
bool make_gpu_config(const std::string& variant, double eps,
                     gsj::SelfJoinConfig& cfg) {
  if (variant == "gpucalcglobal") {
    cfg = gsj::SelfJoinConfig::gpu_calc_global(eps);
  } else if (variant == "unicomp") {
    cfg = gsj::SelfJoinConfig::unicomp(eps);
  } else if (variant == "lidunicomp") {
    cfg = gsj::SelfJoinConfig::lid_unicomp(eps);
  } else if (variant == "sortbywl") {
    cfg = gsj::SelfJoinConfig::sort_by_wl(eps);
  } else if (variant == "workqueue") {
    cfg = gsj::SelfJoinConfig::work_queue_cfg(eps);
  } else if (variant == "combined") {
    cfg = gsj::SelfJoinConfig::combined(eps);
  } else {
    return false;
  }
  return true;
}

int cmd_generate(gsj::Cli& cli) {
  const std::string name =
      cli.get("dataset", "Unif2D2M", "Table I dataset name");
  const std::size_t n = n_flag(cli, 0);
  const std::uint64_t seed = seed_flag(cli);
  const std::string out = cli.get("out", "dataset.bin", "output path");
  reject_unknown_flags(cli);
  const gsj::Dataset ds = gsj::make_dataset(name, n, seed);
  gsj::save_binary(ds, out);
  std::cout << "wrote " << ds.describe() << " to " << out << "\n";
  return 0;
}

int cmd_info(gsj::Cli& cli) {
  const DatasetFlags data = input_flag(cli);
  reject_unknown_flags(cli);
  const gsj::Dataset ds = data.load();
  std::cout << ds.describe() << "\n";
  for (int d = 0; d < ds.dims(); ++d) {
    const gsj::Summary s = gsj::summarize(ds.dim(d));
    std::cout << "  dim " << d << ": min " << s.min << ", median " << s.median
              << ", mean " << s.mean << ", max " << s.max << ", stddev "
              << s.stddev << "\n";
  }
  return 0;
}

int cmd_join(gsj::Cli& cli) {
  const DatasetFlags data = input_flag(cli);
  const double eps = cli.get_double("epsilon", 0.0, "join radius");
  GSJ_CHECK_MSG(eps > 0.0, "--epsilon is required and must be > 0");
  const std::string variant =
      cli.get("variant", "combined", "join variant (see --help)");
  const std::string mode = cli.get("mode", "self", "join mode: self | rxs");
  GSJ_CHECK_MSG(mode == "self" || mode == "rxs",
                "unknown --mode '" << mode << "' (self | rxs)");
  const std::string other_path = cli.get(
      "other", "", "R×S: the S-side dataset (.bin); --input is the R side");
  const std::string pairs_out =
      cli.get("pairs-out", "", "write result pairs to CSV");
  if (mode == "rxs") {
    GSJ_CHECK_MSG(!other_path.empty(), "--mode rxs needs --other F");
    GSJ_CHECK_MSG(variant != "superego",
                  "superego supports --mode self only");
  }

  if (variant == "superego") {
    gsj::SuperEgoConfig cfg;
    cfg.epsilon = eps;
    cfg.nthreads = static_cast<std::size_t>(
        cli.get_int("threads", 0, 0, kMaxThreads, "SUPER-EGO threads"));
    cfg.store_pairs = !pairs_out.empty();
    reject_unknown_flags(cli);
    const gsj::Dataset ds = data.load();
    const auto out = gsj::super_ego_join(ds, cfg);
    std::cout << "SUPER-EGO: " << out.stats.result_pairs << " pairs in "
              << out.stats.sort_seconds + out.stats.seconds << " s ("
              << out.stats.distance_calcs << " distance calcs)\n";
    if (!pairs_out.empty()) {
      std::ofstream f(pairs_out);
      for (const auto& [a, b] : out.results.pairs()) {
        f << a << ',' << b << '\n';
      }
      std::cout << "pairs written to " << pairs_out << "\n";
    }
    return 0;
  }

  gsj::SelfJoinConfig cfg;
  if (!make_gpu_config(variant, eps, cfg)) {
    std::cerr << "unknown variant: " << variant << "\n";
    return usage();
  }
  cfg.k = static_cast<int>(
      cli.get_int("k", cfg.k, 1, kMaxInt, "threads per point"));
  cfg.device.num_sms = static_cast<int>(
      cli.get_int("sms", cfg.device.num_sms, 1, kMaxInt, "modeled SMs"));
  cfg.device.host.num_threads = host_threads_flag(cli);
  apply_batching_flags(cli, cfg.batching);
  cfg.fleet = parse_fleet_flags(cli, cfg.device);
  cfg.store_pairs = !pairs_out.empty();
  reject_unknown_flags(cli);
  const gsj::Dataset ds = data.load();

  const gsj::SelfJoinOutput out = [&] {
    if (mode == "rxs") {
      const gsj::Dataset other = gsj::load_binary(other_path);
      return gsj::rxs_join(ds, other, cfg);
    }
    return gsj::self_join(ds, cfg);
  }();
  std::cout << cfg.name() << (mode == "rxs" ? " [rxs]" : "") << ": "
            << out.stats.result_pairs << " pairs, "
            << out.stats.num_batches << " batches, modeled "
            << out.stats.total_seconds << " s (kernel "
            << out.stats.kernel_seconds << " s), WEE "
            << out.stats.wee_percent() << "%\n";
  if (out.stats.fleet.ran()) print_fleet_stats(out.stats.fleet);
  if (out.stats.overflow_retries > 0) {
    std::cout << "overflow recovery: " << out.stats.overflow_retries
              << " retried launch(es), " << out.stats.wasted.busy_cycles
              << " wasted busy cycles\n";
  }
  if (!pairs_out.empty()) {
    std::ofstream f(pairs_out);
    for (const auto& [a, b] : out.results.pairs()) f << a << ',' << b << '\n';
    std::cout << "pairs written to " << pairs_out << "\n";
  }
  return 0;
}

int cmd_knn(gsj::Cli& cli) {
  const DatasetFlags data = input_flag(cli);
  const int k = static_cast<int>(
      cli.get_int("k", 0, 0, kMaxInt, "neighbors per query"));
  GSJ_CHECK_MSG(k > 0, "--k is required and must be > 0");
  const std::string queries_path = cli.get(
      "queries", "", "query dataset (.bin); default: the input itself");
  const std::string pairs_out =
      cli.get("pairs-out", "", "write (query,neighbor) pairs to CSV");

  gsj::SelfJoinConfig cfg;
  cfg.device.num_sms = static_cast<int>(
      cli.get_int("sms", cfg.device.num_sms, 1, kMaxInt, "modeled SMs"));
  cfg.device.host.num_threads = host_threads_flag(cli);
  apply_batching_flags(cli, cfg.batching);
  cfg.knn_growth = cli.get_double("growth", cfg.knn_growth,
                                  "eps-widening growth factor (> 1)");
  cfg.knn_initial_epsilon = cli.get_double(
      "initial-epsilon", 0.0, "explicit eps0 (0 = density-derived seed)");
  cfg.store_pairs = !pairs_out.empty();
  reject_unknown_flags(cli);
  const gsj::Dataset ds = data.load();

  // Self-kNN (no --queries) probes the dataset with itself; each point
  // then counts itself as its own nearest neighbor (distance 0) — the
  // documented self-match semantics (docs/JOINS.md).
  gsj::Dataset query_storage(ds.dims());
  const gsj::Dataset* queries = &ds;
  if (!queries_path.empty()) {
    query_storage = gsj::load_binary(queries_path);
    queries = &query_storage;
  }

  const gsj::SelfJoinOutput out = gsj::knn_join(ds, *queries, k, cfg);
  std::cout << "knn k=" << k << ": " << out.stats.result_pairs
            << " pairs over " << queries->size() << " queries, "
            << out.stats.knn_rounds << " widening round(s) to eps "
            << out.stats.knn_final_epsilon << ", modeled "
            << out.stats.total_seconds << " s (kernel "
            << out.stats.kernel_seconds << " s)\n";
  if (!pairs_out.empty()) {
    std::ofstream f(pairs_out);
    for (const auto& [a, b] : out.results.pairs()) f << a << ',' << b << '\n';
    std::cout << "pairs written to " << pairs_out << "\n";
  }
  return 0;
}

int cmd_dbscan(gsj::Cli& cli) {
  const DatasetFlags data = input_flag(cli);
  gsj::DbscanConfig cfg;
  cfg.epsilon = cli.get_double("epsilon", 0.0, "DBSCAN epsilon");
  GSJ_CHECK_MSG(cfg.epsilon > 0.0, "--epsilon is required and must be > 0");
  cfg.min_pts = static_cast<std::uint32_t>(cli.get_int(
      "minpts", 4, 1, std::numeric_limits<std::uint32_t>::max(),
      "DBSCAN minPts"));
  cfg.join.device.host.num_threads = host_threads_flag(cli);
  apply_batching_flags(cli, cfg.join.batching);
  const std::string labels_out =
      cli.get("labels-out", "", "write per-point labels to CSV");
  reject_unknown_flags(cli);
  const gsj::Dataset ds = data.load();

  const auto res = gsj::dbscan(ds, cfg);
  std::cout << "dbscan: " << res.num_clusters << " clusters, "
            << res.num_core << " core, " << res.num_noise << " noise ("
            << res.join_stats.result_pairs << " join pairs, WEE "
            << res.join_stats.wee_percent() << "%)\n";
  if (!labels_out.empty()) {
    std::ofstream f(labels_out);
    for (std::size_t p = 0; p < res.labels.size(); ++p) {
      f << p << ',' << res.labels[p] << '\n';
    }
    std::cout << "labels written to " << labels_out << "\n";
  }
  return 0;
}

int cmd_profile(gsj::Cli& cli) {
  const DatasetFlags data = dataset_flags(cli);

  const double eps = cli.get_double("epsilon", 0.0, "join radius");
  GSJ_CHECK_MSG(eps > 0.0, "--epsilon is required and must be > 0");
  const std::string variant =
      cli.get("variant", "combined", "join variant (see --help)");
  const std::string out_dir =
      cli.get("out", "profile_out", "output directory");
  const bool logical =
      cli.get_bool("logical-time", false,
                   "deterministic logical host timestamps (byte-identical "
                   "traces across identical runs)");

  gsj::obs::Tracer tracer(logical ? gsj::obs::TimeMode::Logical
                                  : gsj::obs::TimeMode::Wall);
  gsj::obs::Registry metrics;

  if (variant == "superego") {
    gsj::SuperEgoConfig cfg;
    cfg.epsilon = eps;
    cfg.nthreads = static_cast<std::size_t>(
        cli.get_int("threads", 0, 0, kMaxThreads, "SUPER-EGO threads"));
    cfg.tracer = &tracer;
    cfg.metrics = &metrics;
    reject_unknown_flags(cli);
    const gsj::Dataset ds = data.load();
    const auto out = gsj::super_ego_join(ds, cfg);
    std::cout << "SUPER-EGO: " << out.stats.result_pairs << " pairs in "
              << out.stats.sort_seconds + out.stats.seconds << " s\n";
  } else {
    gsj::SelfJoinConfig cfg;
    if (!make_gpu_config(variant, eps, cfg)) {
      std::cerr << "unknown variant: " << variant << "\n";
      return usage();
    }
    cfg.k = static_cast<int>(
        cli.get_int("k", cfg.k, 1, kMaxInt, "threads per point"));
    cfg.device.num_sms = static_cast<int>(
        cli.get_int("sms", cfg.device.num_sms, 1, kMaxInt, "modeled SMs"));
    cfg.device.host.num_threads = host_threads_flag(cli);
    apply_batching_flags(cli, cfg.batching);
    cfg.tracer = &tracer;
    cfg.metrics = &metrics;
    reject_unknown_flags(cli);
    const gsj::Dataset ds = data.load();

    const auto out = gsj::self_join(ds, cfg);
    std::cout << cfg.name() << ": " << out.stats.result_pairs << " pairs, "
              << out.stats.num_batches << " batches, WEE "
              << out.stats.wee_percent() << "%\n";
    if (out.stats.overflow_retries > 0) {
      std::cout << "overflow recovery: " << out.stats.overflow_retries
                << " retried launch(es), " << out.stats.wasted.busy_cycles
                << " wasted busy cycles\n";
    }
    std::cout
              << "warp imbalance: " << gsj::obs::describe(out.stats.warp_imbalance)
              << "\n";
    std::uint64_t tail_idle = 0, worst_idle = 0;
    for (const auto& s : out.stats.slots) {
      tail_idle += s.tail_idle_cycles;
      worst_idle = std::max(worst_idle, s.tail_idle_cycles);
    }
    std::cout << "tail idle: " << tail_idle << " slot-cycles total, worst slot "
              << worst_idle << " cycles over " << out.stats.num_batches
              << " batches\n";
  }

  std::filesystem::create_directories(out_dir);
  const std::string trace_path = out_dir + "/trace.json";
  const std::string metrics_path = out_dir + "/metrics.json";
  const std::string om_path = out_dir + "/metrics.prom";
  {
    std::ofstream f(trace_path);
    GSJ_CHECK_MSG(f.good(), "cannot open " << trace_path);
    tracer.write_chrome_json(f);
  }
  {
    std::ofstream f(metrics_path);
    GSJ_CHECK_MSG(f.good(), "cannot open " << metrics_path);
    metrics.write_json(f);
  }
  {
    std::ofstream f(om_path);
    GSJ_CHECK_MSG(f.good(), "cannot open " << om_path);
    metrics.write_openmetrics(f);
  }
  std::cout << "trace: " << trace_path << " (" << tracer.host_span_count()
            << " host spans, " << tracer.batch_event_count() << " batches, "
            << tracer.warp_event_count() << " warp events)\n"
            << "metrics: " << metrics_path << " + " << om_path << " ("
            << metrics.size() << " instruments)\n";
  return 0;
}

int cmd_sweep(gsj::Cli& cli) {
  const DatasetFlags data = dataset_flags(cli);

  const std::string eps_flag =
      cli.get("epsilons", "", "comma-separated join radii");
  GSJ_CHECK_MSG(!eps_flag.empty(), "--epsilons is required");
  std::vector<double> epsilons;
  for (const auto& tok : split_csv(eps_flag)) {
    epsilons.push_back(gsj::parse_double(tok, "--epsilons"));
  }
  const std::vector<std::string> variants = split_csv(cli.get(
      "variants", "gpucalcglobal,unicomp,lidunicomp,sortbywl,workqueue,combined",
      "comma-separated GPU variants"));
  const int sms = static_cast<int>(
      cli.get_int("sms", 0, 0, kMaxInt, "modeled SMs (0 = default)"));
  const int host_threads = host_threads_flag(cli);
  gsj::BatchingConfig batching;
  apply_batching_flags(cli, batching);
  const bool per_call = cli.get_bool(
      "per-call-baseline", false,
      "also run every cell through the one-shot self_join for comparison");
  const std::string out_path = cli.get("out", "sweep.json", "JSON report path");
  reject_unknown_flags(cli);
  const gsj::Dataset ds = data.load();

  gsj::obs::Registry svc_metrics;
  gsj::ServiceConfig scfg;
  scfg.obs.metrics = &svc_metrics;
  // Bound large enough for the whole grid so the sweep itself measures
  // reuse, not eviction; eviction behaviour has its own tests.
  scfg.max_cached_grids = std::max<std::size_t>(4, epsilons.size());
  scfg.max_cached_plans = std::max<std::size_t>(8, 3 * epsilons.size());
  gsj::JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  struct Row {
    double eps = 0.0;
    std::string variant, name;
    std::uint64_t pairs = 0, batches = 0;
    double wee = 0.0, host_prep = 0.0, kernel = 0.0, total = 0.0, wall = 0.0;
    double pc_host_prep = 0.0, pc_kernel = 0.0, pc_wall = 0.0;
  };
  std::vector<Row> rows;
  double eng_prep_total = 0.0, eng_kernel_total = 0.0, eng_wall_total = 0.0;
  double pc_prep_total = 0.0, pc_kernel_total = 0.0, pc_wall_total = 0.0;

  for (const double eps : epsilons) {
    for (const auto& variant : variants) {
      gsj::SelfJoinConfig cfg;
      if (!make_gpu_config(variant, eps, cfg)) {
        std::cerr << "unknown variant: " << variant << "\n";
        return usage();
      }
      if (sms > 0) cfg.device.num_sms = sms;
      cfg.device.host.num_threads = host_threads;
      cfg.batching = batching;
      cfg.store_pairs = false;
      cfg.collect_diagnostics = false;  // throughput mode

      Row row;
      row.eps = eps;
      row.variant = variant;
      row.name = cfg.name();
      gsj::Timer wall;
      auto out = svc.run(*sd, cfg);
      row.wall = wall.seconds();
      row.pairs = out.stats.result_pairs;
      row.batches = out.stats.num_batches;
      row.wee = out.stats.wee_percent();
      row.host_prep = out.stats.host_prep_seconds;
      row.kernel = out.stats.kernel_seconds;
      row.total = out.stats.total_seconds;
      svc.recycle(std::move(out));
      eng_prep_total += row.host_prep;
      eng_kernel_total += row.kernel;
      eng_wall_total += row.wall;

      if (per_call) {
        gsj::Timer pc_wall;
        const auto pc = gsj::self_join(ds, cfg);
        row.pc_wall = pc_wall.seconds();
        row.pc_host_prep = pc.stats.host_prep_seconds;
        row.pc_kernel = pc.stats.kernel_seconds;
        GSJ_CHECK_MSG(pc.stats.result_pairs == row.pairs,
                      "engine/per-call result mismatch at eps=" << eps);
        pc_prep_total += row.pc_host_prep;
        pc_kernel_total += row.pc_kernel;
        pc_wall_total += row.pc_wall;
      }

      std::cout << row.name << " eps=" << eps << ": " << row.pairs
                << " pairs, " << row.batches << " batches, host_prep "
                << row.host_prep << " s, kernel " << row.kernel << " s\n";
      rows.push_back(std::move(row));
    }
  }

  const auto cache = [&](const char* name) {
    return svc_metrics.counter(name).value();
  };
  std::ofstream f(out_path);
  GSJ_CHECK_MSG(f.good(), "cannot open " << out_path);
  f.precision(17);
  f << "{\n  \"dataset\": {\"n\": " << ds.size() << ", \"dims\": " << ds.dims()
    << "},\n  \"host_threads\": " << host_threads << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "    {\"epsilon\": " << r.eps << ", \"variant\": \"" << r.variant
      << "\", \"name\": \"" << r.name << "\", \"pairs\": " << r.pairs
      << ", \"batches\": " << r.batches << ", \"wee_percent\": " << r.wee
      << ", \"host_prep_seconds\": " << r.host_prep
      << ", \"kernel_seconds\": " << r.kernel
      << ", \"total_seconds\": " << r.total
      << ", \"wall_seconds\": " << r.wall;
    if (per_call) {
      f << ", \"per_call_host_prep_seconds\": " << r.pc_host_prep
        << ", \"per_call_kernel_seconds\": " << r.pc_kernel
        << ", \"per_call_wall_seconds\": " << r.pc_wall;
    }
    f << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"cache\": {\"hits\": " << cache("sj.cache.hits")
    << ", \"misses\": " << cache("sj.cache.misses")
    << ", \"evictions\": " << cache("sj.cache.evictions")
    << ", \"invalidations\": " << cache("sj.cache.invalidations")
    << ", \"grid_hits\": " << cache("sj.cache.grid.hits")
    << ", \"grid_misses\": " << cache("sj.cache.grid.misses")
    << ", \"workload_hits\": " << cache("sj.cache.workload.hits")
    << ", \"workload_misses\": " << cache("sj.cache.workload.misses")
    << ", \"estimate_hits\": " << cache("sj.cache.estimate.hits")
    << ", \"estimate_misses\": " << cache("sj.cache.estimate.misses")
    << "},\n  \"totals\": {\"host_prep_seconds\": " << eng_prep_total
    << ", \"kernel_seconds\": " << eng_kernel_total
    << ", \"wall_seconds\": " << eng_wall_total << "}";
  if (per_call) {
    f << ",\n  \"per_call_totals\": {\"host_prep_seconds\": " << pc_prep_total
      << ", \"kernel_seconds\": " << pc_kernel_total
      << ", \"wall_seconds\": " << pc_wall_total << "}";
  }
  f << "\n}\n";

  std::cout << "cache: " << cache("sj.cache.hits") << " hits, "
            << cache("sj.cache.misses") << " misses ("
            << cache("sj.cache.grid.hits") << " grid hits over "
            << rows.size() << " runs)\n"
            << "totals: host_prep " << eng_prep_total << " s, kernel "
            << eng_kernel_total << " s";
  if (per_call) {
    std::cout << " | per-call host_prep " << pc_prep_total << " s, kernel "
              << pc_kernel_total << " s";
  }
  std::cout << "\nreport: " << out_path << "\n";
  return 0;
}

/// One serve-mode request: the service request plus tool-side driver
/// knobs (when to fire the cooperative cancel).
struct ServeRequest {
  std::string variant = "combined";
  std::string mode = "self";  ///< self | rxs | knn
  double epsilon = 0.0;
  int k = 0;      ///< 0 = the variant's default
  int knn_k = 0;  ///< neighbors per query (mode == knn)
  gsj::JoinRequest jr;
  double cancel_after_ms = -1.0;  ///< <0 = never cancelled
};

/// Parses "epsilon=0.02 variant=combined priority=1 deadline-ms=50
/// cancel-ms=5 mode=rxs" (any subset; unknown keys are errors).
/// mode=knn requires knn-k=K instead of an epsilon (the widening
/// schedule replaces it — docs/JOINS.md).
ServeRequest parse_request_line(const std::string& line) {
  ServeRequest r;
  std::stringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    const auto eq = tok.find('=');
    GSJ_CHECK_MSG(eq != std::string::npos, "malformed token '" << tok
                      << "' (want key=value)");
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    const std::string what = "request key '" + key + "'";
    const auto as_int = [&] {
      return static_cast<int>(gsj::parse_int(
          val, what, std::numeric_limits<int>::min(), kMaxInt));
    };
    if (key == "epsilon") {
      r.epsilon = gsj::parse_double(val, what);
    } else if (key == "variant") {
      r.variant = val;
    } else if (key == "k") {
      r.k = as_int();
    } else if (key == "priority") {
      r.jr.priority = as_int();
    } else if (key == "deadline-ms") {
      r.jr.deadline_seconds = gsj::parse_double(val, what) / 1e3;
    } else if (key == "cancel-ms") {
      r.cancel_after_ms = gsj::parse_double(val, what);
    } else if (key == "mode") {
      r.mode = val;
    } else if (key == "knn-k") {
      r.knn_k = as_int();
    } else {
      GSJ_CHECK_MSG(false, "unknown request key '" << key << "'");
    }
  }
  GSJ_CHECK_MSG(r.mode == "self" || r.mode == "rxs" || r.mode == "knn",
                "unknown mode '" << r.mode << "': " << line);
  if (r.mode == "knn") {
    GSJ_CHECK_MSG(r.knn_k > 0, "knn request needs knn-k=K > 0: " << line);
  } else {
    GSJ_CHECK_MSG(r.epsilon > 0.0, "request needs epsilon=E > 0: " << line);
  }
  return r;
}

int cmd_serve(gsj::Cli& cli) {
  const DatasetFlags data = dataset_flags(cli);
  const std::uint64_t seed = seed_flag(cli);

  const std::string requests_path =
      cli.get("requests", "", "requests file (key=value lines)");
  const int stress = static_cast<int>(
      cli.get_int("stress", 0, 0, kMaxInt,
                  "generate N seeded random requests instead of a file"));
  GSJ_CHECK_MSG(!requests_path.empty() || stress > 0,
                "--requests or --stress is required");
  const auto workers = static_cast<std::size_t>(
      cli.get_int("workers", 4, 1, kMaxThreads, "service worker threads"));
  const auto queue_depth = static_cast<std::size_t>(
      cli.get_int("queue-depth", 256, 0, kMaxI64, "admission queue bound"));
  const int sms = static_cast<int>(
      cli.get_int("sms", 0, 0, kMaxInt, "modeled SMs (0 = default)"));
  const int host_threads = host_threads_flag(cli);
  const bool verify = cli.get_bool(
      "verify", false,
      "replay completed requests serially on a cold engine and compare");
  const double dup_fraction = cli.get_double(
      "duplicate-fraction", 0.0,
      "fraction of --stress requests derived from an earlier one (half "
      "exact duplicates, half subsumable smaller radii)");
  GSJ_CHECK_MSG(dup_fraction >= 0.0 && dup_fraction <= 1.0,
                "--duplicate-fraction must be in [0, 1]");
  const double rxs_fraction = cli.get_double(
      "rxs-fraction", 0.0,
      "fraction of --stress requests run as R×S joins against a seeded "
      "probe dataset");
  const double knn_fraction = cli.get_double(
      "knn-fraction", 0.0,
      "fraction of --stress requests run as KNN joins (eps-widening) "
      "against the probe dataset");
  GSJ_CHECK_MSG(rxs_fraction >= 0.0 && knn_fraction >= 0.0 &&
                    rxs_fraction + knn_fraction <= 1.0,
                "--rxs-fraction/--knn-fraction must be >= 0 and sum <= 1");
  const auto probe_n = static_cast<std::size_t>(
      cli.get_int("probe-n", 0, 0, kMaxPoints,
                  "probe dataset size for rxs/knn requests (0 = n/8)"));
  const auto max_cached_grids = static_cast<std::size_t>(cli.get_int(
      "max-cached-grids", 64, 0, kMaxI64,
      "per-dataset grid LRU bound; a KNN widening schedule only re-hits "
      "the cache if the whole schedule stays resident"));
  const double churn_rate = cli.get_double(
      "churn-rate", 0.0,
      "fraction of points mutated between request waves (0 = static)");
  GSJ_CHECK_MSG(churn_rate >= 0.0 && churn_rate <= 1.0,
                "--churn-rate must be in [0, 1]");
  const int churn_epochs = static_cast<int>(cli.get_int(
      "churn-epochs", 8, 1, kMaxInt, "request waves when --churn-rate > 0"));
  const std::string out_path = cli.get("out", "", "JSON report path");
  gsj::BatchingConfig batching;
  apply_batching_flags(cli, batching);
  gsj::simt::DeviceConfig base_device;
  if (sms > 0) base_device.num_sms = sms;
  base_device.host.num_threads = host_threads;
  const gsj::simt::FleetConfig fleet = parse_fleet_flags(cli, base_device);
  reject_unknown_flags(cli);
  gsj::Dataset ds = data.load();

  // --- assemble the request list ---
  std::vector<ServeRequest> reqs;
  if (!requests_path.empty()) {
    std::ifstream f(requests_path);
    GSJ_CHECK_MSG(f.good(), "cannot open " << requests_path);
    std::string line;
    while (std::getline(f, line)) {
      const auto first = line.find_first_not_of(" \t");
      if (first == std::string::npos || line[first] == '#') continue;
      reqs.push_back(parse_request_line(line));
    }
  } else {
    // Seeded random mix: every variant, a few epsilons, three priority
    // classes, ~1/8 of requests cancelled shortly after submission.
    const std::vector<std::string> kVariants = {
        "gpucalcglobal", "unicomp", "lidunicomp",
        "sortbywl",      "workqueue", "combined"};
    const std::vector<double> kEpsilons = {0.01, 0.02, 0.04};
    std::mt19937_64 rng(seed);
    for (int i = 0; i < stress; ++i) {
      ServeRequest r;
      if (!reqs.empty() && dup_fraction > 0.0 &&
          static_cast<double>(rng() % 1000) < dup_fraction * 1000.0) {
        // Derived request: same answer as (or a subset of) an earlier
        // one, under a fresh variant — the result-serving layer's key
        // is variant-agnostic, so these are servable without running.
        // Low priority so the base tends to execute (and publish)
        // first; never cancelled, so served_from counts stay readable.
        // The derived request inherits the base's mode: a KNN duplicate
        // is always exact (its key carries no epsilon to shrink), an
        // R×S half-radius one re-executes (subsumption is Self-only).
        const ServeRequest& base = reqs[rng() % reqs.size()];
        r.variant = kVariants[rng() % kVariants.size()];
        r.mode = base.mode;
        r.knn_k = base.knn_k;
        r.epsilon = base.mode == "knn"           ? 0.0
                    : rng() % 2 == 0             ? base.epsilon
                                                 : base.epsilon * 0.5;
        r.jr.priority = 0;
      } else {
        r.variant = kVariants[rng() % kVariants.size()];
        r.epsilon = kEpsilons[rng() % kEpsilons.size()];
        r.jr.priority = static_cast<int>(rng() % 3);
        const double roll = static_cast<double>(rng() % 1000) / 1000.0;
        if (roll < rxs_fraction) {
          r.mode = "rxs";
        } else if (roll < rxs_fraction + knn_fraction) {
          r.mode = "knn";
          r.epsilon = 0.0;  // KNN derives its own widening schedule
          r.knn_k = static_cast<int>(1 + rng() % 8);
        }
        if (rng() % 8 == 0) {
          r.cancel_after_ms = static_cast<double>(rng() % 20);
        }
      }
      reqs.push_back(std::move(r));
    }
  }
  GSJ_CHECK_MSG(!reqs.empty(), "no requests to serve");

  // Probe dataset for R×S/KNN requests: seeded uniform points over the
  // served dataset's bounding box (dims always match whatever --input
  // was). cfg.probe points here, so it outlives the service below.
  gsj::Dataset probe(ds.dims());
  const bool needs_probe =
      std::any_of(reqs.begin(), reqs.end(),
                  [](const ServeRequest& r) { return r.mode != "self"; });
  if (needs_probe) {
    GSJ_CHECK_MSG(!ds.empty(), "rxs/knn requests need a non-empty dataset");
    const std::size_t np =
        probe_n > 0 ? probe_n : std::max<std::size_t>(1, ds.size() / 8);
    gsj::Xoshiro256 prng(seed * 0x9e3779b97f4a7c15ULL + 2);
    const std::vector<double> lo = ds.min_corner();
    const std::vector<double> hi = ds.max_corner();
    std::vector<double> p(static_cast<std::size_t>(ds.dims()));
    probe.reserve(np);
    for (std::size_t i = 0; i < np; ++i) {
      for (int d = 0; d < ds.dims(); ++d) {
        const auto s = static_cast<std::size_t>(d);
        p[s] = prng.uniform(lo[s], hi[s]);
      }
      probe.push_back(p);
    }
  }

  // Resolve each request's join configuration.
  std::vector<gsj::SelfJoinConfig> cfgs(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ServeRequest& r = reqs[i];
    GSJ_CHECK_MSG(make_gpu_config(r.variant, r.epsilon, cfgs[i]),
                  "unknown variant: " << r.variant);
    if (r.mode == "rxs") {
      cfgs[i].mode = gsj::JoinMode::RxS;
      cfgs[i].probe = &probe;
    } else if (r.mode == "knn") {
      cfgs[i].mode = gsj::JoinMode::Knn;
      cfgs[i].probe = &probe;
      cfgs[i].knn_k = r.knn_k;
    }
    if (r.k > 0) cfgs[i].k = r.k;
    if (sms > 0) cfgs[i].device.num_sms = sms;
    cfgs[i].device.host.num_threads = host_threads;
    cfgs[i].batching = batching;
    cfgs[i].fleet = fleet;
    cfgs[i].store_pairs = verify;  // pair-level comparison needs pairs
    cfgs[i].collect_diagnostics = false;
    r.jr.config = cfgs[i];
  }

  gsj::obs::Registry metrics;
  gsj::ServiceConfig scfg;
  scfg.workers = workers;
  scfg.max_queue_depth = queue_depth;
  scfg.max_cached_grids = max_cached_grids;
  scfg.obs.metrics = &metrics;
  gsj::JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  // Churn-mode bookkeeping, reported in the "churn" JSON section.
  std::vector<double> repair_secs, rebuild_secs;
  std::uint64_t churn_mutations = 0;
  std::size_t digest_checks = 0, digest_mismatches = 0;
  std::size_t delta_checks = 0, delta_mismatches = 0;
  std::size_t churn_verified = 0;

  gsj::Timer wall;
  std::vector<gsj::JoinResponse> responses;
  if (churn_rate > 0.0) {
    // Responses land at their request's index so the per-request report
    // below stays aligned with reqs/cfgs.
    responses.resize(reqs.size());
    // Epoch loop: the dataset mutates only while no request is in
    // flight (the service's mutation contract), so each wave of
    // requests is collected before the next seeded churn batch.
    gsj::Xoshiro256 churn_rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const std::vector<double> lo = ds.min_corner();
    const std::vector<double> hi = ds.max_corner();
    std::vector<double> p(static_cast<std::size_t>(ds.dims()));
    const auto mutate_one = [&] {
      const auto op = churn_rng.uniform_index(3);
      if (op == 0) {
        for (int d = 0; d < ds.dims(); ++d) {
          const auto s = static_cast<std::size_t>(d);
          p[s] = churn_rng.uniform(lo[s], hi[s]);
        }
        (void)ds.insert(p);
      } else if (op == 1 && ds.size() > 1) {
        ds.erase(
            static_cast<gsj::PointId>(churn_rng.uniform_index(ds.size())));
      } else {
        const auto i =
            static_cast<gsj::PointId>(churn_rng.uniform_index(ds.size()));
        for (int d = 0; d < ds.dims(); ++d) {
          const auto s = static_cast<std::size_t>(d);
          p[s] = churn_rng.uniform(lo[s], hi[s]);
        }
        ds.move_point(i, p);
      }
    };
    // The repair-vs-rebuild measurement rides a standing warm engine at
    // the smallest requested radius (the densest grid, the worst case
    // for a full rebuild).
    // KNN requests carry no epsilon (the widening schedule replaces
    // it); only epsilon-bearing requests can seed the delta radius.
    double delta_eps = 0.0;
    for (const auto& r : reqs) {
      if (r.epsilon <= 0.0) continue;
      delta_eps = delta_eps == 0.0 ? r.epsilon
                                   : std::min(delta_eps, r.epsilon);
    }
    if (delta_eps == 0.0) delta_eps = 0.01;
    gsj::SelfJoinConfig delta_cfg = gsj::SelfJoinConfig::combined(delta_eps);
    delta_cfg.store_pairs = true;
    gsj::JoinEngine delta_engine;
    gsj::PreparedDataset delta_prep = delta_engine.prepare(ds);
    // --verify tracks the pair set the deltas imply: seeded from the
    // warm run, advanced by each epoch's delta and compared with that
    // epoch's cold re-join.
    std::vector<gsj::ResultPair> retained;
    {
      gsj::SelfJoinOutput warm = delta_engine.run(delta_prep, delta_cfg);
      if (verify) retained = warm.results.pairs();
    }

    for (int epoch = 0; epoch < churn_epochs; ++epoch) {
      if (epoch > 0) {
        const auto batch = std::max<std::size_t>(
            1, static_cast<std::size_t>(churn_rate *
                                        static_cast<double>(ds.size())));
        const std::uint64_t base_gen = ds.generation();
        for (std::size_t m = 0; m < batch; ++m) mutate_one();
        churn_mutations += batch;
        // Incremental path: repair the cached plan and compute the
        // exact pair delta across the batch.
        gsj::Timer repair_t;
        const auto delta =
            delta_engine.delta_join(delta_prep, delta_eps, base_gen);
        if (delta.has_value()) repair_secs.push_back(repair_t.seconds());
        // From-scratch path: cold engine, full grid build + full join.
        gsj::Timer rebuild_t;
        gsj::JoinEngine cold;
        const gsj::SelfJoinOutput rejoin = cold.self_join(ds, delta_cfg);
        rebuild_secs.push_back(rebuild_t.seconds());
        if (verify) {
          const auto& now = rejoin.results.pairs();
          if (delta.has_value()) {
            retained = gsj::apply_pair_delta(retained, *delta);
            ++delta_checks;
            if (retained != now) ++delta_mismatches;
          } else {
            retained = now;  // lost window: re-seed from the re-join
          }
        }
      }
      // This epoch's request wave (round-robin split of the list).
      std::vector<std::size_t> wave;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (i % static_cast<std::size_t>(churn_epochs) ==
            static_cast<std::size_t>(epoch)) {
          wave.push_back(i);
        }
      }
      std::vector<gsj::JoinService::Ticket> wave_tickets;
      wave_tickets.reserve(wave.size());
      for (const std::size_t i : wave) {
        wave_tickets.push_back(svc.submit(sd, reqs[i].jr));
      }
      for (std::size_t w = 0; w < wave.size(); ++w) {
        gsj::JoinResponse r = wave_tickets[w].get();
        if (verify && r.status == gsj::JoinStatus::Ok) {
          // The oracle must see the dataset state this wave ran
          // against, so the replay happens before the next churn.
          gsj::JoinEngine cold;
          const auto ref = cold.self_join(ds, cfgs[wave[w]]);
          GSJ_CHECK_MSG(
              r.output.stats.result_pairs == ref.stats.result_pairs &&
                  r.output.results.pairs() == ref.results.pairs(),
              "epoch " << epoch << " request " << wave[w]
                       << ": differs from cold replay after churn");
          ++churn_verified;
        }
        responses[wave[w]] = std::move(r);
      }
      // Digest parity: every cached grid must be bit-identical to a
      // from-scratch build over the current dataset.
      for (const auto& g : sd->cached_grid_digests()) {
        ++digest_checks;
        if (g.content_key != gsj::GridIndex(ds, g.epsilon).content_key()) {
          ++digest_mismatches;
        }
      }
    }
    GSJ_CHECK_MSG(digest_mismatches == 0,
                  digest_mismatches
                      << " cached grid digest(s) diverged from a "
                         "from-scratch rebuild");
    GSJ_CHECK_MSG(delta_mismatches == 0,
                  delta_mismatches
                      << " epoch(s) where the pairs advanced by the delta "
                         "differ from the cold re-join");
  } else {
    responses.reserve(reqs.size());
    std::vector<gsj::JoinService::Ticket> tickets;
    tickets.reserve(reqs.size());
    for (auto& r : reqs) tickets.push_back(svc.submit(sd, r.jr));

    // Fire the scheduled cancellations in time order.
    std::vector<std::pair<double, std::size_t>> cancels;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].cancel_after_ms >= 0.0) {
        cancels.emplace_back(reqs[i].cancel_after_ms, i);
      }
    }
    std::sort(cancels.begin(), cancels.end());
    for (const auto& [ms, idx] : cancels) {
      const double remaining = ms - wall.seconds() * 1e3;
      if (remaining > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            remaining));
      }
      tickets[idx].cancel();
    }

    for (auto& t : tickets) responses.push_back(t.get());
  }
  const double total_wall = wall.seconds();

  std::size_t n_ok = 0, n_rejected = 0, n_expired = 0, n_cancelled = 0,
              n_failed = 0;
  std::size_t n_result_hits = 0, n_coalesced = 0, n_subsumed = 0;
  std::uint64_t knn_grid_hits = 0, knn_grid_misses = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const auto& r = responses[i];
    switch (r.status) {
      case gsj::JoinStatus::Ok: ++n_ok; break;
      case gsj::JoinStatus::Rejected: ++n_rejected; break;
      case gsj::JoinStatus::Expired: ++n_expired; break;
      case gsj::JoinStatus::Cancelled: ++n_cancelled; break;
      case gsj::JoinStatus::Failed: ++n_failed; break;
    }
    if (r.status != gsj::JoinStatus::Ok) continue;
    if (reqs[i].mode == "knn") {
      // Grid-cache traffic of the widening rounds: the per-eps LRU is
      // what makes repeat KNN schedules affordable (docs/JOINS.md).
      knn_grid_hits += r.breakdown.grid_hits;
      knn_grid_misses += r.breakdown.grid_misses;
    }
    switch (r.breakdown.served_from) {
      case gsj::obs::ServedFrom::Execution: break;
      case gsj::obs::ServedFrom::ResultCache: ++n_result_hits; break;
      case gsj::obs::ServedFrom::Coalesced: ++n_coalesced; break;
      case gsj::obs::ServedFrom::Subsumed: ++n_subsumed; break;
    }
  }
  const double knn_grid_hit_ratio =
      knn_grid_hits + knn_grid_misses > 0
          ? static_cast<double>(knn_grid_hits) /
                static_cast<double>(knn_grid_hits + knn_grid_misses)
          : 0.0;
  const std::size_t n_served = n_result_hits + n_coalesced + n_subsumed;
  const double served_ratio =
      n_ok > 0 ? static_cast<double>(n_served) / static_cast<double>(n_ok)
               : 0.0;

  // --- serial cold-engine replay: the service's correctness bar.
  // Pairs must be bit-identical for EVERY Ok response, however it was
  // served (execution, exact hit, coalesced, subsumed). Execution-shape
  // stats only exist for responses that actually ran (a served answer
  // carries the primary's stats, or filter-only stats for subsumption),
  // so the stats clause applies to executed responses alone. ---
  std::size_t verified = churn_verified;
  if (verify && churn_rate == 0.0) {
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (responses[i].status != gsj::JoinStatus::Ok) continue;
      gsj::JoinEngine cold;  // fresh caches per request: truly cold
      const auto ref = cold.self_join(ds, cfgs[i]);
      const auto& got = responses[i].output;
      GSJ_CHECK_MSG(got.stats.result_pairs == ref.stats.result_pairs,
                    "request " << i << " (" << reqs[i].variant << " eps="
                               << reqs[i].epsilon
                               << "): pair count differs from cold replay");
      if (responses[i].breakdown.served_from ==
          gsj::obs::ServedFrom::Execution) {
        GSJ_CHECK_MSG(got.stats.num_batches == ref.stats.num_batches &&
                          got.stats.kernel_seconds == ref.stats.kernel_seconds,
                      "request " << i << " (" << reqs[i].variant << " eps="
                                 << reqs[i].epsilon
                                 << "): stats differ from cold replay");
      }
      const auto& gp = got.results.pairs();
      const auto& rp = ref.results.pairs();
      GSJ_CHECK_MSG(gp.size() == rp.size() &&
                        std::equal(gp.begin(), gp.end(), rp.begin()),
                    "request " << i << " (" << reqs[i].variant << " eps="
                               << reqs[i].epsilon
                               << "): pairs differ from cold replay");
      ++verified;
    }
  }

  // Exact (offline-sorted) latency quantiles per status — unlike the
  // registry's HDR sketches these carry no quantization error, so the
  // JSON summary is stable input for scripts/bench_compare.py.
  struct LatBucket {
    std::vector<double> wait, service;
  };
  std::map<std::string, LatBucket> by_status;
  std::vector<double> wait_all, service_all, kernel_ok;
  std::uint64_t ok_pairs = 0;
  for (const auto& r : responses) {
    LatBucket& b = by_status[gsj::to_string(r.status)];
    b.wait.push_back(r.wait_seconds);
    b.service.push_back(r.service_seconds);
    wait_all.push_back(r.wait_seconds);
    service_all.push_back(r.service_seconds);
    if (r.status == gsj::JoinStatus::Ok) {
      // Kernel time is an execution property; served responses carry
      // no kernel work of their own and would skew the quantile to 0.
      if (r.breakdown.served_from == gsj::obs::ServedFrom::Execution) {
        kernel_ok.push_back(r.output.stats.kernel_seconds);
      }
      ok_pairs += r.output.stats.result_pairs;
    }
  }
  const auto quantile = [](std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
  };
  const gsj::ServiceSnapshot snap = svc.snapshot();
  const std::uint64_t cache_hits = metrics.counter("sj.cache.hits").value();
  const std::uint64_t cache_misses =
      metrics.counter("sj.cache.misses").value();
  const double hit_ratio =
      cache_hits + cache_misses > 0
          ? static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses)
          : 0.0;

  std::cout << "served " << responses.size() << " requests in " << total_wall
            << " s on " << workers << " workers: " << n_ok << " ok, "
            << n_rejected << " rejected, " << n_expired << " expired, "
            << n_cancelled << " cancelled, " << n_failed << " failed\n"
            << "queue wait p50/p95: " << quantile(wait_all, 50) * 1e3 << "/"
            << quantile(wait_all, 95) * 1e3 << " ms, service p50/p95: "
            << quantile(service_all, 50) * 1e3 << "/"
            << quantile(service_all, 95) * 1e3 << " ms\n"
            << "cache: " << cache_hits << " hits, " << cache_misses
            << " misses (ratio " << hit_ratio << ")\n"
            << "result cache: " << n_result_hits << " hits, " << n_coalesced
            << " coalesced, " << n_subsumed << " subsumed ("
            << served_ratio * 100.0 << "% of ok served without executing)\n";
  if (knn_grid_hits + knn_grid_misses > 0) {
    std::cout << "knn: grid cache " << knn_grid_hits << " hits / "
              << knn_grid_misses << " misses over widening rounds (ratio "
              << knn_grid_hit_ratio << ")\n";
  }
  const double repair_p50 = quantile(repair_secs, 50);
  const double rebuild_p50 = quantile(rebuild_secs, 50);
  const double repair_speedup =
      repair_p50 > 0.0 ? rebuild_p50 / repair_p50 : 0.0;
  if (churn_rate > 0.0) {
    std::cout << "churn: " << churn_mutations << " mutations over "
              << churn_epochs << " epochs (rate " << churn_rate << "), "
              << metrics.counter("sj.incr.repairs").value()
              << " incremental repairs ("
              << metrics.counter("sj.incr.repaired_cells").value()
              << " cells), "
              << metrics.counter("sj.incr.plan_patches").value()
              << " plan patches, "
              << metrics.counter("sj.incr.rebuild_fallbacks").value()
              << " rebuild fallbacks\n"
              << "churn: digest parity " << digest_checks << "/"
              << digest_checks << " cached grids, delta parity "
              << delta_checks << "/" << delta_checks
              << " epochs, repair+delta p50 "
              << repair_p50 * 1e3 << " ms vs rebuild+rejoin p50 "
              << rebuild_p50 * 1e3 << " ms (speedup " << repair_speedup
              << "x)\n";
  }
  if (fleet.active()) {
    std::cout << "fleet: " << snap.fleet_runs << " run(s) across "
              << snap.fleet_devices.size() << " devices, "
              << snap.fleet_rebalances << " rebalances, last device CoV "
              << snap.fleet_device_cov << ", last imbalance "
              << snap.fleet_imbalance << "\n";
    for (const auto& d : snap.fleet_devices) {
      std::cout << "  device " << d.device << ": " << d.grains
                << " grain(s), busy " << d.busy_seconds << " s, tail idle "
                << d.tail_idle_seconds << " s\n";
    }
  }
  if (verify) {
    std::cout << "verify: " << verified
              << " completed request(s) bit-identical to serial cold-engine "
                 "replay\n";
  }

  if (!out_path.empty()) {
    std::ofstream f(out_path);
    GSJ_CHECK_MSG(f.good(), "cannot open " << out_path);
    f.precision(17);
    f << "{\n  \"dataset\": {\"n\": " << ds.size()
      << ", \"dims\": " << ds.dims() << "},\n  \"workers\": " << workers
      << ",\n  \"host_threads\": " << host_threads
      << ",\n  \"requests\": [\n";
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const auto& r = responses[i];
      f << "    {\"request_id\": " << r.request_id << ", \"mode\": \""
        << reqs[i].mode << "\", \"epsilon\": "
        << reqs[i].epsilon << ", \"variant\": \"" << reqs[i].variant
        << "\", \"priority\": " << reqs[i].jr.priority
        << ", \"status\": \"" << gsj::to_string(r.status)
        << "\", \"served_from\": \""
        << gsj::obs::to_string(r.breakdown.served_from)
        << "\", \"pairs\": " << r.output.stats.result_pairs
        << ", \"wait_seconds\": " << r.wait_seconds
        << ", \"service_seconds\": " << r.service_seconds << "}"
        << (i + 1 < responses.size() ? "," : "") << "\n";
    }
    const auto lat_fields = [&](std::ostream& os, const LatBucket& b) {
      os << "\"count\": " << b.wait.size()
         << ", \"wait_seconds_p50\": " << quantile(b.wait, 50)
         << ", \"wait_seconds_p95\": " << quantile(b.wait, 95)
         << ", \"wait_seconds_p99\": " << quantile(b.wait, 99)
         << ", \"service_seconds_p50\": " << quantile(b.service, 50)
         << ", \"service_seconds_p95\": " << quantile(b.service, 95)
         << ", \"service_seconds_p99\": " << quantile(b.service, 99);
    };
    f << "  ],\n  \"summary\": {\"wall_seconds\": " << total_wall
      << ", \"ok\": " << n_ok << ", \"rejected\": " << n_rejected
      << ", \"expired\": " << n_expired << ", \"cancelled\": " << n_cancelled
      << ", \"failed\": " << n_failed << ", \"verified\": " << verified
      << ", \"result_hits\": " << n_result_hits
      << ", \"coalesced\": " << n_coalesced
      << ", \"subsumed\": " << n_subsumed
      << ", \"served_from_cache_ratio\": " << served_ratio
      << ", \"pairs_per_second\": "
      << (total_wall > 0.0 ? static_cast<double>(ok_pairs) / total_wall : 0.0)
      << ", \"cache_hit_ratio\": " << hit_ratio
      << ", \"knn_grid_cache_hit_ratio\": " << knn_grid_hit_ratio
      << ", \"knn_grid_hits\": " << knn_grid_hits
      << ", \"knn_grid_misses\": " << knn_grid_misses
      << ", \"device_makespan_imbalance\": " << snap.fleet_imbalance
      << ", \"fleet_rebalances\": " << snap.fleet_rebalances
      << ", \"kernel_seconds_p50\": " << quantile(kernel_ok, 50)
      << ", \"wait_seconds_p50\": " << quantile(wait_all, 50)
      << ", \"wait_seconds_p95\": " << quantile(wait_all, 95)
      << ", \"wait_seconds_p99\": " << quantile(wait_all, 99)
      << ", \"service_seconds_p50\": " << quantile(service_all, 50)
      << ", \"service_seconds_p95\": " << quantile(service_all, 95)
      << ", \"service_seconds_p99\": " << quantile(service_all, 99)
      << "},\n  \"latency_by_status\": {";
    bool first_status = true;
    for (const auto& [status, bucket] : by_status) {
      f << (first_status ? "\n" : ",\n") << "    \"" << status << "\": {";
      lat_fields(f, bucket);
      f << "}";
      first_status = false;
    }
    f << "\n  },\n  \"fleet\": {\"runs\": " << snap.fleet_runs
      << ", \"devices\": " << snap.fleet_devices.size()
      << ", \"rebalances\": " << snap.fleet_rebalances
      << ", \"device_cov\": " << snap.fleet_device_cov
      << ", \"imbalance\": " << snap.fleet_imbalance
      << ", \"per_device\": [";
    for (std::size_t i = 0; i < snap.fleet_devices.size(); ++i) {
      const auto& d = snap.fleet_devices[i];
      f << (i > 0 ? ", " : "") << "{\"device\": " << d.device
        << ", \"grains\": " << d.grains
        << ", \"busy_seconds\": " << d.busy_seconds
        << ", \"tail_idle_seconds\": " << d.tail_idle_seconds << "}";
    }
    f << "]},\n  \"cache\": {\"hits\": " << cache_hits << ", \"misses\": "
      << cache_misses << ", \"hit_ratio\": " << hit_ratio
      << ", \"evictions\": "
      << metrics.counter("sj.cache.evictions").value()
      << "},\n  \"result_cache\": {\"hits\": "
      << metrics.counter("svc.result_cache.hits").value()
      << ", \"misses\": " << metrics.counter("svc.result_cache.misses").value()
      << ", \"coalesced\": "
      << metrics.counter("svc.result_cache.coalesced").value()
      << ", \"subsumed\": "
      << metrics.counter("svc.result_cache.subsumed").value()
      << ", \"evictions\": "
      << metrics.counter("svc.result_cache.evictions").value()
      << ", \"bytes\": "
      << static_cast<std::uint64_t>(
             metrics.gauge("svc.result_cache.bytes").value())
      << "},\n  \"churn\": {\"rate\": " << churn_rate
      << ", \"epochs\": " << (churn_rate > 0.0 ? churn_epochs : 0)
      << ", \"mutations\": " << churn_mutations
      << ", \"incr_repairs\": "
      << metrics.counter("sj.incr.repairs").value()
      << ", \"repaired_cells\": "
      << metrics.counter("sj.incr.repaired_cells").value()
      << ", \"plan_patches\": "
      << metrics.counter("sj.incr.plan_patches").value()
      << ", \"rebuild_fallbacks\": "
      << metrics.counter("sj.incr.rebuild_fallbacks").value()
      << ", \"result_repair_kept\": "
      << metrics.counter("svc.result_cache.repair_kept").value()
      << ", \"digest_checks\": " << digest_checks
      << ", \"digest_mismatches\": " << digest_mismatches
      << ", \"delta_checks\": " << delta_checks
      << ", \"delta_mismatches\": " << delta_mismatches
      << ", \"repair_seconds_p50\": " << repair_p50
      << ", \"rebuild_seconds_p50\": " << rebuild_p50
      << ", \"repair_vs_rebuild_speedup\": " << repair_speedup
      << "}\n}\n";
    std::cout << "report: " << out_path << "\n";
  }
  return n_failed == 0 ? 0 : 1;
}

int cmd_top(gsj::Cli& cli) {
  const DatasetFlags data = dataset_flags(cli);
  const std::uint64_t seed = seed_flag(cli);

  const int stress = static_cast<int>(
      cli.get_int("stress", 48, 1, kMaxInt,
                  "seeded random requests to drive the service with"));
  const auto workers = static_cast<std::size_t>(
      cli.get_int("workers", 4, 1, kMaxThreads, "service worker threads"));
  const int interval_ms = static_cast<int>(
      cli.get_int("interval-ms", 100, 1, kMaxInt, "snapshot interval"));
  const int sms = static_cast<int>(
      cli.get_int("sms", 0, 0, kMaxInt, "modeled SMs (0 = default)"));
  const int host_threads = host_threads_flag(cli);
  gsj::simt::DeviceConfig base_device;
  if (sms > 0) base_device.num_sms = sms;
  base_device.host.num_threads = host_threads;
  const gsj::simt::FleetConfig fleet = parse_fleet_flags(cli, base_device);
  reject_unknown_flags(cli);
  gsj::Dataset ds = data.load();

  // The serve --stress mix (without scheduled cancellations): every
  // variant, a few epsilons, three priority classes.
  const std::vector<std::string> kVariants = {
      "gpucalcglobal", "unicomp", "lidunicomp",
      "sortbywl",      "workqueue", "combined"};
  const std::vector<double> kEpsilons = {0.01, 0.02, 0.04};
  std::mt19937_64 rng(seed);
  std::vector<gsj::JoinRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(stress));
  for (int i = 0; i < stress; ++i) {
    gsj::JoinRequest jr;
    const std::string variant = kVariants[rng() % kVariants.size()];
    GSJ_CHECK_MSG(
        make_gpu_config(variant, kEpsilons[rng() % kEpsilons.size()],
                        jr.config),
        "unknown variant: " << variant);
    jr.priority = static_cast<int>(rng() % 3);
    if (sms > 0) jr.config.device.num_sms = sms;
    jr.config.device.host.num_threads = host_threads;
    jr.config.fleet = fleet;
    jr.config.store_pairs = false;
    jr.config.collect_diagnostics = false;
    reqs.push_back(std::move(jr));
  }

  gsj::obs::Registry metrics;
  gsj::ServiceConfig scfg;
  scfg.workers = workers;
  scfg.obs.metrics = &metrics;
  gsj::JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  gsj::Timer wall;
  std::vector<gsj::JoinService::Ticket> tickets;
  tickets.reserve(reqs.size());
  for (auto& jr : reqs) tickets.push_back(svc.submit(sd, jr));

  std::atomic<std::size_t> done{0};
  std::thread waiter([&] {
    for (auto& t : tickets) {
      (void)t.get();
      done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::cout << "    t_ms  queue  inflight  oldest_ms  arenas  pools  grids"
               "  plans  cache_kb  rc_ent  rc_kb/budget     done\n";
  const auto print_row = [&] {
    const gsj::ServiceSnapshot s = svc.snapshot();
    double oldest = 0.0;
    for (const auto& f : s.in_flight) {
      oldest = std::max(oldest, f.age_seconds);
    }
    std::printf("%8.0f  %5zu  %8zu  %9.1f  %6zu  %5zu  %5zu  %5zu  %8zu"
                "  %6zu  %5zu/%-6zu  %3zu/%-3zu\n",
                wall.seconds() * 1e3, s.queue_depth, s.in_flight.size(),
                oldest * 1e3, s.idle_arenas, s.idle_thread_pools,
                s.cached_grids, s.cached_plans, s.cached_bytes / 1024,
                s.result_entries, s.result_bytes / 1024,
                s.result_budget_bytes / 1024,
                done.load(std::memory_order_relaxed), tickets.size());
    std::fflush(stdout);
  };
  while (done.load(std::memory_order_relaxed) < tickets.size()) {
    print_row();
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  waiter.join();
  print_row();
  std::cout << "served " << tickets.size() << " requests in "
            << wall.seconds() << " s on " << workers << " workers; cache "
            << metrics.counter("sj.cache.hits").value() << " hits / "
            << metrics.counter("sj.cache.misses").value() << " misses; "
            << "result cache "
            << metrics.counter("svc.result_cache.hits").value() << " hits / "
            << metrics.counter("svc.result_cache.coalesced").value()
            << " coalesced / "
            << metrics.counter("svc.result_cache.subsumed").value()
            << " subsumed / "
            << metrics.counter("svc.result_cache.misses").value()
            << " misses\n";
  if (fleet.active()) {
    const gsj::ServiceSnapshot s = svc.snapshot();
    std::cout << "fleet: " << s.fleet_runs << " run(s), "
              << s.fleet_rebalances << " rebalances, last device CoV "
              << s.fleet_device_cov << ", last imbalance "
              << s.fleet_imbalance << "\n";
    for (const auto& d : s.fleet_devices) {
      std::cout << "  device " << d.device << ": " << d.grains
                << " grain(s), busy " << d.busy_seconds << " s, tail idle "
                << d.tail_idle_seconds << " s\n";
    }
  }
  return 0;
}

int cmd_explain(gsj::Cli& cli) {
  const DatasetFlags data = dataset_flags(cli);

  const double eps = cli.get_double("epsilon", 0.0, "join radius");
  GSJ_CHECK_MSG(eps > 0.0, "--epsilon is required and must be > 0");
  const std::string variant =
      cli.get("variant", "combined", "join variant (see --help)");
  const bool logical =
      cli.get_bool("logical-time", false,
                   "deterministic logical host timestamps");
  const bool as_json = cli.get_bool("json", false, "emit JSON, not text");

  gsj::SelfJoinConfig cfg;
  if (!make_gpu_config(variant, eps, cfg)) {
    std::cerr << "unknown variant: " << variant << "\n";
    return usage();
  }
  cfg.k = static_cast<int>(
      cli.get_int("k", cfg.k, 1, kMaxInt, "threads per point"));
  const int sms = static_cast<int>(
      cli.get_int("sms", 0, 0, kMaxInt, "modeled SMs (0 = default)"));
  if (sms > 0) cfg.device.num_sms = sms;
  cfg.device.host.num_threads = host_threads_flag(cli);
  apply_batching_flags(cli, cfg.batching);
  cfg.store_pairs = false;
  reject_unknown_flags(cli);
  gsj::Dataset ds = data.load();

  gsj::obs::Tracer tracer(logical ? gsj::obs::TimeMode::Logical
                                  : gsj::obs::TimeMode::Wall);
  gsj::obs::Registry metrics;
  gsj::obs::FlightRecorder recorder;
  gsj::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.obs.tracer = &tracer;
  scfg.obs.metrics = &metrics;
  scfg.obs.recorder = &recorder;
  gsj::JoinService svc(scfg);
  const auto sd = svc.attach(ds);

  gsj::JoinRequest jr;
  jr.config = cfg;
  gsj::JoinResponse resp = svc.submit(sd, jr).get();

  // Reassemble this request's span tree from the service tracer.
  const std::vector<gsj::obs::HostSpan> spans = tracer.host_spans();
  std::vector<const gsj::obs::HostSpan*> mine;
  for (const auto& s : spans) {
    if (s.request == resp.request_id) mine.push_back(&s);
  }
  std::map<std::uint64_t, std::vector<const gsj::obs::HostSpan*>> children;
  const gsj::obs::HostSpan* root = nullptr;
  for (const auto* s : mine) {
    if (s->parent == 0) {
      root = s;
    } else {
      children[s->parent].push_back(s);
    }
  }
  for (auto& [parent, kids] : children) {
    std::sort(kids.begin(), kids.end(), [](const auto* a, const auto* b) {
      return a->ts != b->ts ? a->ts < b->ts : a->id < b->id;
    });
  }
  const char* unit = logical ? "ticks" : "us";
  const auto& b = resp.breakdown;

  if (as_json) {
    std::cout.precision(17);
    const std::function<void(const gsj::obs::HostSpan*, int)> emit =
        [&](const gsj::obs::HostSpan* s, int depth) {
          const std::string pad(static_cast<std::size_t>(depth) * 2 + 2, ' ');
          std::cout << pad << "{\"name\": \"" << s->name << "\", \"ts\": "
                    << s->ts << ", \"dur\": " << s->dur
                    << ", \"children\": [";
          const auto it = children.find(s->id);
          if (it != children.end()) {
            for (std::size_t i = 0; i < it->second.size(); ++i) {
              std::cout << (i > 0 ? ",\n" : "\n");
              emit(it->second[i], depth + 1);
            }
            std::cout << "\n" << pad;
          }
          std::cout << "]}";
        };
    std::cout << "{\n\"request_id\": " << resp.request_id
              << ",\n\"status\": \"" << gsj::to_string(resp.status)
              << "\",\n\"time_unit\": \"" << unit
              << "\",\n\"breakdown\": {\"served_from\": \""
              << gsj::obs::to_string(b.served_from)
              << "\", \"wait_seconds\": " << b.wait_seconds
              << ", \"plan_seconds\": " << b.plan_seconds
              << ", \"execute_seconds\": " << b.execute_seconds
              << ", \"grid_hits\": " << b.grid_hits
              << ", \"grid_misses\": " << b.grid_misses
              << ", \"workload_hits\": " << b.workload_hits
              << ", \"workload_misses\": " << b.workload_misses
              << ", \"order_hits\": " << b.order_hits
              << ", \"order_misses\": " << b.order_misses
              << ", \"estimate_hits\": " << b.estimate_hits
              << ", \"estimate_misses\": " << b.estimate_misses
              << ", \"batches\": " << b.batches
              << ", \"overflow_retries\": " << b.overflow_retries
              << ", \"result_pairs\": " << b.result_pairs
              << "},\n\"span_tree\":\n";
    if (root != nullptr) {
      emit(root, 0);
    } else {
      std::cout << "  null";
    }
    std::cout << "\n}\n";
  } else {
    if (resp.status != gsj::JoinStatus::Ok) {
      std::cout << "request " << resp.request_id << ": "
                << gsj::to_string(resp.status)
                << (resp.error.empty() ? "" : " — " + resp.error) << "\n";
    }
    const std::function<void(const gsj::obs::HostSpan*, int)> emit =
        [&](const gsj::obs::HostSpan* s, int depth) {
          std::cout << std::string(static_cast<std::size_t>(depth) * 2, ' ')
                    << s->name;
          for (std::size_t n = s->name.size() +
                               static_cast<std::size_t>(depth) * 2;
               n < 24; ++n) {
            std::cout << ' ';
          }
          std::cout << " ts=" << s->ts << " dur=" << s->dur << " " << unit
                    << "\n";
          const auto it = children.find(s->id);
          if (it != children.end()) {
            for (const auto* c : it->second) emit(c, depth + 1);
          }
        };
    if (root != nullptr) {
      std::cout << "request " << resp.request_id << " ("
                << gsj::to_string(resp.status) << ") span tree:\n";
      emit(root, 0);
      std::uint64_t stage_dur = 0;
      if (const auto it = children.find(root->id); it != children.end()) {
        for (const auto* c : it->second) stage_dur += c->dur;
      }
      if (root->dur > 0) {
        std::cout << "span coverage: "
                  << 100.0 * static_cast<double>(stage_dur) /
                         static_cast<double>(root->dur)
                  << "% of the root covered by stage spans\n";
      }
    }
    std::cout << "breakdown: served from " << gsj::obs::to_string(b.served_from)
              << ", wait " << b.wait_seconds * 1e3 << " ms, plan "
              << b.plan_seconds * 1e3 << " ms, execute "
              << b.execute_seconds * 1e3 << " ms\n"
              << "cache: grid " << b.grid_hits << "h/" << b.grid_misses
              << "m, workload " << b.workload_hits << "h/"
              << b.workload_misses << "m, order " << b.order_hits << "h/"
              << b.order_misses << "m, estimate " << b.estimate_hits << "h/"
              << b.estimate_misses << "m\n"
              << "batches " << b.batches << ", overflow retries "
              << b.overflow_retries << ", pairs " << b.result_pairs << "\n";
  }
  return resp.status == gsj::JoinStatus::Ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  gsj::Cli cli(argc - 1, argv + 1);
  try {
    if (cmd == "generate") return cmd_generate(cli);
    if (cmd == "info") return cmd_info(cli);
    if (cmd == "join") return cmd_join(cli);
    if (cmd == "knn") return cmd_knn(cli);
    if (cmd == "dbscan") return cmd_dbscan(cli);
    if (cmd == "profile") return cmd_profile(cli);
    if (cmd == "sweep") return cmd_sweep(cli);
    if (cmd == "serve") return cmd_serve(cli);
    if (cmd == "top") return cmd_top(cli);
    if (cmd == "explain") return cmd_explain(cli);
  } catch (const gsj::OverflowError& e) {
    // Recoverable-in-principle resource failure: the message already
    // names the knobs to raise (docs/ROBUSTNESS.md). Distinct exit code
    // so scripts can retry with a larger buffer.
    std::cerr << "sjtool: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "sjtool: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
