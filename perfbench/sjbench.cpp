// sjbench — pinned host-wall benchmark of the similarity-join system.
//
// One process runs one seeded workload (perfbench/README.md says why
// each exists and defines every metric):
//
//   skew-2d    Expo2D2M n=12,500, eps=0.2. A rep is six cold public
//              self_join calls, one per paper variant, at 4 host
//              threads, then four concurrent sequential `combined` joins.
//   sparse-6d  Unif6D2M n=12,500, eps=8.0, same rep shape.
//   serve-mix  Expo2D2M n=5,000 plus 500 probe points behind a
//              JoinService with 4 workers; one client keeps 8 requests
//              outstanding (50% Self, 25% RxS, 25% KNN, 25% exact
//              repeats).
//   churn-2d   Four Expo2D2M n=12,500 datasets, eps=0.2, each on its own
//              JoinEngine. An epoch mutates 1% of every dataset, runs the
//              four delta_joins concurrently, then re-joins each dataset
//              at 4 host threads.
//
// Without --trace the run times the workload's operations through the
// public API and reports the end-to-end metrics in seconds at a fixed
// reference speed: a ClockGauge sampled between the operations tracks
// the host's speed, which drifts by up to 1.8x on shared hosts. With
// --trace it alternates those operations with the same work made
// through each layer's entry points under bench-owned spans, and
// reports per-layer metrics in wall seconds; nothing inside the library
// is instrumented for it. Every run checks its outputs. The last stdout
// line is one JSON object; a failed check makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "data/churn.hpp"
#include "data/dataset.hpp"
#include "grid/grid_index.hpp"
#include "grid/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/batching.hpp"
#include "sj/delta.hpp"
#include "sj/engine.hpp"
#include "sj/execute.hpp"
#include "sj/selfjoin.hpp"
#include "sj/service.hpp"
#include "superego/super_ego.hpp"

namespace {

using namespace gsj;

constexpr int kThreads = 4;     // busy threads: the machine's 4 CPUs
constexpr int kModeledSms = 8;  // the paper's GP100 shrunk with the data
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir;  ///< where --trace runs write W.trace.json
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sjbench: " << why << "\n"
            << "usage: sjbench --workload skew-2d|sparse-6d|serve-mix|churn-2d"
               " [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n"
               "       sjbench --smoke   (tiny inputs, every workload, both "
               "passes)\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    std::size_t used = v.size();
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v, &used);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v, &used);
      } else if (a == "--trace") {
        o.trace = std::stoi(v, &used) != 0;
      } else if (a == "--out") {
        o.out_dir = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::exception&) {
      usage("bad value for " + a + ": " + v);
    }
    if (used != v.size()) usage("bad value for " + a + ": " + v);
  }
  if (!o.smoke && o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// Input sizes and run lengths. A normal run measures for --seconds;
/// the smoke run makes a fixed, tiny amount of work instead.
struct Sizes {
  std::size_t join_n = 12'500;
  std::size_t serve_n = 5'000;
  std::size_t probe_n = 500;
  std::size_t churn_n = 12'500;
  int churn_per_epoch = 125;  ///< 1% of churn_n
  int setups = 9;             ///< setup_s is the median of this many
  /// serve-mix set-ups are short and bimodal (0.08 or 0.12 s on the
  /// sizing host), so their median needs more of them.
  int serve_setups = 25;
  std::size_t max_reps = SIZE_MAX;
  std::size_t max_requests = SIZE_MAX;
  std::size_t max_epochs = SIZE_MAX;
  std::size_t replay_requests = 16;  ///< serve-mix layered replays
};

Sizes smoke_sizes() {
  Sizes s;
  s.join_n = s.serve_n = s.churn_n = 2'000;
  s.probe_n = 200;
  s.churn_per_epoch = 20;
  s.setups = s.serve_setups = 1;
  s.max_reps = 1;
  s.max_requests = 50;
  s.max_epochs = 2;
  s.replay_requests = 4;
  return s;
}

// ------------------------------------------------------------ measurement

/// Linear-interpolated quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Runs `op` until `max_ops` ops ran or the next one would likely end
/// past `seconds` (judged by the slowest op so far); at least one op.
template <typename Op>
void timed_loop(double seconds, std::size_t max_ops, Op&& op) {
  const Timer phase;
  double slowest = 0.0;
  for (std::size_t i = 0; i < max_ops; ++i) {
    if (i > 0 && phase.seconds() + slowest > seconds) break;
    const Timer t;
    op(i);
    slowest = std::max(slowest, t.seconds());
  }
}

/// Measures how fast the CPUs this run is given are. On shared hosts
/// that speed drifts over minutes, by up to 1.8x between runs minutes
/// apart, with nothing inside the guest to show it: no steal time is
/// accounted and no cycle counter is exposed. Between the timed
/// operations the gauge runs a fixed, benchmark-owned kernel (a
/// brute-force ε histogram over 512 points, the arithmetic of a join's
/// scan) on kThreads threads at once, and each thread times its own
/// copy. The median of those times over the run reads the speed of a
/// typical CPU during the run. scale() converts the run's wall times to
/// seconds at the reference speed, at which the kernel takes kNominal
/// (about its time on an idle 4-vCPU Xeon guest). perfbench/README.md
/// gives the spreads this removes.
class ClockGauge {
 public:
  explicit ClockGauge(int threads)
      : times_(static_cast<std::size_t>(threads)) {}

  void sample() {
    {
      std::vector<std::jthread> workers;  // joined on every path out
      for (double& t : times_) {
        workers.emplace_back([&t] {
          const Timer own;
          kernel();
          t = own.seconds();
        });
      }
    }
    samples_.insert(samples_.end(), times_.begin(), times_.end());
  }

  [[nodiscard]] double scale() const {
    return samples_.empty() ? 1.0 : kNominal / median(samples_);
  }

 private:
  static constexpr double kNominal = 0.010;

  static void kernel() {
    static const std::vector<double> pts = [] {
      std::vector<double> p(2 * 512);
      std::uint64_t x = 0x9e3779b97f4a7c15ULL;
      for (double& v : p) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v = static_cast<double>(x >> 11) * 0x1.0p-53;
      }
      return p;
    }();
    static std::atomic<std::uint64_t> sink{0};
    const std::size_t n = pts.size() / 2;
    std::array<std::uint64_t, 4> hist{};
    for (int r = 0; r < 6; ++r) {
      const double grow = 1.0 + 1e-3 * r;  // each pass is new work
      const std::array<double, 3> eps2 = {0.01 * grow, 0.04 * grow,
                                          0.09 * grow};
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          const double dx = pts[2 * i] - pts[2 * j];
          const double dy = pts[2 * i + 1] - pts[2 * j + 1];
          ++hist[static_cast<std::size_t>(
              std::lower_bound(eps2.begin(), eps2.end(), dx * dx + dy * dy) -
              eps2.begin())];
        }
      }
    }
    sink += hist[0] + hist[1] + hist[2] + hist[3];
  }

  std::vector<double> times_;    ///< the last sample, one per thread
  std::vector<double> samples_;  ///< every thread's time of every sample
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted, failures (errored
/// operations plus failed checks), and its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< the run's JSON metrics
  std::vector<Metric> detail;   ///< more layer numbers (W.layers.json)

  void check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      std::cerr << "sjbench: check failed: " << what << "\n";
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The end-to-end metrics every workload reports without --trace, in
/// seconds at the gauge's reference speed; what the primary and
/// secondary operations are per workload is in the README.
void emit_e2e(Outcome& o, const ClockGauge& gauge,
              const std::vector<double>& setups,
              const std::vector<double>& primary,
              const std::vector<double>& secondary) {
  const double k = gauge.scale();
  o.add("setup_s", k * median(setups), "s");
  o.add("primary_s", k * median(primary), "s");
  o.add("secondary_s", k * median(secondary), "s");
  o.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::cout << std::setprecision(6) << "clock scale " << k
            << " (wall s: setup " << median(setups) << ", primary "
            << median(primary) << ", secondary " << median(secondary)
            << ")\n";
}

/// The per-layer metrics every workload reports with --trace. Layers a
/// workload does not exercise report 0 on their ratio and count metrics;
/// every seconds metric is measured on every workload.
struct LayerMetrics {
  double grid_s = 0, batching_s = 0, estimate_ratio = 0, execute_s = 0;
  double lane_steps_per_s = 0, pairs_per_s = 0, glue_s = 0;
  double artifact_hit_ratio = 0, trace_overhead_s = 0;
  double active_lane_steps = 0, makespan_cycles = 0, wee_pct = 0;
  double wait_share = 0, served_ratio = 0, delta_share = 0;
  double pairs_changed = 0, mutate_share = 0, repair_speedup = 0;
  double superego_ratio = 0;

  void emit(Outcome& o) const {
    o.add("grid.s", grid_s, "s");
    o.add("batching.s", batching_s, "s");
    o.add("batching.estimate_ratio", estimate_ratio, "ratio");
    o.add("execute.s", execute_s, "s");
    o.add("execute.lane_steps_per_s", lane_steps_per_s, "1/s");
    o.add("execute.pairs_per_s", pairs_per_s, "1/s");
    o.add("engine.glue_s", glue_s, "s");
    o.add("engine.artifact_hit_ratio", artifact_hit_ratio, "ratio");
    o.add("obs.trace_overhead_s", trace_overhead_s, "s");
    o.add("simt.active_lane_steps", active_lane_steps, "count");
    o.add("simt.makespan_cycles", makespan_cycles, "count");
    o.add("simt.wee_pct", wee_pct, "%");
    o.add("service.wait_share", wait_share, "ratio");
    o.add("service.served_ratio", served_ratio, "ratio");
    o.add("delta.share", delta_share, "ratio");
    o.add("delta.pairs_changed", pairs_changed, "count");
    o.add("data.mutate_share", mutate_share, "ratio");
    o.add("grid.repair_speedup", repair_speedup, "ratio");
    o.add("superego.ratio", superego_ratio, "ratio");
  }
};

// ------------------------------------------------------------------ spans

/// Per-name totals of the spans one traced operation recorded: summed
/// durations and summed self times (duration minus the part child spans
/// cover), in seconds.
struct SpanTotals {
  std::map<std::string, double> dur;
  std::map<std::string, double> self;

  [[nodiscard]] double self_of(const std::string& name) const {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double dur_of(const std::string& name) const {
    const auto it = dur.find(name);
    return it == dur.end() ? 0.0 : it->second;
  }
};

SpanTotals span_totals(const std::vector<obs::HostSpan>& spans,
                       std::uint64_t request) {
  std::map<std::uint64_t, std::uint64_t> child_us;
  for (const auto& s : spans) {
    if (s.request == request && s.parent != 0) child_us[s.parent] += s.dur;
  }
  SpanTotals t;
  for (const auto& s : spans) {
    if (s.request != request) continue;
    const auto it = child_us.find(s.id);
    const std::uint64_t covered = it == child_us.end() ? 0 : it->second;
    t.dur[s.name] += 1e-6 * static_cast<double>(s.dur);
    t.self[s.name] +=
        1e-6 * static_cast<double>(s.dur - std::min(covered, s.dur));
  }
  return t;
}

/// Layer span name, prefixed per join or dataset so that one traced
/// operation can hold several.
std::string layer(const std::string& prefix, const char* name) {
  return prefix.empty() ? name : prefix + "/" + name;
}

void write_trace(const Options& opt, const obs::Tracer& tr,
                 const Outcome& o) {
  if (opt.out_dir.empty()) return;
  std::filesystem::create_directories(opt.out_dir);
  const std::string base = opt.out_dir + "/" + opt.workload;
  {
    std::ofstream f(base + ".trace.json");
    tr.write_chrome_json(f);
  }
  std::ofstream f(base + ".layers.json");
  f << std::setprecision(17) << "{";
  const char* sep = "";
  for (const auto* list : {&o.metrics, &o.detail}) {
    for (const Metric& m : *list) {
      f << sep << "\n  \"" << m.name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
      sep = ",";
    }
  }
  f << "\n}\n";
  std::cout << "trace: " << base << ".trace.json, " << base
            << ".layers.json\n";
}

// ----------------------------------------------------------------- inputs

/// xoshiro256** seeded through SplitMix64. The benchmark owns its input
/// generator so that no change to the library can move the inputs; with
/// the same seed it reproduces the bench harness's load_dataset points.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& s : s_) {
      std::uint64_t z = (seed += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t r = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return r;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// A Table I synthetic set scaled to `density_n` points while keeping
/// the paper's per-cell occupancy at the paper's epsilons
/// (EXPERIMENTS.md): the uniform domain, or the exponential scale,
/// shrinks by (density_n / 2,000,000)^(1/dims).
struct PointSource {
  int dims = 2;
  bool expo = true;
  double param = 0.0;  ///< exponential rate, or uniform domain width

  PointSource(int d, bool exponential, std::size_t density_n)
      : dims(d), expo(exponential) {
    const double shrink = std::pow(static_cast<double>(density_n) / 2e6,
                                   1.0 / static_cast<double>(d));
    param = expo ? 0.4 / shrink : 100.0 * shrink;
  }

  double sample(Rng& rng) const {
    if (!expo) return param * rng.uniform();
    double x = 0.0;
    do {
      x = -std::log1p(-rng.uniform()) / param;
    } while (x >= 100.0);
    return x;
  }

  /// `n` points, one dimension after another.
  Dataset make(std::size_t n, std::uint64_t seed) const {
    Rng rng(seed);
    Dataset ds(dims, n);
    for (int d = 0; d < dims; ++d) {
      for (double& x : ds.fill_dim(d)) x = sample(rng);
    }
    return ds;
  }
};

// --------------------------------------------------------------- variants

struct Variant {
  const char* name;
  SelfJoinConfig (*make)(double);
};

const std::array<Variant, 6> kVariants = {{
    {"gpucalcglobal", &SelfJoinConfig::gpu_calc_global},
    {"unicomp", &SelfJoinConfig::unicomp},
    {"lid_unicomp", &SelfJoinConfig::lid_unicomp},
    {"sortbywl", &SelfJoinConfig::sort_by_wl},
    {"workqueue", [](double e) { return SelfJoinConfig::work_queue_cfg(e); }},
    {"combined", &SelfJoinConfig::combined},
}};
const Variant& kCombined = kVariants[5];

SelfJoinConfig join_cfg(const Variant& v, double eps, int threads) {
  SelfJoinConfig c = v.make(eps);
  c.device.num_sms = kModeledSms;
  c.device.host.num_threads = threads;
  c.store_pairs = false;
  return c;
}

/// Modeled quantities of a join that must repeat exactly.
bool same_model(const simt::KernelStats& a, const simt::KernelStats& b) {
  return a.launches == b.launches && a.warps_launched == b.warps_launched &&
         a.warp_steps == b.warp_steps &&
         a.active_lane_steps == b.active_lane_steps &&
         a.busy_cycles == b.busy_cycles &&
         a.makespan_cycles == b.makespan_cycles &&
         a.tail_idle_cycles == b.tail_idle_cycles &&
         a.atomics_executed == b.atomics_executed &&
         a.results_emitted == b.results_emitted;
}

double wee_pct(std::uint64_t active, std::uint64_t steps) {
  const int warp = SelfJoinConfig{}.device.warp_size;
  return steps == 0 ? 0.0
                    : 100.0 * static_cast<double>(active) /
                          (static_cast<double>(steps) * warp);
}

/// Runs the estimate, plan and execute calls of a Self join on a
/// resolved grid, workloads and D' (empty unless the variant uses
/// them), each under a bench span, as sj/pipeline.hpp calls them.
SelfJoinOutput plan_and_run(const GridIndex& grid, const SelfJoinConfig& cfg,
                            std::span<const std::uint64_t> pw,
                            std::span<const PointId> order, ThreadPool* p,
                            detail::ScratchArena& arena, obs::Tracer& tr,
                            obs::SpanContext ctx, const std::string& prefix) {
  std::uint64_t est = 0;
  BatchPlan plan;
  {
    const auto s = tr.span(layer(prefix, "batching.estimate"), ctx);
    est = cfg.work_queue ? estimate_queue_total(grid, cfg.batching, order)
                         : estimate_strided_total(grid, cfg.batching);
  }
  {
    const auto s = tr.span(layer(prefix, "batching.plan"), ctx);
    plan = cfg.work_queue
               ? plan_queue(grid, cfg.batching, order, pw, nullptr, est)
               : plan_strided(grid, cfg.batching, cfg.sort_by_workload,
                              cfg.pattern, nullptr, p, pw, est);
  }
  SelfJoinOutput out;
  out.results = ResultSet(cfg.store_pairs);
  out.stats.num_batches = plan.num_batches;
  out.stats.estimated_total_pairs = plan.estimated_total_pairs;
  const auto s = tr.span(layer(prefix, "execute"), ctx);
  detail::ExecutionInputs in;
  in.grid = &grid;
  in.plan = &plan;
  in.queue_order = order;
  in.device = cfg.device;
  in.device.host.pool = p;
  detail::execute_self_join(cfg, in, arena, out);
  return out;
}

/// D' as EnginePlanSource::resolve_order builds it.
std::vector<PointId> workload_order(std::span<const std::uint64_t> pw,
                                    ThreadPool* p) {
  std::vector<PointId> order(pw.size());
  std::iota(order.begin(), order.end(), PointId{0});
  parallel_stable_sort(
      order, [pw](PointId a, PointId b) { return pw[a] > pw[b]; }, p);
  return order;
}

/// One Self join made through the layer entry points, in the order and
/// with the arguments sj/pipeline.hpp uses on the single-device path,
/// each call under a bench span parented at `ctx`. Its pairs and
/// modeled stats equal the public call's bit for bit (the callers check
/// it); the spans time grid, batching and execute separately.
SelfJoinOutput layered_join(const Dataset& ds, const SelfJoinConfig& cfg,
                            ThreadPool* pool, detail::ScratchArena& arena,
                            obs::Tracer& tr, obs::SpanContext ctx,
                            const std::string& prefix) {
  ThreadPool* p = cfg.device.host.num_threads > 0 ? pool : nullptr;
  std::optional<GridIndex> grid;
  {
    const auto s = tr.span(layer(prefix, "grid.build"), ctx);
    grid.emplace(ds, cfg.epsilon, p);
  }
  std::vector<std::uint64_t> pw;
  std::vector<PointId> order;
  if (cfg.work_queue || cfg.sort_by_workload) {
    const auto s = tr.span(layer(prefix, "grid.workloads"), ctx);
    pw = point_workloads(*grid, cfg.pattern, p);
  }
  if (cfg.work_queue) {
    const auto s = tr.span(layer(prefix, "grid.order"), ctx);
    order = workload_order(pw, p);
  }
  return plan_and_run(*grid, cfg, pw, order, p, arena, tr, ctx, prefix);
}

std::uint64_t superego_count(const Dataset& ds, double eps, double* wall) {
  SuperEgoConfig c;
  c.epsilon = eps;
  c.nthreads = kThreads;
  const Timer t;
  const SuperEgoOutput out = super_ego_join(ds, c);
  if (wall != nullptr) *wall = t.seconds();
  return out.stats.result_pairs;
}

// ---------------------------------------------------- skew-2d / sparse-6d

struct JoinSpec {
  int dims;
  bool expo;
  double eps;
};

/// What one public join produced.
struct JoinRun {
  double wall = 0.0;
  std::uint64_t pairs = 0;
  simt::KernelStats kernel;
  std::uint64_t estimated = 0;
};

JoinRun from_output(const SelfJoinOutput& out) {
  return {0.0, out.results.count(), out.stats.kernel,
          out.stats.estimated_total_pairs};
}

JoinRun public_join(const Dataset& ds, const SelfJoinConfig& cfg) {
  const Timer t;
  JoinRun r = from_output(gsj::self_join(ds, cfg));
  r.wall = t.seconds();
  return r;
}

Outcome run_join_workload(const JoinSpec& spec, const Options& opt,
                          const Sizes& sz) {
  Outcome o;
  const PointSource src(spec.dims, spec.expo, sz.join_n);
  ClockGauge gauge(kThreads);
  Dataset ds;
  std::vector<double> setups;
  for (int i = 0; i < (opt.trace ? 1 : sz.setups); ++i) {
    gauge.sample();
    const Timer t;
    ds = src.make(sz.join_n, opt.seed);
    (void)public_join(ds, join_cfg(kCombined, spec.eps, kThreads));
    setups.push_back(t.seconds());
  }
  ThreadPool pool(kThreads);

  // A rep: the six variants at 4 threads one after another, then four
  // sequential `combined` joins side by side, each step after a gauge
  // sample. Every rep must repeat the first one's pairs and modeled
  // stats.
  std::array<JoinRun, 6> ref{};
  bool have_ref = false;
  std::vector<double> sweep_walls, seq_walls, combined_walls;
  auto untraced_rep = [&] {
    std::array<JoinRun, 6> r{};
    double sweep = 0.0;
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      gauge.sample();
      r[v] = public_join(ds, join_cfg(kVariants[v], spec.eps, kThreads));
      sweep += r[v].wall;
    }
    gauge.sample();
    std::array<JoinRun, kThreads> seq{};
    pool.parallel_for(kThreads, [&](std::size_t i) {
      seq[i] = public_join(ds, join_cfg(kCombined, spec.eps, 0));
    });
    o.attempted += kVariants.size() + seq.size();
    if (!have_ref) {
      ref = r;
      have_ref = true;
    }
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      o.check(r[v].pairs == ref[0].pairs,
              std::string(kVariants[v].name) + " pair count differs");
      o.check(same_model(r[v].kernel, ref[v].kernel),
              std::string(kVariants[v].name) + " modeled stats moved");
    }
    for (const JoinRun& s : seq) {
      o.check(s.pairs == ref[0].pairs && same_model(s.kernel, r[5].kernel),
              "sequential combined differs from the 4-thread one");
      seq_walls.push_back(s.wall);
    }
    sweep_walls.push_back(sweep);
    combined_walls.push_back(r[5].wall);
  };

  if (!opt.trace) {
    timed_loop(opt.seconds, sz.max_reps, [&](std::size_t) { untraced_rep(); });
    o.check(superego_count(ds, spec.eps, nullptr) == ref[0].pairs,
            "pair count differs from SUPER-EGO");
    emit_e2e(o, gauge, setups, sweep_walls, seq_walls);
    return o;
  }

  // Traced pass: each untraced rep is followed by the same sweep, and
  // one sequential join, made through the layer entry points.
  obs::Tracer tr;
  detail::ScratchArena arena;
  std::vector<std::uint64_t> traced_ids;
  auto traced_rep = [&](std::uint64_t rid) {
    auto rep = tr.span("rep", obs::SpanContext{rid, 0});
    auto one = [&](const Variant& v, int threads, const std::string& label) {
      const auto js = tr.span("join." + label, rep.child_context());
      return from_output(layered_join(ds, join_cfg(v, spec.eps, threads),
                                      &pool, arena, tr, js.child_context(),
                                      label));
    };
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      const JoinRun r = one(kVariants[v], kThreads, kVariants[v].name);
      o.check(r.pairs == ref[v].pairs && same_model(r.kernel, ref[v].kernel) &&
                  r.estimated == ref[v].estimated,
              std::string("layered ") + kVariants[v].name +
                  " differs from the public call");
    }
    const JoinRun seq = one(kCombined, 0, "seq");
    o.check(seq.pairs == ref[5].pairs && same_model(seq.kernel, ref[5].kernel),
            "layered sequential join differs from the public call");
    o.attempted += kVariants.size() + 1;
    traced_ids.push_back(rid);
  };
  timed_loop(opt.seconds, sz.max_reps, [&](std::size_t i) {
    untraced_rep();
    traced_rep(i + 1);
  });
  std::vector<double> ego_walls;
  for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
    double w = 0.0;
    o.check(superego_count(ds, spec.eps, &w) == ref[0].pairs,
            "pair count differs from SUPER-EGO");
    ego_walls.push_back(w);
  }

  const auto spans = tr.host_spans();
  std::vector<double> grid_s, batching_s, execute_s, layer_s, traced_s,
      seq_exec;
  std::map<std::string, std::vector<double>> per_layer;
  for (const std::uint64_t rid : traced_ids) {
    const SpanTotals t = span_totals(spans, rid);
    std::map<std::string, double> sweep;  // layer -> summed over variants
    double wall = 0.0;
    for (const Variant& v : kVariants) {
      for (const char* l : {"grid.build", "grid.workloads", "grid.order",
                            "batching.estimate", "batching.plan"}) {
        sweep[std::string(l) + "_s"] += t.self_of(layer(v.name, l));
      }
      const double ex = t.self_of(layer(v.name, "execute"));
      per_layer[std::string("execute.s.") + v.name].push_back(ex);
      sweep["execute_s"] += ex;
      wall += t.dur_of(std::string("join.") + v.name);
    }
    for (const auto& [k, v] : sweep) {
      if (k != "execute_s") per_layer[k].push_back(v);
    }
    const double g =
        sweep["grid.build_s"] + sweep["grid.workloads_s"] + sweep["grid.order_s"];
    const double b = sweep["batching.estimate_s"] + sweep["batching.plan_s"];
    grid_s.push_back(g);
    batching_s.push_back(b);
    execute_s.push_back(sweep["execute_s"]);
    layer_s.push_back(g + b + sweep["execute_s"]);
    traced_s.push_back(wall);
    seq_exec.push_back(t.self_of(layer("seq", "execute")));
  }

  LayerMetrics lm;
  std::uint64_t active = 0, steps = 0, makespan = 0, est_total = 0;
  double modeled_s = 0.0;
  for (std::size_t v = 0; v < kVariants.size(); ++v) {
    const simt::KernelStats& k = ref[v].kernel;
    active += k.active_lane_steps;
    steps += k.warp_steps;
    makespan += k.makespan_cycles;
    est_total += ref[v].estimated;
    modeled_s += k.seconds(join_cfg(kVariants[v], spec.eps, 0).device);
    o.note(std::string("simt.wee_pct.") + kVariants[v].name,
           wee_pct(k.active_lane_steps, k.warp_steps), "%");
  }
  const double sweep_pairs =
      static_cast<double>(ref[0].pairs) * static_cast<double>(kVariants.size());
  lm.grid_s = median(grid_s);
  lm.batching_s = median(batching_s);
  lm.execute_s = median(execute_s);
  lm.estimate_ratio = static_cast<double>(est_total) / sweep_pairs;
  lm.lane_steps_per_s = static_cast<double>(active) / lm.execute_s;
  lm.pairs_per_s = sweep_pairs / lm.execute_s;
  lm.glue_s = median(sweep_walls) - median(layer_s);
  lm.trace_overhead_s = median(traced_s) - median(sweep_walls);
  lm.active_lane_steps = static_cast<double>(active);
  lm.makespan_cycles = static_cast<double>(makespan);
  lm.wee_pct = wee_pct(active, steps);
  lm.superego_ratio = median(combined_walls) / median(ego_walls);
  lm.emit(o);
  for (const auto& [k, v] : per_layer) o.note(k, median(v), "s");
  o.note("execute.seq_s", median(seq_exec), "s");
  o.note("sweep_wall_s", median(sweep_walls), "s");
  o.note("seq_join_wall_s", median(seq_walls), "s");
  o.note("superego.join_s", median(ego_walls), "s");
  o.note("modeled_kernel_s", modeled_s, "s");
  o.note("modeled_wee_pct",
         wee_pct(ref[5].kernel.active_lane_steps, ref[5].kernel.warp_steps),
         "%");
  o.note("pairs", static_cast<double>(ref[0].pairs), "count");
  std::cout << std::fixed << std::setprecision(4) << "account: sweep "
            << median(sweep_walls) << " s = layers " << median(layer_s)
            << " s + glue " << lm.glue_s << " s\n";
  write_trace(opt, tr, o);
  return o;
}

// -------------------------------------------------------------- serve-mix

struct Req {
  JoinMode mode = JoinMode::Self;
  std::size_t variant = 0;
  double eps = 0.1;
  int k = 1;
};

/// The seeded request stream: 50% Self, 25% RxS, 25% KNN (k uniform in
/// 1..32), variants uniform over the six, eps uniform in [0.02, 0.2],
/// and 25% exact repeats of an earlier request.
std::vector<Req> make_mix(std::uint64_t seed, std::size_t count) {
  Rng rng(seed ^ 0x5e7e5e7eULL);
  std::vector<Req> mix;
  mix.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0 && rng.uniform() < 0.25) {
      mix.push_back(mix[rng.below(i)]);
      continue;
    }
    Req q;
    const double u = rng.uniform();
    q.mode = u < 0.5 ? JoinMode::Self : u < 0.75 ? JoinMode::RxS : JoinMode::Knn;
    q.variant = rng.below(kVariants.size());
    q.eps = 0.02 + 0.18 * rng.uniform();
    q.k = 1 + static_cast<int>(rng.below(32));
    mix.push_back(q);
  }
  return mix;
}

SelfJoinConfig request_cfg(const Req& q, const Dataset& probe) {
  SelfJoinConfig c = join_cfg(kVariants[q.variant], q.eps, 0);
  c.mode = q.mode;
  if (q.mode != JoinMode::Self) c.probe = &probe;
  if (q.mode == JoinMode::Knn) c.knn_k = q.k;
  return c;
}

/// Ordered-pair counts of the ε-join of `q` against `d` (the self-join
/// when both are one dataset) for every ε of `eps` (ascending), by brute
/// force: each pair falls in the bucket of the smallest ε it meets, and
/// prefix sums give the counts. The distance is summed in dimension
/// order and compared to ε², as the kernels do, so boundary pairs agree.
std::vector<std::uint64_t> brute_counts(const Dataset& q, const Dataset& d,
                                        const std::vector<double>& eps,
                                        ThreadPool& pool) {
  std::vector<double> eps2;
  for (const double e : eps) eps2.push_back(e * e);
  constexpr std::size_t kChunks = 64;
  std::vector<std::vector<std::uint64_t>> hist(
      kChunks, std::vector<std::uint64_t>(eps.size() + 1, 0));
  pool.parallel_for(kChunks, [&](std::size_t c) {
    for (std::size_t i = c; i < q.size(); i += kChunks) {
      for (std::size_t j = 0; j < d.size(); ++j) {
        double s = 0.0;
        for (int k = 0; k < q.dims(); ++k) {
          const double diff = q.coord(i, k) - d.coord(j, k);
          s += diff * diff;
        }
        ++hist[c][static_cast<std::size_t>(
            std::lower_bound(eps2.begin(), eps2.end(), s) - eps2.begin())];
      }
    }
  });
  std::vector<std::uint64_t> counts(eps.size(), 0);
  std::uint64_t run = 0;
  for (std::size_t b = 0; b < eps.size(); ++b) {
    for (const auto& h : hist) run += h[b];
    counts[b] = run;
  }
  return counts;
}

/// What the client kept of one response.
struct Served {
  std::size_t index = 0;  ///< into the mix
  bool ok = false;
  std::uint64_t count = 0;
  double latency = 0.0;
  double submit_s = 0.0;
  double service_s = 0.0;
  obs::RequestBreakdown breakdown;
  simt::KernelStats kernel;
};

struct Phase {
  std::vector<Served> served;
};

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kOutstanding = 8;
constexpr double kWindow = 0.5;  ///< seconds of load between gauge samples

/// Closed loop: one client keeps kOutstanding requests in flight,
/// submitting the next each time the oldest answer is collected, until
/// the budget ends; then it drains. Every kWindow seconds it stops
/// submitting, drains, and samples the gauge on the idle service before
/// it refills.
Phase serve_phase(JoinService& svc, const std::shared_ptr<SharedDataset>& sd,
                  const Dataset& probe, const std::vector<Req>& mix,
                  double seconds, std::size_t max_requests,
                  ClockGauge& gauge) {
  struct Pending {
    JoinService::Ticket ticket;
    Timer since;
    double submit_s;
    std::size_t index;
  };
  Phase ph;
  std::deque<Pending> pending;
  std::size_t next = 0;
  const Timer phase;
  auto submit = [&] {
    const Timer since;
    JoinRequest req;
    req.config = request_cfg(mix[next], probe);
    JoinService::Ticket t = svc.submit(sd, std::move(req));
    pending.push_back({std::move(t), since, since.seconds(), next});
    ++next;
  };
  const std::size_t limit = std::min(max_requests, mix.size());
  auto more = [&] { return next < limit && phase.seconds() < seconds; };
  double window_end = kWindow;
  for (;;) {
    while (more() && pending.size() < kOutstanding &&
           phase.seconds() < window_end) {
      submit();
    }
    if (pending.empty()) {
      if (!more()) break;
      gauge.sample();
      window_end = phase.seconds() + kWindow;
      continue;
    }
    Pending& p = pending.front();
    const JoinResponse r = p.ticket.get();
    Served s;
    s.index = p.index;
    s.latency = p.since.seconds();
    s.submit_s = p.submit_s;
    s.ok = r.status == JoinStatus::Ok;
    s.count = s.ok ? r.output.results.count() : 0;
    s.service_s = r.service_seconds;
    s.breakdown = r.breakdown;
    s.kernel = r.output.stats.kernel;
    ph.served.push_back(s);
    pending.pop_front();
  }
  return ph;
}

Outcome run_serve(const Options& opt, const Sizes& sz) {
  Outcome o;
  const PointSource src(2, true, sz.serve_n);
  Dataset ds;
  Dataset probe;
  std::unique_ptr<JoinService> svc;
  std::shared_ptr<SharedDataset> sd;
  const std::vector<Req> mix = make_mix(opt.seed, 50'000);
  auto start_service = [&](obs::Tracer* tr) {
    sd.reset();
    svc.reset();
    ServiceConfig sc;
    sc.workers = kWorkers;
    sc.obs.tracer = tr;
    svc = std::make_unique<JoinService>(sc);
    sd = svc->attach(ds);
    JoinRequest first;
    first.config = join_cfg(kCombined, 0.1, 0);
    o.check(svc->submit(sd, first).get().status == JoinStatus::Ok,
            "warm-up request failed");
  };
  ClockGauge gauge(kThreads);
  std::vector<double> setups;
  for (int i = 0; i < (opt.trace ? 1 : sz.serve_setups); ++i) {
    sd.reset();
    svc.reset();
    gauge.sample();
    const Timer t;
    ds = src.make(sz.serve_n, opt.seed);
    probe = src.make(sz.probe_n, opt.seed + 1000);
    start_service(nullptr);
    setups.push_back(t.seconds());
  }
  ThreadPool pool(kThreads);

  // Every Ok answer must equal the brute-force count of its request
  // (KNN: queries x min(k, n)).
  auto check_phase = [&](const Phase& ph) {
    std::set<double> self_eps, rxs_eps;
    for (const Served& s : ph.served) {
      const Req& q = mix[s.index];
      if (q.mode == JoinMode::Self) self_eps.insert(q.eps);
      if (q.mode == JoinMode::RxS) rxs_eps.insert(q.eps);
    }
    const std::vector<double> se(self_eps.begin(), self_eps.end());
    const std::vector<double> re(rxs_eps.begin(), rxs_eps.end());
    const std::vector<std::uint64_t> sc = brute_counts(ds, ds, se, pool);
    const std::vector<std::uint64_t> rc = brute_counts(probe, ds, re, pool);
    auto count_at = [](const std::vector<double>& e,
                       const std::vector<std::uint64_t>& c, double x) {
      return c[static_cast<std::size_t>(
          std::lower_bound(e.begin(), e.end(), x) - e.begin())];
    };
    for (const Served& s : ph.served) {
      ++o.attempted;
      const Req& q = mix[s.index];
      const std::uint64_t want =
          q.mode == JoinMode::Self ? count_at(se, sc, q.eps)
          : q.mode == JoinMode::RxS
              ? count_at(re, rc, q.eps)
              : probe.size() * std::min<std::uint64_t>(
                                   static_cast<std::uint64_t>(q.k), ds.size());
      o.check(s.ok && s.count == want,
              "request " + std::to_string(s.index) + " answered " +
                  (s.ok ? std::to_string(s.count) : "not Ok") +
                  ", expected " + std::to_string(want));
    }
  };
  auto ok_latencies = [](const Phase& ph) {
    std::vector<double> v;
    for (const Served& s : ph.served) {
      if (s.ok) v.push_back(s.latency);
    }
    return v;
  };

  const Phase plain = serve_phase(*svc, sd, probe, mix,
                                  opt.trace ? opt.seconds / 2 : opt.seconds,
                                  sz.max_requests, gauge);
  check_phase(plain);
  const std::vector<double> lat = ok_latencies(plain);
  if (!opt.trace) {
    emit_e2e(o, gauge, setups, lat, {quantile(lat, 0.95)});
    return o;
  }

  // Traced pass: the same request prefix against a fresh service whose
  // tracer is the bench's, then a layered replay of executed Self
  // requests for the grid/batching split.
  obs::Tracer tr;
  start_service(&tr);
  const Phase traced =
      serve_phase(*svc, sd, probe, mix, kInf, plain.served.size(), gauge);
  check_phase(traced);

  std::vector<double> submit_s, wait_s, run_s, plan_s, exec_s, glue_s;
  std::map<JoinMode, std::vector<double>> mode_lat;
  double wait_sum = 0.0, lat_sum = 0.0, kernel_exec = 0.0, pairs = 0.0;
  double hits = 0.0, lookups = 0.0;
  std::uint64_t active = 0, steps = 0, makespan = 0, launched = 0;
  std::map<obs::ServedFrom, double> served_from;
  for (const Served& s : traced.served) {
    if (!s.ok) continue;
    const obs::RequestBreakdown& b = s.breakdown;
    const JoinMode mode = mix[s.index].mode;
    mode_lat[mode].push_back(s.latency);
    submit_s.push_back(s.submit_s);
    wait_s.push_back(b.wait_seconds);
    wait_sum += b.wait_seconds;
    lat_sum += s.latency;
    served_from[b.served_from] += 1.0;
    if (b.served_from != obs::ServedFrom::Execution) continue;
    run_s.push_back(s.service_s);
    plan_s.push_back(b.plan_seconds);
    exec_s.push_back(b.execute_seconds);
    glue_s.push_back(s.service_s - b.plan_seconds - b.execute_seconds);
    hits += static_cast<double>(b.cache_hits());
    lookups += static_cast<double>(b.cache_hits() + b.cache_misses());
    if (mode != JoinMode::Knn) {  // KNN launches no kernels
      kernel_exec += b.execute_seconds;
      pairs += static_cast<double>(b.result_pairs);
      active += s.kernel.active_lane_steps;
      steps += s.kernel.warp_steps;
      makespan += s.kernel.makespan_cycles;
      ++launched;
    }
  }

  // Layered replay: the first executed Self requests with distinct ε,
  // made through the layer entry points; each must reproduce the
  // service's count and modeled stats.
  detail::ScratchArena arena;
  std::vector<double> grid_s, batching_s;
  double est_sum = 0.0, est_pairs = 0.0;
  std::set<double> replayed;
  std::uint64_t rid = 1'000'000;  // above the service's request ids
  for (const Served& s : traced.served) {
    const Req& q = mix[s.index];
    if (replayed.size() >= sz.replay_requests) break;
    if (!s.ok || q.mode != JoinMode::Self ||
        s.breakdown.served_from != obs::ServedFrom::Execution ||
        !replayed.insert(q.eps).second) {
      continue;
    }
    ++rid;
    {
      const auto root = tr.span("replay", obs::SpanContext{rid, 0});
      const SelfJoinOutput out =
          layered_join(ds, request_cfg(q, probe), nullptr, arena, tr,
                       root.child_context(), "");
      o.check(out.results.count() == s.count &&
                  same_model(out.stats.kernel, s.kernel),
              "layered replay of request " + std::to_string(s.index) +
                  " differs from the service");
      est_sum += static_cast<double>(out.stats.estimated_total_pairs);
      est_pairs += static_cast<double>(out.results.count());
    }
    const SpanTotals t = span_totals(tr.host_spans(), rid);
    grid_s.push_back(t.self_of("grid.build") + t.self_of("grid.workloads") +
                     t.self_of("grid.order"));
    batching_s.push_back(t.self_of("batching.estimate") +
                         t.self_of("batching.plan"));
  }

  const std::vector<double> traced_lat = ok_latencies(traced);
  const double ok = static_cast<double>(traced_lat.size());
  const double per = ratio(1.0, static_cast<double>(launched));
  LayerMetrics lm;
  lm.grid_s = median(grid_s);
  lm.batching_s = median(batching_s);
  lm.estimate_ratio = ratio(est_sum, est_pairs);
  lm.execute_s = median(exec_s);
  lm.lane_steps_per_s = ratio(static_cast<double>(active), kernel_exec);
  lm.pairs_per_s = ratio(pairs, kernel_exec);
  lm.glue_s = median(glue_s);
  lm.artifact_hit_ratio = ratio(hits, lookups);
  lm.trace_overhead_s = median(traced_lat) - median(lat);
  lm.active_lane_steps = static_cast<double>(active) * per;
  lm.makespan_cycles = static_cast<double>(makespan) * per;
  lm.wee_pct = wee_pct(active, steps);
  lm.wait_share = ratio(wait_sum, lat_sum);
  lm.served_ratio =
      ratio(ok - served_from[obs::ServedFrom::Execution], ok);
  lm.emit(o);
  o.note("service.submit_s_p50", median(submit_s), "s");
  o.note("service.queue_wait_s_p50", median(wait_s), "s");
  o.note("service.queue_wait_s_p95", quantile(wait_s, 0.95), "s");
  o.note("service.run_s_p50", median(run_s), "s");
  o.note("service.plan_s_p50", median(plan_s), "s");
  o.note("service.execute_s_p50", median(exec_s), "s");
  o.note("service.result_hits", served_from[obs::ServedFrom::ResultCache],
         "count");
  o.note("service.coalesced", served_from[obs::ServedFrom::Coalesced],
         "count");
  o.note("service.subsumed", served_from[obs::ServedFrom::Subsumed], "count");
  o.note("service.latency_s_p99", quantile(traced_lat, 0.99), "s");
  for (const auto& [mode, v] : mode_lat) {
    o.note(std::string("service.latency_s_p50.") + to_string(mode), median(v),
           "s");
  }
  o.note("req_latency_s_p50", median(lat), "s");
  o.note("req_latency_s_p95", quantile(lat, 0.95), "s");
  o.note("requests", static_cast<double>(plain.served.size()), "count");
  write_trace(opt, tr, o);
  return o;
}

// --------------------------------------------------------------- churn-2d

constexpr int kStreams = 4;
constexpr double kChurnEps = 0.2;

/// One point mutation, replayable on an identical dataset copy.
struct Mut {
  Mutation::Kind kind = Mutation::Kind::Move;
  PointId id = 0;
  std::array<double, 2> p{};
};

void apply(Dataset& ds, const Mut& m) {
  switch (m.kind) {
    case Mutation::Kind::Move: ds.move_point(m.id, m.p); break;
    case Mutation::Kind::Erase: ds.erase(m.id); break;
    case Mutation::Kind::Insert: (void)ds.insert(m.p); break;
  }
}

/// One dataset behind its own JoinEngine, warmed by a first `combined`
/// join, plus its churn stream.
struct ChurnStream {
  Dataset ds;
  obs::Registry metrics;
  JoinEngine engine;
  PreparedDataset prep;
  Rng rng;
  std::vector<double> lo, hi;  ///< bounding box, fixed by churn_epoch
  std::uint64_t count = 0;     ///< pairs after the last re-join
  std::vector<Mut> last;       ///< the last epoch's mutations

  ChurnStream(Dataset d, std::uint64_t seed, const SelfJoinConfig& cfg)
      : ds(std::move(d)),
        engine([this] {
          EngineConfig ec;
          ec.obs.metrics = &metrics;
          return ec;
        }()),
        prep(engine.prepare(ds)),
        rng(seed),
        lo(ds.min_corner()),
        hi(ds.max_corner()) {
    SelfJoinOutput out = engine.run(prep, cfg);
    count = out.results.count();
    engine.recycle(std::move(out));
  }
  ChurnStream(const ChurnStream&) = delete;
  ChurnStream& operator=(const ChurnStream&) = delete;

  [[nodiscard]] double cache(const char* name) {
    return static_cast<double>(metrics.counter(name).value());
  }

  /// Applies one epoch of churn: `count` mutations, 40% moves by up to
  /// eps/8 per coordinate, 30% erases, 30% inserts of fresh points from
  /// the same distribution, in seeded order. Points on the bounding box
  /// are never moved or erased and new positions stay inside it, so the
  /// grid's shape never changes and every epoch takes the incremental
  /// repair path rather than the rebuild fallback.
  void churn_epoch(const PointSource& src, int n) {
    const int moves = n * 4 / 10;
    const int erases = n * 3 / 10;
    std::vector<Mutation::Kind> kinds(static_cast<std::size_t>(n),
                                      Mutation::Kind::Insert);
    std::fill_n(kinds.begin(), moves, Mutation::Kind::Move);
    std::fill_n(kinds.begin() + moves, erases, Mutation::Kind::Erase);
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.below(i)]);
    }
    auto interior = [&](PointId id) {
      for (int d = 0; d < 2; ++d) {
        const double x = ds.coord(id, d);
        const auto sd = static_cast<std::size_t>(d);
        if (x == lo[sd] || x == hi[sd]) return false;
      }
      return true;
    };
    last.clear();
    for (const Mutation::Kind kind : kinds) {
      Mut m;
      m.kind = kind;
      if (kind != Mutation::Kind::Insert) {
        do {
          m.id = static_cast<PointId>(rng.below(ds.size()));
        } while (!interior(m.id));
      }
      for (std::size_t d = 0; d < 2 && kind != Mutation::Kind::Erase; ++d) {
        if (kind == Mutation::Kind::Move) {
          const double x = ds.coord(m.id, static_cast<int>(d)) +
                           kChurnEps / 8.0 * (2.0 * rng.uniform() - 1.0);
          m.p[d] = std::clamp(x, lo[d], hi[d]);
        } else {
          do {
            m.p[d] = src.sample(rng);
          } while (m.p[d] < lo[d] || m.p[d] > hi[d]);
        }
      }
      apply(ds, m);
      last.push_back(m);
    }
  }
};

/// A copy of one stream's dataset with the artifacts its engine
/// caches, held by the bench so that traced epochs can call each layer
/// directly.
struct LayeredStream {
  Dataset ds;
  std::optional<GridIndex> grid;
  std::vector<std::uint64_t> pw;
  std::vector<PointId> order;
};

Outcome run_churn(const Options& opt, const Sizes& sz) {
  Outcome o;
  const PointSource src(2, true, sz.churn_n);
  ThreadPool pool(kThreads);
  SelfJoinConfig cfg = join_cfg(kCombined, kChurnEps, kThreads);
  cfg.device.host.pool = &pool;  // one pool for every stream's re-join
  auto data_seed = [&](int i) { return opt.seed * 8 + static_cast<std::uint64_t>(i); };
  std::vector<std::unique_ptr<ChurnStream>> ss;
  ClockGauge gauge(kThreads);
  std::vector<double> setups;
  for (int rep = 0; rep < (opt.trace ? 1 : sz.setups); ++rep) {
    ss.clear();
    gauge.sample();
    const Timer t;
    for (int i = 0; i < kStreams; ++i) {
      ss.push_back(std::make_unique<ChurnStream>(
          src.make(sz.churn_n, data_seed(i)), data_seed(i) ^ 0xc4a2c4a2ULL,
          cfg));
    }
    setups.push_back(t.seconds());
  }
  double hits0 = 0.0, lookups0 = 0.0;
  for (auto& s : ss) {
    hits0 += s->cache("sj.cache.hits");
    lookups0 += s->cache("sj.cache.hits") + s->cache("sj.cache.misses");
  }

  // An epoch: churn every dataset, run the four delta_joins side by
  // side, then re-join each dataset at 4 threads. The re-join's count
  // must equal the last one plus the delta's gained minus its lost.
  std::vector<double> delta_s, rejoin_s, epoch_s, stream_s;
  std::vector<std::size_t> gained(kStreams), lost(kStreams);
  auto untraced_epoch = [&] {
    std::vector<std::uint64_t> gen(kStreams);
    for (int i = 0; i < kStreams; ++i) {
      gen[static_cast<std::size_t>(i)] = ss[i]->ds.generation();
      ss[i]->churn_epoch(src, sz.churn_per_epoch);
    }
    gauge.sample();
    const Timer te;
    std::vector<std::optional<PairDelta>> d(kStreams);
    std::vector<double> dt(kStreams);
    pool.parallel_for(kStreams, [&](std::size_t i) {
      const Timer t;
      d[i] = ss[i]->engine.delta_join(ss[i]->prep, kChurnEps, gen[i]);
      dt[i] = t.seconds();
    });
    for (std::size_t i = 0; i < kStreams; ++i) {
      ChurnStream& s = *ss[i];
      const Timer t;
      SelfJoinOutput out = s.engine.run(s.prep, cfg);
      const double rj = t.seconds();
      const std::uint64_t now = out.results.count();
      s.engine.recycle(std::move(out));
      o.check(d[i].has_value(), "delta_join lost its mutation window");
      gained[i] = d[i].has_value() ? d[i]->gained.size() : 0;
      lost[i] = d[i].has_value() ? d[i]->lost.size() : 0;
      o.check(now + lost[i] == s.count + gained[i],
              "count after churn != count before + gained - lost");
      s.count = now;
      delta_s.push_back(dt[i]);
      rejoin_s.push_back(rj);
      stream_s.push_back(dt[i] + rj);
      ++o.attempted;
    }
    epoch_s.push_back(te.seconds());
  };
  auto final_check = [&](std::vector<double>* walls) {
    for (auto& s : ss) {
      double w = 0.0;
      o.check(superego_count(s->ds, kChurnEps, &w) == s->count,
              "pair count after churn differs from SUPER-EGO");
      if (walls != nullptr) walls->push_back(w);
    }
  };

  if (!opt.trace) {
    timed_loop(opt.seconds, sz.max_epochs,
               [&](std::size_t) { untraced_epoch(); });
    final_check(nullptr);
    emit_e2e(o, gauge, setups, delta_s, rejoin_s);
    return o;
  }

  // Traced pass: identical dataset copies take each untraced epoch's
  // mutations, then the calls delta_join and run make, in their order:
  // summarize the window, repair the grid, patch workloads and D',
  // compute the delta (the four datasets side by side), then estimate,
  // plan and execute per dataset.
  obs::Tracer tr;
  detail::ScratchArena arena;
  std::vector<LayeredStream> ls(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    LayeredStream& l = ls[static_cast<std::size_t>(i)];
    l.ds = src.make(sz.churn_n, data_seed(i));
    l.grid.emplace(l.ds, kChurnEps, &pool);
    l.pw = point_workloads(*l.grid, cfg.pattern, &pool);
    l.order = workload_order(l.pw, &pool);
  }
  std::vector<double> est, actual, rebuild_s, repair_s, mutate_s;
  std::vector<std::uint64_t> traced_ids;
  std::optional<simt::KernelStats> first_kernel;  // fixed by the seed
  std::optional<std::size_t> first_changed;
  std::uint64_t active = 0;
  auto traced_epoch = [&](std::uint64_t rid) {
    const Timer tm;
    std::vector<std::uint64_t> gen(kStreams);
    for (std::size_t i = 0; i < kStreams; ++i) {
      gen[i] = ls[i].ds.generation();
      for (const Mut& m : ss[i]->last) apply(ls[i].ds, m);
    }
    mutate_s.push_back(tm.seconds());
    auto root = tr.span("epoch", obs::SpanContext{rid, 0});
    const obs::SpanContext ctx = root.child_context();
    std::vector<GridRepairOutcome> oc(kStreams);
    std::vector<PairDelta> d(kStreams);
    pool.parallel_for(kStreams, [&](std::size_t i) {
      LayeredStream& l = ls[i];
      const std::string p = "s" + std::to_string(i);
      std::optional<ChurnSummary> churn;
      {
        const auto sp = tr.span(layer(p, "data.churn"), ctx);
        const auto window = l.ds.mutations_since(gen[i]);
        if (window.has_value()) churn = summarize_churn(l.ds, *window);
      }
      if (!churn.has_value()) return;
      {
        const auto sp = tr.span(layer(p, "grid.repair"), ctx);
        oc[i] = l.grid->repair();
      }
      {
        const auto sp = tr.span(layer(p, "grid.patch"), ctx);
        WorkloadPatchResult patch = patch_workloads(
            *l.grid, cfg.pattern, oc[i].dirty_cell_ids, l.pw, l.order);
        l.pw = std::move(patch.point_workloads);
        l.order = std::move(patch.order);
      }
      const auto sp = tr.span(layer(p, "delta"), ctx);
      d[i] = compute_pair_delta(*l.grid, *churn, kChurnEps);
    });
    for (std::size_t i = 0; i < kStreams; ++i) {
      LayeredStream& l = ls[i];
      o.check(oc[i].repaired, "grid repair fell back to a rebuild");
      o.check(d[i].gained.size() == gained[i] && d[i].lost.size() == lost[i],
              "layered delta differs from delta_join");
      const SelfJoinOutput out =
          plan_and_run(*l.grid, cfg, l.pw, l.order, &pool, arena, tr, ctx,
                       "s" + std::to_string(i));
      o.check(out.results.count() == ss[i]->count,
              "layered re-join differs from engine.run");
      est.push_back(static_cast<double>(out.stats.estimated_total_pairs));
      actual.push_back(static_cast<double>(out.results.count()));
      active += out.stats.kernel.active_lane_steps;
      if (!first_kernel) first_kernel = out.stats.kernel;
      if (!first_changed) first_changed = d[i].gained.size() + d[i].lost.size();
      ++o.attempted;
    }
    root.finish();
    // Reference only: from-scratch grids, which the repaired ones must
    // equal (content digests certify bit-identity).
    for (std::size_t i = 0; i < kStreams; ++i) {
      const Timer tb;
      const GridIndex fresh(ls[i].ds, kChurnEps, nullptr);
      rebuild_s.push_back(tb.seconds());
      o.check(fresh.content_key() == ls[i].grid->content_key(),
              "repaired grid differs from a rebuild");
    }
    traced_ids.push_back(rid);
  };
  timed_loop(opt.seconds, sz.max_epochs, [&](std::size_t i) {
    untraced_epoch();
    traced_epoch(i + 1);
  });
  std::vector<double> ego_walls;
  final_check(&ego_walls);

  const auto spans = tr.host_spans();
  std::vector<double> grid_s, patch_s, batching_s, execute_s, layer_s,
      traced_s, delta_self, churn_self;
  for (const std::uint64_t rid : traced_ids) {
    const SpanTotals t = span_totals(spans, rid);
    for (int i = 0; i < kStreams; ++i) {
      const std::string p = "s" + std::to_string(i);
      const double rep = t.self_of(layer(p, "grid.repair"));
      const double pat = t.self_of(layer(p, "grid.patch"));
      const double bat = t.self_of(layer(p, "batching.estimate")) +
                         t.self_of(layer(p, "batching.plan"));
      const double ex = t.self_of(layer(p, "execute"));
      const double de = t.self_of(layer(p, "delta"));
      const double ch = t.self_of(layer(p, "data.churn"));
      repair_s.push_back(rep);
      patch_s.push_back(pat);
      grid_s.push_back(rep + pat);
      batching_s.push_back(bat);
      execute_s.push_back(ex);
      delta_self.push_back(de);
      churn_self.push_back(ch);
      layer_s.push_back(ch + rep + pat + de + bat + ex);
    }
    traced_s.push_back(t.dur_of("epoch"));
  }
  double hits = -hits0, lookups = -lookups0;
  for (auto& s : ss) {
    hits += s->cache("sj.cache.hits");
    lookups += s->cache("sj.cache.hits") + s->cache("sj.cache.misses");
  }

  const simt::KernelStats k0 = first_kernel.value_or(simt::KernelStats{});
  LayerMetrics lm;
  lm.grid_s = median(grid_s);
  lm.batching_s = median(batching_s);
  lm.estimate_ratio = ratio(sum(est), sum(actual));
  lm.execute_s = median(execute_s);
  lm.lane_steps_per_s = ratio(static_cast<double>(active), sum(execute_s));
  lm.pairs_per_s = ratio(sum(actual), sum(execute_s));
  lm.glue_s = median(stream_s) - median(layer_s);
  lm.artifact_hit_ratio = ratio(hits, lookups);
  lm.trace_overhead_s = median(traced_s) - median(epoch_s);
  lm.active_lane_steps = static_cast<double>(k0.active_lane_steps);
  lm.makespan_cycles = static_cast<double>(k0.makespan_cycles);
  lm.wee_pct = wee_pct(k0.active_lane_steps, k0.warp_steps);
  lm.delta_share = ratio(sum(delta_self), sum(layer_s));
  lm.pairs_changed = static_cast<double>(first_changed.value_or(0));
  lm.mutate_share =
      ratio(median(mutate_s), median(mutate_s) + median(traced_s));
  lm.repair_speedup = ratio(median(rebuild_s), median(repair_s));
  lm.superego_ratio = ratio(median(rejoin_s), median(ego_walls));
  lm.emit(o);
  o.note("data.mutate_s", median(mutate_s), "s");
  o.note("data.churn_s", median(churn_self), "s");
  o.note("grid.repair_s", median(repair_s), "s");
  o.note("grid.patch_s", median(patch_s), "s");
  o.note("grid.rebuild_s", median(rebuild_s), "s");
  o.note("delta.s", median(delta_self), "s");
  o.note("delta_s", median(delta_s), "s");
  o.note("rejoin_s", median(rejoin_s), "s");
  o.note("superego.join_s", median(ego_walls), "s");
  write_trace(opt, tr, o);
  return o;
}

// ------------------------------------------------------------------- main

Outcome run_workload(const Options& opt, const Sizes& sz) {
  const std::string& w = opt.workload;
  if (w == "skew-2d") return run_join_workload({2, true, 0.2}, opt, sz);
  if (w == "sparse-6d") return run_join_workload({6, false, 8.0}, opt, sz);
  if (w == "serve-mix") return run_serve(opt, sz);
  if (w == "churn-2d") return run_churn(opt, sz);
  usage("unknown workload " + w);
}

void print_result(const Outcome& o) {
  for (const auto* list : {&o.metrics, &o.detail}) {
    for (const Metric& m : *list) {
      std::cout << (list == &o.metrics ? "" : "  ") << std::left
                << std::setw(list == &o.metrics ? 28 : 26) << m.name << ' '
                << std::setprecision(6) << std::defaultfloat << m.value << ' '
                << m.unit << '\n';
    }
  }
  std::ostringstream js;
  js << std::setprecision(17) << "{\"correct\": "
     << (o.failed == 0 ? "true" : "false") << ", \"attempted\": "
     << o.attempted << ", \"failed\": " << o.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : o.metrics) {
    js << sep << '"' << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
    sep = ", ";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    if (!opt.smoke) {
      const Outcome o = run_workload(opt, Sizes{});
      print_result(o);
      return o.failed == 0 ? 0 : 1;
    }
    // Smoke: every workload, untraced then traced, on tiny inputs.
    std::uint64_t failed = 0;
    for (const char* w : {"skew-2d", "sparse-6d", "serve-mix", "churn-2d"}) {
      for (const bool traced : {false, true}) {
        Options o = opt;
        o.workload = w;
        o.trace = traced;
        o.seconds = kInf;
        std::cout << "== " << w << (traced ? " (traced)" : "") << '\n';
        const Outcome out = run_workload(o, smoke_sizes());
        print_result(out);
        failed += out.failed;
      }
    }
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "sjbench: " << e.what() << '\n';
    return 2;
  }
}
