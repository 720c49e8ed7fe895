// Observability layer: metrics registry (histogram percentiles vs a
// sorted-vector oracle, shard merging), JSON writer/parser round-trip,
// Chrome trace export round-trip, imbalance diagnostics, and the
// byte-identical-trace determinism guarantee.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "data/generators.hpp"
#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sj/selfjoin.hpp"
#include "superego/super_ego.hpp"

namespace gsj {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, LabeledRendering) {
  EXPECT_EQ(obs::labeled("sj.warps", {}), "sj.warps");
  EXPECT_EQ(obs::labeled("sj.warps", {{"batch", "3"}}), "sj.warps{batch=3}");
  EXPECT_EQ(obs::labeled("x", {{"a", "1"}, {"b", "2"}}), "x{a=1,b=2}");
}

TEST(Metrics, CounterAndGauge) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("c");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&reg.counter("c"), &c);  // stable identity

  obs::Gauge& g = reg.gauge("g");
  EXPECT_FALSE(g.is_set());
  g.set(2.5);
  EXPECT_TRUE(g.is_set());
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

/// Exact nearest-rank percentile on a sorted copy — the oracle the
/// cycle histogram is checked against.
std::uint64_t oracle_percentile(std::vector<std::uint64_t> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(xs.size())));
  return xs[rank == 0 ? 0 : rank - 1];
}

TEST(Metrics, CycleHistogramPercentileVsOracle) {
  // Log-normal-ish workload: the shape warp cycle distributions take.
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> xs;
  obs::CycleHistogram h;
  for (int i = 0; i < 20000; ++i) {
    const double u = static_cast<double>(rng.uniform_index(1000000)) / 1e6;
    const auto v =
        static_cast<std::uint64_t>(std::exp(4.0 + 8.0 * u));  // 55..e12
    xs.push_back(v);
    h.record(v);
  }
  EXPECT_EQ(h.total(), xs.size());
  EXPECT_EQ(h.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(h.max(), *std::max_element(xs.begin(), xs.end()));

  for (const double q : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                         99.9, 100.0}) {
    const auto exact = static_cast<double>(oracle_percentile(xs, q));
    const auto approx = static_cast<double>(h.percentile(q));
    // The bucket upper bound can only over-report, and by at most the
    // documented relative quantization error.
    EXPECT_GE(approx * (1.0 + 1e-12), exact) << "q=" << q;
    EXPECT_LE(approx, exact * (1.0 + obs::CycleHistogram::kMaxRelativeError))
        << "q=" << q;
  }
}

TEST(Metrics, CycleHistogramExactBelowSubBucketRange) {
  obs::CycleHistogram h;
  for (std::uint64_t v = 0; v < 2 * obs::CycleHistogram::kSubBuckets; ++v) {
    h.record(v);
  }
  // Small values land in exact unit buckets: percentiles are exact.
  EXPECT_EQ(h.percentile(50.0), 31u);
  EXPECT_EQ(h.percentile(100.0), 63u);
}

TEST(Metrics, RegistryMergeAccumulatesShards) {
  obs::Registry a, b, merged;
  a.counter("tasks").add(3);
  b.counter("tasks").add(4);
  b.counter("only_b").add(1);
  a.gauge("wee").set(95.0);
  a.cycle_histogram("cycles").record(100);
  b.cycle_histogram("cycles").record(200);

  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.counter("tasks").value(), 7u);
  EXPECT_EQ(merged.counter("only_b").value(), 1u);
  EXPECT_DOUBLE_EQ(merged.gauge("wee").value(), 95.0);
  EXPECT_EQ(merged.cycle_histogram("cycles").total(), 2u);
  EXPECT_EQ(merged.cycle_histogram("cycles").max(), 200u);
}

// ------------------------------------------------- metric-name hygiene

TEST(Metrics, MetricNameValidation) {
  // Valid: dot-path bases, optional labels, colon (OpenMetrics allows it).
  EXPECT_TRUE(obs::is_valid_metric_name("sj.warps"));
  EXPECT_TRUE(obs::is_valid_metric_name("svc.queue_wait_seconds"));
  EXPECT_TRUE(obs::is_valid_metric_name("_private"));
  EXPECT_TRUE(obs::is_valid_metric_name("ns:role"));
  EXPECT_TRUE(obs::is_valid_metric_name("sj.warps{batch=3}"));
  EXPECT_TRUE(obs::is_valid_metric_name("x{a=1,b=two}"));

  // Invalid: bad leading char, charset violations, malformed labels.
  EXPECT_FALSE(obs::is_valid_metric_name(""));
  EXPECT_FALSE(obs::is_valid_metric_name("9lives"));
  EXPECT_FALSE(obs::is_valid_metric_name("has space"));
  EXPECT_FALSE(obs::is_valid_metric_name("dash-ed"));
  EXPECT_FALSE(obs::is_valid_metric_name("x{unclosed=1"));
  EXPECT_FALSE(obs::is_valid_metric_name("x{9key=1}"));
  EXPECT_FALSE(obs::is_valid_metric_name("x{k=va\"lue}"));
}

TEST(Metrics, SanitizeMetricName) {
  // Identity on valid names; idempotent on everything.
  EXPECT_EQ(obs::sanitize_metric_name("sj.warps"), "sj.warps");
  EXPECT_EQ(obs::sanitize_metric_name("sj.warps{batch=3}"),
            "sj.warps{batch=3}");
  const std::string fixed = obs::sanitize_metric_name("bad name-9");
  EXPECT_TRUE(obs::is_valid_metric_name(fixed));
  EXPECT_EQ(fixed, "bad_name_9");
  EXPECT_EQ(obs::sanitize_metric_name(fixed), fixed);
  EXPECT_TRUE(obs::is_valid_metric_name(obs::sanitize_metric_name("9lives")));
}

TEST(Metrics, RegistrationNormalizesNames) {
#ifdef NDEBUG
  // Release: charset violations are sanitized at registration, so the
  // raw and sanitized spellings name the same instrument.
  obs::Registry reg;
  obs::Counter& c = reg.counter("bad name");
  c.add(7);
  EXPECT_EQ(&reg.counter("bad_name"), &c);
  EXPECT_EQ(reg.counter("bad_name").value(), 7u);
#else
  // Debug: violations are hard errors at the registration site.
  obs::Registry reg;
  EXPECT_THROW((void)reg.counter("bad name"), CheckError);
#endif
}

// --------------------------------------------------------- TimeHistogram

TEST(Metrics, TimeHistogramSecondsApi) {
  obs::TimeHistogram h;
  EXPECT_EQ(h.total(), 0u);
  for (const double s : {0.001, 0.002, 0.004, 0.008, 1.0}) h.observe(s);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_NEAR(h.min_seconds(), 0.001, 0.001 * obs::TimeHistogram::kMaxRelativeError);
  EXPECT_NEAR(h.max_seconds(), 1.0, 1.0 * obs::TimeHistogram::kMaxRelativeError);
  EXPECT_NEAR(h.sum_seconds(), 1.015, 1.015 * obs::TimeHistogram::kMaxRelativeError);
  // Quantiles honour the underlying HDR sketch's relative-error bound.
  const double p50 = h.percentile_seconds(50.0);
  EXPECT_GE(p50, 0.004 * (1.0 - obs::TimeHistogram::kMaxRelativeError));
  EXPECT_LE(p50, 0.004 * (1.0 + obs::TimeHistogram::kMaxRelativeError));
  // Non-positive durations clamp to zero instead of wrapping.
  h.observe(-1.0);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.min_seconds(), 0.0);
}

TEST(Metrics, TimeHistogramRegistryMerge) {
  obs::Registry a, b, merged;
  a.time_histogram("svc.service_seconds").observe(0.5);
  b.time_histogram("svc.service_seconds").observe(1.5);
  merged.merge_from(a);
  merged.merge_from(b);
  obs::TimeHistogram& m = merged.time_histogram("svc.service_seconds");
  EXPECT_EQ(m.total(), 2u);
  EXPECT_NEAR(m.sum_seconds(), 2.0, 2.0 * obs::TimeHistogram::kMaxRelativeError);
}

// ----------------------------------------------------------- openmetrics

TEST(Metrics, OpenMetricsGolden) {
  // Small fixed registry -> exact, byte-for-byte exposition. Map order
  // sorts families; dots mangle to underscores; counters gain _total.
  obs::Registry reg;
  reg.counter("svc.completed").add(3);
  reg.counter(obs::labeled("sj.cache.hits", {{"artifact", "grid"}})).add(2);
  reg.gauge("svc.queue_depth").set(2.5);
  std::ostringstream os;
  reg.write_openmetrics(os);
  EXPECT_EQ(os.str(),
            "# TYPE sj_cache_hits counter\n"
            "sj_cache_hits_total{artifact=\"grid\"} 2\n"
            "# TYPE svc_completed counter\n"
            "svc_completed_total 3\n"
            "# TYPE svc_queue_depth gauge\n"
            "svc_queue_depth 2.5\n"
            "# EOF\n");
}

TEST(Metrics, OpenMetricsResultCacheFamilyGolden) {
  // The result-serving layer's instrument family exactly as the
  // service emits it: five counters plus the byte gauge, name-sorted
  // within each kind (counters first, then gauges).
  obs::Registry reg;
  reg.counter("svc.result_cache.hits").add(4);
  reg.counter("svc.result_cache.misses").add(2);
  reg.counter("svc.result_cache.coalesced").add(3);
  reg.counter("svc.result_cache.subsumed").add(1);
  reg.counter("svc.result_cache.evictions").add(5);
  reg.counter("svc.result_cache.invalidations").add(1);
  reg.gauge("svc.result_cache.bytes").set(65536.0);
  std::ostringstream os;
  reg.write_openmetrics(os);
  EXPECT_EQ(os.str(),
            "# TYPE svc_result_cache_coalesced counter\n"
            "svc_result_cache_coalesced_total 3\n"
            "# TYPE svc_result_cache_evictions counter\n"
            "svc_result_cache_evictions_total 5\n"
            "# TYPE svc_result_cache_hits counter\n"
            "svc_result_cache_hits_total 4\n"
            "# TYPE svc_result_cache_invalidations counter\n"
            "svc_result_cache_invalidations_total 1\n"
            "# TYPE svc_result_cache_misses counter\n"
            "svc_result_cache_misses_total 2\n"
            "# TYPE svc_result_cache_subsumed counter\n"
            "svc_result_cache_subsumed_total 1\n"
            "# TYPE svc_result_cache_bytes gauge\n"
            "svc_result_cache_bytes 65536\n"
            "# EOF\n");
}

/// Minimal conformant OpenMetrics text-format scraper: validates line
/// grammar, family grouping (all samples of a family contiguous, TYPE
/// first), metric-name charset, summary quantile labels and the
/// mandatory `# EOF` terminator. Fills `families` with family->type
/// (void return: ASSERT_* requires it).
void scrape_openmetrics(const std::string& text,
                        std::map<std::string, std::string>& families) {
  std::istringstream in(text);
  std::string line, current_family, current_type;
  bool saw_eof = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(saw_eof) << "content after # EOF: " << line;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string family, type;
      ls >> family >> type;
      ASSERT_TRUE(type == "counter" || type == "gauge" || type == "summary")
          << line;
      ASSERT_EQ(families.count(family), 0u)
          << "family declared twice: " << family;
      families[family] = type;
      current_family = family;
      current_type = type;
      continue;
    }
    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    // Sample line: name[{labels}] value
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string series = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "unparseable value: " << line;

    std::string labels;
    const std::size_t brace = series.find('{');
    if (brace != std::string::npos) {
      ASSERT_EQ(series.back(), '}') << line;
      labels = series.substr(brace + 1, series.size() - brace - 2);
      series = series.substr(0, brace);
    }
    // Metric-name charset: [a-zA-Z_:][a-zA-Z0-9_:]*
    ASSERT_FALSE(series.empty());
    for (std::size_t i = 0; i < series.size(); ++i) {
      const char ch = series[i];
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      ch == '_' || ch == ':' ||
                      (i > 0 && ch >= '0' && ch <= '9');
      ASSERT_TRUE(ok) << "bad metric name char in: " << line;
    }
    // Label values must be quoted.
    if (!labels.empty()) {
      ASSERT_NE(labels.find('"'), std::string::npos) << line;
    }
    // Samples must belong to the declared family (contiguous grouping).
    ASSERT_FALSE(current_family.empty()) << "sample before # TYPE: " << line;
    ASSERT_EQ(series.rfind(current_family, 0), 0u)
        << "sample " << series << " outside family " << current_family;
    const std::string suffix = series.substr(current_family.size());
    if (current_type == "counter") {
      ASSERT_EQ(suffix, "_total") << line;
    } else if (current_type == "gauge") {
      ASSERT_EQ(suffix, "") << line;
    } else {  // summary
      ASSERT_TRUE(suffix == "" || suffix == "_sum" || suffix == "_count")
          << line;
      if (suffix.empty()) {
        ASSERT_NE(labels.find("quantile=\""), std::string::npos) << line;
      }
    }
  }
  ASSERT_TRUE(saw_eof) << "missing # EOF terminator";
}

TEST(Metrics, OpenMetricsScraperConformance) {
  obs::Registry reg;
  reg.counter("svc.submitted").add(10);
  reg.counter(obs::labeled("svc.completed", {{"status", "ok"}})).add(9);
  reg.gauge("svc.queue_depth").set(1.0);
  obs::CycleHistogram& ch = reg.cycle_histogram("sj.warp_cycles");
  ch.record(100);
  ch.record(100000);
  reg.time_histogram("svc.service_seconds").observe(0.25);

  std::ostringstream os;
  reg.write_openmetrics(os);
  std::map<std::string, std::string> families;
  ASSERT_NO_FATAL_FAILURE(scrape_openmetrics(os.str(), families));
  EXPECT_EQ(families.at("svc_submitted"), "counter");
  EXPECT_EQ(families.at("svc_completed"), "counter");
  EXPECT_EQ(families.at("svc_queue_depth"), "gauge");
  EXPECT_EQ(families.at("sj_warp_cycles"), "summary");
  EXPECT_EQ(families.at("svc_service_seconds"), "summary");

  // Deterministic ordering: two exports of the same state are
  // byte-identical.
  std::ostringstream os2;
  reg.write_openmetrics(os2);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(Metrics, RegistryJsonExportParses) {
  obs::Registry reg;
  reg.counter("a.count").add(5);
  reg.gauge("a.gauge").set(1.25);
  reg.cycle_histogram("a.cycles").record(1000);
  std::ostringstream os;
  reg.write_json(os);

  const json::JsonValue doc = json::json_parse(os.str());
  ASSERT_TRUE(doc.is_object());
  const json::JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const json::JsonValue* c = counters->find("a.count");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->as_number(), 5.0);
  const json::JsonValue* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::JsonValue* h = hists->find("a.cycles");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(h->find("p99"), nullptr);
}

// ------------------------------------------------------------------ json

TEST(Json, WriterParserRoundTrip) {
  std::ostringstream os;
  json::JsonWriter w(os);
  w.begin_object();
  w.key("s").value("he\"llo\n");
  w.key("i").value(std::int64_t{-42});
  w.key("u").value(std::uint64_t{18446744073709551615ull});
  w.key("d").value(0.1);
  w.key("b").value(true);
  w.key("n").null();
  w.key("arr").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.key("nested").begin_object().key("x").value(1.5).end_object();
  w.end_object();

  const json::JsonValue doc = json::json_parse(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("s")->as_string(), "he\"llo\n");
  EXPECT_DOUBLE_EQ(doc.find("i")->as_number(), -42.0);
  EXPECT_DOUBLE_EQ(doc.find("d")->as_number(), 0.1);
  EXPECT_TRUE(doc.find("b")->as_bool());
  EXPECT_TRUE(doc.find("n")->is_null());
  EXPECT_EQ(doc.find("arr")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("nested")->find("x")->as_number(), 1.5);
}

TEST(Json, ParserRejectsMalformed) {
  EXPECT_THROW((void)json::json_parse("{"), CheckError);
  EXPECT_THROW((void)json::json_parse("[1,]"), CheckError);
  EXPECT_THROW((void)json::json_parse("{} trailing"), CheckError);
  EXPECT_THROW((void)json::json_parse("\"unterminated"), CheckError);
}

// ----------------------------------------------------------- diagnostics

TEST(Diagnostics, KnownValues) {
  // Perfectly even: zero dispersion.
  const std::vector<std::uint64_t> even{10, 10, 10, 10};
  const obs::WarpImbalance e = obs::analyze_warp_cycles(even);
  EXPECT_DOUBLE_EQ(e.cov, 0.0);
  EXPECT_DOUBLE_EQ(e.gini, 0.0);
  EXPECT_EQ(e.p50_cycles, 10u);

  // One straggler among zeros: maximal concentration. With n values and
  // all mass on one, Gini = (n-1)/n.
  const std::vector<std::uint64_t> skew{0, 0, 0, 100};
  const obs::WarpImbalance s = obs::analyze_warp_cycles(skew);
  EXPECT_NEAR(s.gini, 0.75, 1e-12);
  EXPECT_NEAR(s.cov, std::sqrt(3.0), 1e-12);  // stddev/mean of {0,0,0,100}
  EXPECT_EQ(s.max_cycles, 100u);
}

TEST(Diagnostics, SlotStatsFromEvents) {
  // Two slots, two batches. Batch 0: slot 0 busy [0,10), slot 1 busy
  // [0,4) -> batch makespan 10, slot 1 idles 6. Batch 1 (offset 10):
  // only slot 1 runs [10,15) -> slot 0 idles 5.
  std::vector<obs::WarpEvent> evs(3);
  evs[0] = {.warp_id = 0, .start_cycle = 0, .cycles = 10, .slot = 0, .batch = 0};
  evs[1] = {.warp_id = 1, .start_cycle = 0, .cycles = 4, .slot = 1, .batch = 0};
  evs[2] = {.warp_id = 2, .start_cycle = 10, .cycles = 5, .slot = 1, .batch = 1};
  const auto slots = obs::slot_stats_from_events(evs, 2);
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].warps, 1u);
  EXPECT_EQ(slots[0].busy_cycles, 10u);
  EXPECT_EQ(slots[0].tail_idle_cycles, 5u);
  EXPECT_EQ(slots[1].warps, 2u);
  EXPECT_EQ(slots[1].busy_cycles, 9u);
  EXPECT_EQ(slots[1].tail_idle_cycles, 6u);
}

// ----------------------------------------------------------------- trace

TEST(Trace, SpanRecordsOnDestruction) {
  obs::Tracer t(obs::TimeMode::Logical);
  {
    auto sp = t.span("phase_a");
    auto inner = t.span("phase_b");
  }
  EXPECT_EQ(t.host_span_count(), 2u);
  const auto spans = t.host_spans();
  // Inner finishes first (destruction order).
  EXPECT_EQ(spans[0].name, "phase_b");
  EXPECT_EQ(spans[1].name, "phase_a");
  EXPECT_EQ(spans[1].tid, 0);  // main thread
}

TEST(Trace, NullTracerSpanIsInert) {
  auto sp = obs::span(nullptr, "nothing");
  sp.finish();  // must not crash
}

/// Runs a traced self-join on a small skewed dataset; shared by the
/// round-trip, acceptance and determinism tests.
SelfJoinOutput traced_join(obs::Tracer& tracer, obs::Registry* metrics,
                           bool work_queue) {
  const Dataset ds = gen_exponential(4000, 2, /*seed=*/3);
  SelfJoinConfig cfg = work_queue ? SelfJoinConfig::combined(0.5)
                                  : SelfJoinConfig::sort_by_wl(0.5);
  cfg.device.num_sms = 4;
  // Small buffer to force several batches.
  cfg.batching.buffer_pairs = 400'000;
  cfg.tracer = &tracer;
  cfg.metrics = metrics;
  return self_join(ds, cfg);
}

TEST(Trace, SelfJoinEmitsSpansAndDeviceEvents) {
  for (const bool wq : {false, true}) {
    obs::Tracer tracer;
    obs::Registry metrics;
    const SelfJoinOutput out = traced_join(tracer, &metrics, wq);

    // One batch event per planned batch, each with >= 1 warp.
    ASSERT_GT(out.stats.num_batches, 1u) << "wq=" << wq;
    EXPECT_EQ(tracer.batch_event_count(), out.stats.num_batches);
    for (const auto& b : tracer.batch_events()) EXPECT_GE(b.warps, 1u);

    // Every launched warp produced an event (acceptance bar: >= 95%).
    EXPECT_EQ(tracer.warp_event_count(), out.stats.kernel.warps_launched);

    // The pipeline phases appear as host spans.
    const auto spans = tracer.host_spans();
    auto has = [&spans](const char* name) {
      return std::any_of(spans.begin(), spans.end(),
                         [name](const obs::HostSpan& s) {
                           return s.name == name;
                         });
    };
    EXPECT_TRUE(has("self_join"));
    EXPECT_TRUE(has("grid_build"));
    EXPECT_TRUE(has("batch_plan"));
    EXPECT_TRUE(has("estimation_sample"));
    if (wq) {
      EXPECT_TRUE(has("workload_quantify"));
      EXPECT_TRUE(has("sortbywl_sort"));
    }

    // Diagnostics populated on SelfJoinStats.
    EXPECT_EQ(out.stats.warp_imbalance.warps, out.stats.kernel.warps_launched);
    EXPECT_GT(out.stats.warp_cycle_cov(), 0.0);
    ASSERT_EQ(out.stats.slots.size(),
              static_cast<std::size_t>(4 * 8));  // num_sms * resident
    std::uint64_t slot_warps = 0;
    for (const auto& s : out.stats.slots) slot_warps += s.warps;
    EXPECT_EQ(slot_warps, out.stats.kernel.warps_launched);

    // Metrics registry saw the same totals.
    EXPECT_EQ(metrics.counter("sj.warps_launched").value(),
              out.stats.kernel.warps_launched);
    EXPECT_EQ(metrics.counter("sj.result_pairs").value(),
              out.stats.result_pairs);
    EXPECT_EQ(metrics.cycle_histogram("sj.warp_cycles").total(),
              out.stats.kernel.warps_launched);
  }
}

TEST(Trace, ChromeJsonRoundTrip) {
  obs::Tracer tracer;
  const SelfJoinOutput out = traced_join(tracer, nullptr, true);

  std::ostringstream os;
  tracer.write_chrome_json(os);
  const json::JsonValue doc = json::json_parse(os.str());

  ASSERT_TRUE(doc.is_object());
  const json::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t batch_spans = 0, warp_spans = 0, host_spans = 0, metas = 0;
  for (const json::JsonValue& ev : events->as_array()) {
    ASSERT_TRUE(ev.is_object());
    const std::string& ph = ev.find("ph")->as_string();
    if (ph == "M") {
      ++metas;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("dur"), nullptr);
    const double pid = ev.find("pid")->as_number();
    const std::string& name = ev.find("name")->as_string();
    if (pid == 0.0) {
      ++host_spans;
    } else if (name.rfind("batch ", 0) == 0) {
      ++batch_spans;
    } else {
      ASSERT_EQ(name.rfind("warp ", 0), 0u);
      ++warp_spans;
    }
  }
  EXPECT_EQ(batch_spans, out.stats.num_batches);
  EXPECT_EQ(warp_spans, out.stats.kernel.warps_launched);
  EXPECT_EQ(host_spans, tracer.host_span_count());
  EXPECT_GT(metas, 4u);  // process/thread names incl. slot rows
}

TEST(Trace, ChromeJsonEscapesSpanNames) {
  // Span names flow verbatim into the exported JSON strings; every
  // JSON-significant byte must round-trip through a strict parser.
  const std::vector<std::string> names = {
      "quote \" inside",
      "back\\slash",
      "new\nline and\ttab",
      std::string("ctrl\x01\x1f bytes"),
      "unicode \xc3\xa9 passthrough",
  };
  obs::Tracer tracer(obs::TimeMode::Logical);
  for (const auto& n : names) tracer.span(n).finish();

  std::ostringstream os;
  tracer.write_chrome_json(os);
  const json::JsonValue doc = json::json_parse(os.str());
  const json::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::string> parsed;
  for (const json::JsonValue& ev : events->as_array()) {
    if (ev.find("ph")->as_string() != "X") continue;
    parsed.push_back(ev.find("name")->as_string());
  }
  ASSERT_EQ(parsed.size(), names.size());
  for (const auto& n : names) {
    EXPECT_NE(std::find(parsed.begin(), parsed.end(), n), parsed.end())
        << "name lost in export: " << n;
  }
}

TEST(Trace, LogicalModeTracesAreByteIdentical) {
  // The trace is a pure function of the execution in Logical mode
  // (device events are model cycles, host timestamps are sequence
  // ticks). Metrics are excluded: gauges like sj.host_prep_seconds
  // deliberately record wall time.
  std::string first, second;
  for (std::string* s : {&first, &second}) {
    obs::Tracer tracer(obs::TimeMode::Logical);
    (void)traced_join(tracer, nullptr, true);
    std::ostringstream trace_os;
    tracer.write_chrome_json(trace_os);
    *s = trace_os.str();
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-identical, not just equivalent
}

// -------------------------------------------------------------- superego

TEST(Trace, SuperEgoWorkerShardsMerge) {
  const Dataset ds = gen_uniform(20000, 2, /*seed=*/5);
  obs::Tracer tracer;
  obs::Registry metrics;
  SuperEgoConfig cfg;
  cfg.epsilon = 1.0;
  cfg.nthreads = 4;
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  const SuperEgoOutput out = super_ego_join(ds, cfg);

  // Phase spans from the main thread plus per-task spans from workers.
  const auto spans = tracer.host_spans();
  bool saw_sort = false, saw_join = false, saw_worker_tid = false;
  for (const auto& s : spans) {
    saw_sort |= s.name == "ego_sort";
    saw_join |= s.name == "ego_join";
    saw_worker_tid |= s.name == "ego_task" && s.tid >= 1;
  }
  EXPECT_TRUE(saw_sort);
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_worker_tid);  // worker attribution via current_worker()

  // Shard merge: totals match the stats the join itself reports.
  EXPECT_EQ(metrics.counter("ego.distance_calcs").value(),
            out.stats.distance_calcs);
  EXPECT_EQ(metrics.counter("ego.result_pairs").value(),
            out.stats.result_pairs);
  EXPECT_GT(metrics.counter("ego.tasks").value(), 1u);
  EXPECT_EQ(metrics.cycle_histogram("ego.task_distance_calcs").total(),
            metrics.counter("ego.tasks").value());
}

}  // namespace
}  // namespace gsj
