// Shared observability wiring (ObsContext) plus the request-scoped
// attribution types threaded from JoinService down to the execution
// stage.
//
// Before this header, EngineConfig and ServiceConfig each carried their
// own tracer/metrics pointer pair, so a tool that wanted one registry
// for "the whole serving stack" had to remember to thread the same
// pointers into every config it built — miss one and part of the
// telemetry lands in an orphan registry nobody exports. ObsContext is
// that pointer set as a single value: construct one, hand it to the
// service (or engine), and every channel instrument — svc.*, the
// sj.cache.* family, request spans, flight-recorder breadcrumbs —
// reaches the same sinks by construction.
//
// RequestBreakdown is the queryable half of request attribution: the
// service fills one per submitted request (JoinResponse::breakdown) so
// callers can read the wait/plan/execute split and the per-artifact
// cache hit/miss story without parsing an exported trace.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/trace.hpp"

namespace gsj::obs {

class Registry;
class FlightRecorder;

/// One observability channel: every member optional and non-owning.
/// Copyable by design — a config embeds the context by value, so two
/// configs built from the same ObsContext agree on the same sinks.
struct ObsContext {
  Tracer* tracer = nullptr;
  Registry* metrics = nullptr;
  FlightRecorder* recorder = nullptr;
};

/// How a submit()ted request's answer was produced (docs/SERVICE.md
/// result-serving layer). Everything except Execution was served from
/// the service's result cache without occupying a worker for a join.
enum class ServedFrom : std::uint8_t {
  Execution,    ///< ran the full plan+execute pipeline
  ResultCache,  ///< exact ε hit on a cached result
  Coalesced,    ///< attached to an identical in-flight execution
  Subsumed,     ///< filtered from a cached ε' ≥ ε result
};

[[nodiscard]] constexpr const char* to_string(ServedFrom s) noexcept {
  switch (s) {
    case ServedFrom::Execution:
      return "execute";
    case ServedFrom::ResultCache:
      return "result_cache";
    case ServedFrom::Coalesced:
      return "coalesced";
    case ServedFrom::Subsumed:
      return "subsumed";
  }
  return "unknown";
}

/// Per-request latency/attribution summary (JoinResponse::breakdown).
/// All fields are totals for one request; seconds are wall time.
struct RequestBreakdown {
  std::uint64_t request_id = 0;
  /// How the response was produced; Execution unless the result-serving
  /// layer answered from its cache or an in-flight duplicate.
  ServedFrom served_from = ServedFrom::Execution;
  double wait_seconds = 0.0;     ///< admission-queue wait
  double plan_seconds = 0.0;     ///< plan stage (host_prep_seconds)
  double execute_seconds = 0.0;  ///< batched execution stage
  // Per-artifact cache events observed while planning this request.
  std::uint64_t grid_hits = 0, grid_misses = 0;
  std::uint64_t workload_hits = 0, workload_misses = 0;
  std::uint64_t order_hits = 0, order_misses = 0;
  std::uint64_t estimate_hits = 0, estimate_misses = 0;
  std::uint64_t batches = 0;
  std::uint64_t overflow_retries = 0;
  std::uint64_t result_pairs = 0;

  /// Routes one plan-cache event ("grid"/"workload"/"order"/"estimate")
  /// into the matching hit/miss field. Unknown artifacts are ignored.
  void count_cache(std::string_view artifact, bool hit) noexcept {
    if (artifact == "grid") {
      ++(hit ? grid_hits : grid_misses);
    } else if (artifact == "workload") {
      ++(hit ? workload_hits : workload_misses);
    } else if (artifact == "order") {
      ++(hit ? order_hits : order_misses);
    } else if (artifact == "estimate") {
      ++(hit ? estimate_hits : estimate_misses);
    }
  }

  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return grid_hits + workload_hits + order_hits + estimate_hits;
  }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept {
    return grid_misses + workload_misses + order_misses + estimate_misses;
  }
};

/// Request-scoped observability bundle threaded through the pipeline
/// (JoinService::execute -> plan_and_execute -> ServicePlanSource and
/// ExecutionInputs).
/// Null members degrade gracefully; ctx.request_id == 0 means "not a
/// tracked request" and suppresses request-span emission entirely, so
/// direct engine runs stay byte-identical to their pre-request-span
/// traces.
struct RequestObs {
  Tracer* tracer = nullptr;  ///< service channel (request span tree)
  SpanContext ctx;           ///< request id + parent span id
  FlightRecorder* recorder = nullptr;
  RequestBreakdown* breakdown = nullptr;
};

}  // namespace gsj::obs
