// Always-on flight recorder: a fixed-capacity, lock-free ring of
// recent observability breadcrumbs, cheap enough to leave enabled in
// serving mode and dumped post hoc when a request goes wrong
// (Failed/Expired responses, overflow-retry exhaustion, CheckError).
//
// Design:
//
//  * Per-thread shards. Each recording thread hashes (round-robin at
//    first use) onto one of a fixed set of shards; a shard is a ring of
//    atomic slots indexed by an atomic head counter. record() is a
//    handful of relaxed atomic stores plus one release store of the
//    global sequence number — no locks, no allocation, no formatting.
//  * Events are points, not spans, and carry no wall-clock timestamp —
//    ordering comes from the global sequence counter alone. That makes
//    a dump a pure function of the execution: two runs of the same
//    deterministic workload (the --logical-time bar) serialize to
//    byte-identical dumps, because nothing in an event depends on time.
//  * Event names must be string literals (static storage duration):
//    the slot stores the pointer, never copies the bytes. Every call
//    site in this repo passes a literal.
//  * snapshot()/dump() merge the shards and sort by sequence number.
//    They are exact once writers have quiesced (the failure-dump and
//    test paths); concurrent with writers they are a best-effort tail —
//    a slot being overwritten mid-read can pair a name with a
//    neighbouring write's value, but every field access stays a
//    data-race-free atomic load.
//
// Capacity is fixed at construction; older events are overwritten
// (it is a *flight recorder*, not a log).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

namespace gsj::obs {

class FlightRecorder {
 public:
  struct Event {
    std::uint64_t seq = 0;  ///< global order (1-based; 0 = empty slot)
    std::uint64_t request_id = 0;
    std::uint64_t value = 0;
    const char* name = nullptr;
  };

  /// `capacity_per_shard` slots in each of `shards` rings; total
  /// retained history is their product. Both clamped to >= 1.
  explicit FlightRecorder(std::size_t capacity_per_shard = 1024,
                          std::size_t shards = 8);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one breadcrumb. `name` MUST have static storage duration
  /// (pass a string literal). Lock-free; safe from any thread.
  void record(const char* name, std::uint64_t request_id,
              std::uint64_t value) noexcept;

  /// Merged view of every retained event, oldest first (by sequence).
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Human-readable dump, oldest first: one "req=<id> <name> value=<v>"
  /// line per event. `request_id` != 0 filters to that request. The
  /// output contains no timestamps or sequence numbers, so identical
  /// executions dump byte-identical text.
  void dump(std::ostream& os, std::uint64_t request_id = 0) const;

  [[nodiscard]] std::size_t capacity_per_shard() const noexcept {
    return capacity_;
  }
  /// Total events ever recorded (not the retained count).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> request{0};
    std::atomic<std::uint64_t> value{0};
    std::atomic<const char*> name{nullptr};
  };
  struct Shard {
    std::atomic<std::uint64_t> head{0};
    std::unique_ptr<Slot[]> ring;
  };

  [[nodiscard]] Shard& shard_for_thread() noexcept;

  std::size_t capacity_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> next_shard_{0};
  std::vector<Shard> shards_;
};

}  // namespace gsj::obs
