// Wall-clock timing helper used by the benchmark harness and the
// SUPER-EGO baseline (the simulated GPU reports model cycles instead).
#pragma once

#include <chrono>

namespace gsj {

/// Monotonic stopwatch. Starts on construction; `seconds()` reads the
/// elapsed time without stopping; `restart()` resets the origin.
class Timer {
 public:
  Timer() noexcept : start_(clock::now()) {}

  void restart() noexcept { start_ = clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace gsj
