// Monotonic stopwatch used by instrumentation that reports real elapsed
// time (partitioning overhead, total harness runtime, obs:: trace spans).
// The BSP cluster itself is timed with the deterministic virtual-time
// cost model in bsp/cost_model.h.
//
// The clock is guaranteed steady (never steps backwards across NTP
// adjustments — the static_assert below pins it), so elapsed readings
// are always non-negative. obs::trace spans read the same clock.
#pragma once

#include <chrono>

namespace ebv {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "Timer requires a monotonic clock: elapsed readings must "
                "never go backwards");
  Clock::time_point start_;
};

/// CPU seconds consumed by the whole process (every thread) since it
/// started. Paired with Timer wall readings in RunStats (the
/// `run --phase-stats` footer) to show parallel efficiency (cpu/wall ≈
/// busy cores).
[[nodiscard]] double process_cpu_seconds();

}  // namespace ebv
