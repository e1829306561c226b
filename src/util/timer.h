#ifndef ESD_UTIL_TIMER_H_
#define ESD_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace esd::util {

/// Monotonic wall-clock stopwatch used by the benchmark harness.
class Timer {
 public:
  Timer() { Reset(); }

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Reset(), in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace esd::util

#endif  // ESD_UTIL_TIMER_H_
