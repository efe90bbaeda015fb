// Wall-clock stopwatch used by operation statistics and benches, plus the
// process-wide monotonic clock anchor shared by logging and tracing.
#ifndef PPA_UTIL_TIMER_H_
#define PPA_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace ppa {

/// Microseconds on the steady clock since the first call in this process.
/// Both the logger's timestamps and the trace span clock read this, so log
/// lines and trace events share one time base.
inline uint64_t MonotonicMicros() {
  static const std::chrono::steady_clock::time_point process_start =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - process_start)
          .count());
}

/// Simple monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ppa

#endif  // PPA_UTIL_TIMER_H_
