// Wall-clock timing utilities used by the benchmark runner.

#ifndef GDBMICRO_UTIL_TIMER_H_
#define GDBMICRO_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>
#include <ctime>

namespace gdbmicro {

/// Monotonic stopwatch. ElapsedMillis keeps the clock's nanoseconds, so
/// sub-microsecond operations do not read as zero.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// The calling thread's consumed CPU time in microseconds, or -1 when the
/// platform offers no per-thread clock.
inline int64_t ThreadCpuMicros() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
  }
#endif
  return -1;
}

/// Busy-waits until the *calling thread* has consumed `micros`
/// microseconds of CPU time. Used by the engine cost models to charge
/// deterministic, CPU-bound time for emulated out-of-process work (REST
/// round trips, backend commit paths). Spinning (rather than sleeping)
/// keeps the charge accurate at microsecond scale; spinning on the
/// thread's CPU clock (rather than the wall clock) keeps it correct under
/// concurrency — a preempted thread is not billed for time it never
/// executed, so N concurrent sessions each pay exactly their own charges
/// instead of amplifying scheduler noise into the measurements. Platforms
/// without a per-thread clock fall back to the wall-clock spin.
inline void SpinFor(int64_t micros) {
  if (micros <= 0) return;
  int64_t start = ThreadCpuMicros();
  if (start >= 0) {
    while (ThreadCpuMicros() - start < micros) {
      // spin
    }
    return;
  }
  Timer t;
  while (t.ElapsedMicros() < micros) {
    // spin
  }
}

}  // namespace gdbmicro

#endif  // GDBMICRO_UTIL_TIMER_H_
