// Clock and summary statistics shared by the benchmark driver.
//
// Every timing in the benchmark is taken with std::chrono::steady_clock
// in whole nanoseconds and kept in nanoseconds until it is reported, so
// sub-microsecond differences between point reads survive (util::Timer
// truncates to whole microseconds).

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile `q` in [0, 1] (the numpy default) of
/// `v`, which is sorted in place. 0 for an empty sample.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

inline double Median(std::vector<double> v) { return Quantile(v, 0.5); }

/// The reported tail of a sample of `n`: p99 once there are 1,000
/// samples, else the highest quantile with at least ten samples beyond
/// it, else the maximum.
inline double TailQuantile(size_t n) {
  if (n >= 1000) return 0.99;
  if (n > 10) return 1.0 - 10.0 / static_cast<double>(n);
  return 1.0;
}

/// Geometric mean of the positive entries (0 when there are none), so
/// that each engine or cell counts once however fast it is.
inline double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  size_t n = 0;
  for (double x : v) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
