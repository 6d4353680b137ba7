// Small measurement helpers shared by the perfbench harness: wall and CPU
// clocks, the heap-allocation counter, peak RSS and order statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// operator-new calls in this process so far (alloc_count.cpp replaces the
/// global allocation functions with a counting malloc shim).
[[nodiscard]] std::uint64_t allocs_so_far() noexcept;

/// Process peak resident set size in MiB (getrusage high-water mark).
[[nodiscard]] double peak_rss_mb();

/// User + system CPU seconds consumed by this process so far.
[[nodiscard]] double cpu_seconds();

/// The p-quantile of a sample, interpolating between order statistics
/// (p = 0.5 is the median; 0 for an empty sample).
inline double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median over `reps` batches of the wall milliseconds of one fn() call.
/// A batch repeats fn() until it has run for at least 1 ms, so a phase far
/// shorter than the clock's resolution still reads with all its digits.
template <typename F>
double median_ms(int reps, F&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    std::uint64_t calls = 0;
    double s = 0;
    do {
      fn();
      ++calls;
      s = seconds_since(t0);
    } while (s < 1e-3);
    ms.push_back(s * 1e3 / static_cast<double>(calls));
  }
  return median(std::move(ms));
}

}  // namespace perfbench
