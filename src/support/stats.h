// Streaming summary statistics and percentile helpers used by the metrics
// layer and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace adaptbf {

/// Single-pass mean / variance / min / max accumulator (Welford's method).
/// Numerically stable for long throughput timelines.
class StreamingStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< Sample variance (n-1 divisor).
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction friendly).
  void merge(const StreamingStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentiles of a sample using linear interpolation between closest
/// ranks: out[i] is the percentile at qs[i]. `qs` must be ascending, each in
/// [0, 100], and `out` as long as `qs`. Exact, with no sort and no copy:
/// `values` is reordered in place so that only the order statistics the
/// `qs` interpolate between are placed, by chained std::nth_element. For a
/// given sample the results do not depend on its order.
void select_percentiles(std::span<double> values, std::span<const double> qs,
                        std::span<double> out);

/// Percentile of a sample at one `q` in [0, 100] (select_percentiles on a
/// copy: the original is not reordered).
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]; 1 = all equal.
/// Degenerate inputs (empty, or all-zero shares) return 1.0 — equal by
/// vacuity — so trial summaries never abort on jobless scenarios.
/// Used by tests to quantify share fairness across jobs.
[[nodiscard]] double jain_fairness(std::span<const double> values);

}  // namespace adaptbf
