#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace adaptbf {

void StreamingStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double StreamingStats::mean() const { return n_ ? mean_ : 0.0; }

double StreamingStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double StreamingStats::min() const { return n_ ? min_ : 0.0; }

double StreamingStats::max() const { return n_ ? max_ : 0.0; }

void StreamingStats::merge(const StreamingStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void select_percentiles(std::span<double> values, std::span<const double> qs,
                        std::span<double> out) {
  ADAPTBF_CHECK(!values.empty());
  ADAPTBF_CHECK(out.size() == qs.size());
  const std::size_t n = values.size();
  // Invariant: [next, n) holds exactly the order statistics of ranks next
  // and up, unordered, and each rank placed so far sits at its position.
  // Ascending qs only ever revisit the last lo/hi pair placed, so every
  // selection runs on the unplaced tail alone.
  std::size_t next = 0;
  auto place = [&](std::size_t rank) {
    if (rank < next) return;
    std::nth_element(values.begin() + next, values.begin() + rank,
                     values.end());
    next = rank + 1;
  };
  double previous_q = 0.0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const double q = qs[i];
    ADAPTBF_CHECK(q >= 0.0 && q <= 100.0);
    ADAPTBF_CHECK(q >= previous_q);
    previous_q = q;
    if (n == 1) {
      out[i] = values.front();
      continue;
    }
    const double rank = q / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = rank - static_cast<double>(lo);
    place(lo);
    place(hi);
    out[i] = values[lo] + frac * (values[hi] - values[lo]);
  }
}

double percentile(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  double out = 0.0;
  select_percentiles(copy, std::span<const double>(&q, 1),
                     std::span<double>(&out, 1));
  return out;
}

double jain_fairness(std::span<const double> values) {
  // Degenerate inputs are defined, not checked: a scenario can legitimately
  // complete with zero jobs (empty workload, all-idle horizon), and a
  // campaign must summarize such a trial rather than abort the process.
  // Zero jobs — like all-zero shares below — is "nobody is disadvantaged":
  // fairness 1.
  if (values.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;  // all zero shares: degenerate but equal
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace adaptbf
