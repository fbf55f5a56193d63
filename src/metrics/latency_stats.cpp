#include "metrics/latency_stats.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "rpc/job_slots.h"
#include "support/stats.h"

namespace adaptbf {

namespace {

/// p50/p95/p99 of a non-empty sample; reorders it.
LatencyPercentiles select_p50_p95_p99(std::span<double> values) {
  constexpr double kQs[] = {50.0, 95.0, 99.0};
  double p[std::size(kQs)];
  select_percentiles(values, kQs, p);
  return {p[0], p[1], p[2]};
}

}  // namespace

LatencySummary LatencyStats::summarize(std::vector<double> values) {
  LatencySummary summary;
  if (values.empty()) return summary;
  summary.samples = values.size();
  // The mean folds in sample order, so it runs before selection reorders.
  StreamingStats stats;
  for (double v : values) stats.add(v);
  summary.mean_ms = stats.mean();
  summary.max_ms = stats.max();
  const LatencyPercentiles p = select_p50_p95_p99(values);
  summary.p50_ms = p.p50_ms;
  summary.p95_ms = p.p95_ms;
  summary.p99_ms = p.p99_ms;
  return summary;
}

std::vector<double> LatencyStats::pooled_by_job() const {
  // One bucketing pass: count each job's samples, lay the jobs' ranges out
  // in ascending JobId order, then place every sample at its job's cursor.
  JobSlots slots;
  std::vector<std::uint32_t> slot_of(job_.size());
  for (std::size_t i = 0; i < job_.size(); ++i)
    slot_of[i] = slots.insert(job_[i]);
  std::vector<std::size_t> cursor(slots.size(), 0);
  for (std::uint32_t slot : slot_of) ++cursor[slot];
  std::size_t offset = 0;
  for (std::uint32_t slot : slots.ascending()) {
    const std::size_t count = cursor[slot];
    cursor[slot] = offset;
    offset += count;
  }
  std::vector<double> pooled(total_ms_.size());
  for (std::size_t i = 0; i < total_ms_.size(); ++i)
    pooled[cursor[slot_of[i]]++] = total_ms_[i];
  return pooled;
}

LatencySummary LatencyStats::total_latency(JobId job) const {
  std::vector<double> values;
  for (std::size_t i = 0; i < job_.size(); ++i)
    if (job_[i] == job) values.push_back(total_ms_[i]);
  return summarize(std::move(values));
}

LatencySummary LatencyStats::total_latency_all() const {
  return summarize(pooled_by_job());
}

LatencyPercentiles LatencyStats::total_latency_percentiles_all() const {
  std::vector<double> all = total_ms_;
  return all.empty() ? LatencyPercentiles{} : select_p50_p95_p99(all);
}

std::vector<JobId> LatencyStats::jobs() const {
  JobSlots slots;
  for (JobId job : job_) slots.insert(job);
  std::vector<JobId> ids;
  ids.reserve(slots.size());
  for (std::uint32_t slot : slots.ascending()) ids.push_back(slots.job(slot));
  return ids;
}

std::size_t LatencyStats::samples(JobId job) const {
  return static_cast<std::size_t>(std::count(job_.begin(), job_.end(), job));
}

}  // namespace adaptbf
