#include "metrics/latency_stats.h"

#include <iterator>
#include <span>

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

void LatencyStats::record(const RpcCompletion& completion) {
  const std::uint32_t slot = slots_.insert(completion.rpc.job);
  if (slot == samples_.size()) samples_.emplace_back();
  Samples& samples = samples_[slot];
  samples.total_ms.push_back(completion.latency().to_seconds() * 1e3);
  samples.queue_ms.push_back(completion.queue_delay().to_seconds() * 1e3);
}

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

std::vector<double> LatencyStats::pooled_total_ms() const {
  std::size_t count = 0;
  for (const Samples& samples : samples_) count += samples.total_ms.size();
  std::vector<double> all;
  all.reserve(count);
  for (std::uint32_t slot : slots_.ascending())
    all.insert(all.end(), samples_[slot].total_ms.begin(),
               samples_[slot].total_ms.end());
  return all;
}

const LatencyStats::Samples* LatencyStats::find(JobId job) const {
  const std::uint32_t slot = slots_.find(job);
  return slot == JobSlots::kNone ? nullptr : &samples_[slot];
}

LatencySummary LatencyStats::total_latency(JobId job) const {
  const Samples* samples = find(job);
  return samples == nullptr ? LatencySummary{} : summarize(samples->total_ms);
}

LatencySummary LatencyStats::queue_delay(JobId job) const {
  const Samples* samples = find(job);
  return samples == nullptr ? LatencySummary{} : summarize(samples->queue_ms);
}

LatencySummary LatencyStats::total_latency_all() const {
  return summarize(pooled_total_ms());
}

LatencyPercentiles LatencyStats::total_latency_percentiles_all() const {
  std::vector<double> all = pooled_total_ms();
  return all.empty() ? LatencyPercentiles{} : select_p50_p95_p99(all);
}

std::vector<JobId> LatencyStats::jobs() const {
  std::vector<JobId> ids;
  ids.reserve(slots_.size());
  for (std::uint32_t slot : slots_.ascending()) ids.push_back(slots_.job(slot));
  return ids;
}

std::size_t LatencyStats::samples(JobId job) const {
  const Samples* samples = find(job);
  return samples == nullptr ? 0 : samples->total_ms.size();
}

}  // namespace adaptbf
