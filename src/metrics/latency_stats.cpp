#include "metrics/latency_stats.h"

#include "support/stats.h"

namespace adaptbf {

void LatencyStats::record(const RpcCompletion& completion) {
  const std::uint32_t slot = slots_.insert(completion.rpc.job);
  if (slot == samples_.size()) samples_.emplace_back();
  Samples& samples = samples_[slot];
  samples.total_ms.push_back(completion.latency().to_seconds() * 1e3);
  samples.queue_ms.push_back(completion.queue_delay().to_seconds() * 1e3);
}

LatencySummary LatencyStats::summarize(const std::vector<double>& values) {
  LatencySummary summary;
  if (values.empty()) return summary;
  summary.samples = values.size();
  StreamingStats stats;
  for (double v : values) stats.add(v);
  summary.mean_ms = stats.mean();
  summary.max_ms = stats.max();
  summary.p50_ms = percentile(values, 50.0);
  summary.p95_ms = percentile(values, 95.0);
  summary.p99_ms = percentile(values, 99.0);
  return summary;
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
  std::vector<double> all;
  for (std::uint32_t slot : slots_.ascending())
    all.insert(all.end(), samples_[slot].total_ms.begin(),
               samples_[slot].total_ms.end());
  return summarize(all);
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
