#include "metrics/throughput_timeline.h"

#include "support/check.h"
#include "support/units.h"

namespace adaptbf {

ThroughputTimeline::ThroughputTimeline(SimDuration bin_width)
    : bin_width_(bin_width) {
  ADAPTBF_CHECK(bin_width > SimDuration(0));
}

std::size_t ThroughputTimeline::bin_index(SimTime when) const {
  ADAPTBF_CHECK(when >= SimTime::zero());
  return static_cast<std::size_t>(when.ns() / bin_width_.ns());
}

const ThroughputTimeline::JobBins* ThroughputTimeline::find(JobId job) const {
  const std::uint32_t slot = slots_.find(job);
  return slot == JobSlots::kNone ? nullptr : &jobs_[slot];
}

void ThroughputTimeline::record(JobId job, std::uint32_t bytes, SimTime when) {
  const std::uint32_t slot = slots_.insert(job);
  if (slot == jobs_.size()) jobs_.emplace_back();
  JobBins& entry = jobs_[slot];
  auto& bins = entry.bytes_per_bin;
  const std::size_t index = bin_index(when);
  if (bins.size() <= index) bins.resize(index + 1, 0);
  bins[index] += bytes;
  entry.total += bytes;
}

std::vector<double> ThroughputTimeline::series_mibps(JobId job,
                                                     SimTime horizon) const {
  const std::size_t bins =
      static_cast<std::size_t>(horizon.ns() / bin_width_.ns()) +
      (horizon.ns() % bin_width_.ns() != 0 ? 1u : 0u);
  std::vector<double> series(bins, 0.0);
  const JobBins* entry = find(job);
  if (entry == nullptr) return series;
  const auto& job_bins = entry->bytes_per_bin;
  const double bin_sec = bin_width_.to_seconds();
  for (std::size_t i = 0; i < bins && i < job_bins.size(); ++i)
    series[i] = to_mib(job_bins[i]) / bin_sec;
  return series;
}

std::vector<double> ThroughputTimeline::aggregate_mibps(SimTime horizon) const {
  const std::size_t bins =
      static_cast<std::size_t>(horizon.ns() / bin_width_.ns()) +
      (horizon.ns() % bin_width_.ns() != 0 ? 1u : 0u);
  std::vector<double> series(bins, 0.0);
  const double bin_sec = bin_width_.to_seconds();
  for (std::uint32_t slot : slots_.ascending()) {
    const auto& job_bins = jobs_[slot].bytes_per_bin;
    for (std::size_t i = 0; i < bins && i < job_bins.size(); ++i)
      series[i] += to_mib(job_bins[i]) / bin_sec;
  }
  return series;
}

std::uint64_t ThroughputTimeline::total_bytes(JobId job) const {
  const JobBins* entry = find(job);
  return entry == nullptr ? 0 : entry->total;
}

std::uint64_t ThroughputTimeline::total_bytes() const {
  std::uint64_t total = 0;
  for (const JobBins& entry : jobs_) total += entry.total;
  return total;
}

double ThroughputTimeline::mean_mibps(JobId job, SimTime horizon) const {
  ADAPTBF_CHECK(horizon > SimTime::zero());
  return to_mib(total_bytes(job)) / horizon.to_seconds();
}

double ThroughputTimeline::aggregate_mean_mibps(SimTime horizon) const {
  ADAPTBF_CHECK(horizon > SimTime::zero());
  return to_mib(total_bytes()) / horizon.to_seconds();
}

std::vector<JobId> ThroughputTimeline::jobs() const {
  std::vector<JobId> ids;
  ids.reserve(slots_.size());
  for (std::uint32_t slot : slots_.ascending()) ids.push_back(slots_.job(slot));
  return ids;
}

}  // namespace adaptbf
