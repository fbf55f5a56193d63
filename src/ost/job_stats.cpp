#include "ost/job_stats.h"

namespace adaptbf {

JobStatsTracker::Entry& JobStatsTracker::entry(JobId job) {
  const std::uint32_t slot = slots_.insert(job);
  if (slot == entries_.size()) entries_.push_back(Entry{{job, 0, 0}, {}});
  return entries_[slot];
}

void JobStatsTracker::record_arrival(const Rpc& rpc) {
  Entry& e = entry(rpc.job);
  ++e.window.rpcs;
  e.window.bytes += rpc.size_bytes;
  ++e.cumulative.rpcs_issued;
  e.cumulative.bytes_issued += rpc.size_bytes;
}

void JobStatsTracker::record_completion(const Rpc& rpc) {
  Entry& e = entry(rpc.job);
  ++e.cumulative.rpcs_completed;
  e.cumulative.bytes_completed += rpc.size_bytes;
}

std::vector<JobWindowStats> JobStatsTracker::window_snapshot() const {
  std::vector<JobWindowStats> jobs;
  window_snapshot(jobs);
  return jobs;
}

void JobStatsTracker::window_snapshot(std::vector<JobWindowStats>& out) const {
  out.clear();
  for (std::uint32_t slot : slots_.ascending())
    if (entries_[slot].window.rpcs > 0) out.push_back(entries_[slot].window);
}

void JobStatsTracker::clear_window() {
  for (Entry& e : entries_) e.window.rpcs = e.window.bytes = 0;
}

const JobCumulativeStats* JobStatsTracker::cumulative(JobId job) const {
  const std::uint32_t slot = slots_.find(job);
  return slot == JobSlots::kNone ? nullptr : &entries_[slot].cumulative;
}

std::vector<JobId> JobStatsTracker::jobs_ever_seen() const {
  std::vector<JobId> jobs;
  jobs.reserve(slots_.size());
  for (std::uint32_t slot : slots_.ascending()) jobs.push_back(slots_.job(slot));
  return jobs;
}

}  // namespace adaptbf
