// Per-job throughput timelines, binned like the paper's plots.
//
// The evaluation figures plot per-job aggregated I/O throughput with one
// observation every 100 ms (Fig. 3/5). This collector buckets completed
// RPC bytes into fixed-width bins per job and converts to MiB/s series.
#pragma once

#include <cstdint>
#include <vector>

#include "rpc/job_slots.h"
#include "rpc/rpc.h"
#include "sim/time.h"

namespace adaptbf {

class ThroughputTimeline {
 public:
  explicit ThroughputTimeline(SimDuration bin_width = SimDuration::millis(100));

  /// Records a completed RPC's bytes into the bin of its completion time.
  void record(JobId job, std::uint32_t bytes, SimTime when);

  /// MiB/s series for one job, length >= bins spanning [0, horizon).
  [[nodiscard]] std::vector<double> series_mibps(JobId job,
                                                 SimTime horizon) const;

  /// Aggregate MiB/s series across all jobs.
  [[nodiscard]] std::vector<double> aggregate_mibps(SimTime horizon) const;

  /// Total bytes recorded for a job (0 if unseen).
  [[nodiscard]] std::uint64_t total_bytes(JobId job) const;
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Mean MiB/s for a job over [0, horizon).
  [[nodiscard]] double mean_mibps(JobId job, SimTime horizon) const;
  [[nodiscard]] double aggregate_mean_mibps(SimTime horizon) const;

  [[nodiscard]] std::vector<JobId> jobs() const;
  [[nodiscard]] SimDuration bin_width() const { return bin_width_; }

 private:
  struct JobBins {
    std::vector<std::uint64_t> bytes_per_bin;
    std::uint64_t total = 0;
  };
  [[nodiscard]] std::size_t bin_index(SimTime when) const;
  [[nodiscard]] const JobBins* find(JobId job) const;

  // Per-slot storage. aggregate_mibps() sums doubles across jobs, so every
  // cross-job walk goes through slots_.ascending(), never slot order
  // (lint: unordered-output).
  SimDuration bin_width_;
  JobSlots slots_;
  std::vector<JobBins> jobs_;  ///< By job slot.
};

}  // namespace adaptbf
