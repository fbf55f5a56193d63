// Per-job RPC latency collection.
//
// Burst-sensitive experiments (§IV-E) are better judged by how fast a burst
// clears than by mean bandwidth: a bursty job emitting 96 RPCs every few
// seconds shows the same MiB/s under any policy that eventually serves it,
// but its burst-completion latency differs wildly. This collector keeps
// per-job queue-delay and total-latency samples and reports percentiles.
#pragma once

#include <vector>

#include "rpc/job_slots.h"
#include "rpc/rpc.h"
#include "sim/time.h"

namespace adaptbf {

struct LatencySummary {
  std::size_t samples = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Pooled latency percentiles alone: the trial row's view, with no mean or
/// max to fold.
struct LatencyPercentiles {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

class LatencyStats {
 public:
  /// Records one completed RPC.
  void record(const RpcCompletion& completion);

  /// Percentile summary of total latency (issue -> completion) for a job.
  /// Zeroed summary if the job has no samples.
  [[nodiscard]] LatencySummary total_latency(JobId job) const;

  /// Percentile summary of queueing delay (issue -> service start).
  [[nodiscard]] LatencySummary queue_delay(JobId job) const;

  /// Summary across all jobs.
  [[nodiscard]] LatencySummary total_latency_all() const;

  /// total_latency_all()'s p50/p95/p99 without its mean/max fold. Zeroed
  /// if no RPC completed.
  [[nodiscard]] LatencyPercentiles total_latency_percentiles_all() const;

  [[nodiscard]] std::vector<JobId> jobs() const;
  [[nodiscard]] std::size_t samples(JobId job) const;

 private:
  struct Samples {
    std::vector<double> total_ms;
    std::vector<double> queue_ms;
  };
  static LatencySummary summarize(std::vector<double> values);
  /// Every job's total-latency samples in one buffer of the exact size,
  /// job by job in ascending JobId order.
  [[nodiscard]] std::vector<double> pooled_total_ms() const;
  [[nodiscard]] const Samples* find(JobId job) const;

  // Per-slot storage. total_latency_all() folds samples across jobs and
  // floating-point accumulation is rounding-order-sensitive, so every
  // cross-job walk goes through slots_.ascending(), never slot order
  // (lint: unordered-output). Percentiles are order statistics, selected
  // exactly on one buffer, so pooling order cannot change them.
  JobSlots slots_;
  std::vector<Samples> samples_;  ///< By job slot.
};

}  // namespace adaptbf
