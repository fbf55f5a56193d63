// Per-job RPC latency collection.
//
// Burst-sensitive experiments (§IV-E) are better judged by how fast a burst
// clears than by mean bandwidth: a bursty job emitting 96 RPCs every few
// seconds shows the same MiB/s under any policy that eventually serves it,
// but its burst-completion latency differs wildly. This collector keeps
// every RPC's total latency and reports per-job and pooled percentiles.
#pragma once

#include <cstddef>
#include <vector>

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
  /// Room for `completions` records before the log grows.
  void reserve(std::size_t completions) {
    total_ms_.reserve(completions);
    job_.reserve(completions);
  }

  /// Records one completed RPC: two appends, no per-job lookup.
  void record(const RpcCompletion& completion) {
    total_ms_.push_back(completion.latency().to_seconds() * 1e3);
    job_.push_back(completion.rpc.job);
  }

  /// Percentile summary of total latency (issue -> completion) for a job.
  /// Zeroed summary if the job has no samples.
  [[nodiscard]] LatencySummary total_latency(JobId job) const;

  /// Summary across all jobs.
  [[nodiscard]] LatencySummary total_latency_all() const;

  /// total_latency_all()'s p50/p95/p99 without its mean/max fold. Zeroed
  /// if no RPC completed.
  [[nodiscard]] LatencyPercentiles total_latency_percentiles_all() const;

  /// Every job with a sample, in ascending JobId order.
  [[nodiscard]] std::vector<JobId> jobs() const;
  [[nodiscard]] std::size_t samples(JobId job) const;

 private:
  static LatencySummary summarize(std::vector<double> values);
  /// Every sample in one buffer of the exact size, job by job in ascending
  /// JobId order, each job's in completion order.
  [[nodiscard]] std::vector<double> pooled_by_job() const;

  // The log, in completion order: entry i is one RPC's total latency and
  // its job. total_latency_all() folds samples across jobs and
  // floating-point accumulation is rounding-order-sensitive, so it pools
  // job by job in ascending JobId order, never in log order (lint:
  // unordered-output). Percentiles are order statistics, selected exactly
  // on one buffer, so they are taken from the log as it stands.
  std::vector<double> total_ms_;
  std::vector<JobId> job_;
};

}  // namespace adaptbf
