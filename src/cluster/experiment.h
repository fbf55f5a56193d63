// Experiment harness: ScenarioSpec in, ExperimentResult out.
//
// Wires a full single-OST testbed — simulator, OST with the policy's
// scheduler, client system with every process of every job — runs it, and
// collects the timeline, per-job summaries and (for AdapTBF) the
// allocation/record trace. This is the programmatic equivalent of one
// CloudLab run in §IV.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "adaptbf/allocation_types.h"
#include "metrics/latency_stats.h"
#include "metrics/throughput_timeline.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace adaptbf {

struct JobSummary {
  JobId id;
  std::string name;
  std::uint32_t nodes = 0;
  std::uint64_t rpcs_completed = 0;
  std::uint64_t bytes_completed = 0;
  /// Bytes over the job's active span: completion time for jobs that
  /// finished, the full horizon otherwise. This is the "achieved I/O
  /// bandwidth per job" of Figs. 4a/6a/8a — a job that finished early
  /// because it received more tokens shows the higher rate it ran at.
  double mean_mibps = 0.0;
  /// Time the job's last process finished; zero if it ran to the horizon.
  SimTime finish_time;
  bool finished = false;
};

struct ExperimentResult {
  std::string scenario_name;
  BwControl control = BwControl::kNone;
  SimTime horizon;  ///< Measured span (duration, or early-idle stop point).
  double max_token_rate = 0.0;  ///< T_i used (tokens/s).

  ThroughputTimeline timeline;
  LatencyStats latency;
  std::vector<JobSummary> jobs;  ///< Ascending JobId.
  double aggregate_mibps = 0.0;
  std::uint64_t total_bytes = 0;

  /// One entry per observation window (AdapTBF runs only).
  std::vector<WindowResult> allocation_trace;

  std::uint64_t events_dispatched = 0;
  /// Per-trial event-core counters (reset() zeroes them when a simulator
  /// is reused across trials, so these never mix trials).
  EventQueue::Stats queue_stats;
  /// Event slots the trial's arena ended with — compare against
  /// estimate_peak_events() to judge the pre-sizing heuristic.
  std::size_t event_pool_slots = 0;

  /// Binary search over the id-sorted `jobs` vector.
  [[nodiscard]] const JobSummary* find_job(JobId id) const {
    const auto it = std::lower_bound(
        jobs.begin(), jobs.end(), id,
        [](const JobSummary& summary, JobId key) { return summary.id < key; });
    return it != jobs.end() && it->id == id ? &*it : nullptr;
  }

  /// (JobId, name) pairs in ascending id order — the labels argument the
  /// metrics/report.h tables take.
  [[nodiscard]] std::vector<std::pair<JobId, std::string>> job_labels() const;
};

struct ExperimentOptions {
  /// Record every WindowResult (memory ~ jobs x windows). On for figure
  /// benches, off for sweeps that only need summaries.
  bool capture_allocation_trace = true;
  /// Forwarded to Simulator::set_dispatch_hook: observes every dispatched
  /// event as (fire time, schedule sequence). Used by the golden-trace
  /// tests that pin the exact dispatch order of the paper scenarios.
  Simulator::DispatchHook dispatch_hook;
  /// Optional externally owned simulator to run the trial on, for arena
  /// reuse across trials: run_experiment calls reset() first. nullptr (the
  /// default) runs the trial on a private simulator.
  Simulator* simulator = nullptr;

  /// Sweep default: summaries only, no per-window trace.
  [[nodiscard]] static ExperimentOptions without_trace() {
    ExperimentOptions options;
    options.capture_allocation_trace = false;
    return options;
  }
};

/// Scenario-derived bound on concurrently pending events, used to pre-size
/// the trial's event arena: per process one arrival/wakeup plus one event
/// per inflight RPC stage, per OST a disk completion, thread wakeups, and
/// the control daemon's periodics, plus slack for transients. Replaces the
/// old hard-coded 4096, which over-reserved small scenarios 30x and
/// under-reserved million-client ones.
[[nodiscard]] std::size_t estimate_peak_events(const ScenarioSpec& spec);

/// Ceiling on the latency-log records a trial reserves up front (16 Mi
/// records, about 200 MB). A trial that completes more grows the log.
inline constexpr std::size_t kMaxReservedCompletions = std::size_t{1} << 24;

/// RPCs a trial can complete, used to reserve its latency log once: no
/// more than its processes declare, nor than its OSTs admit at the
/// trial's `max_token_rate` (T_i, positive) over the duration, nor
/// kMaxReservedCompletions. Each of the first two alone can be absurd
/// (`total` is an unchecked u64 in scenario files, the rate and duration
/// unchecked doubles).
[[nodiscard]] std::size_t estimate_completions(const ScenarioSpec& spec,
                                               double max_token_rate);

/// Runs one scenario to its horizon. Deterministic: equal specs give
/// bit-identical results.
[[nodiscard]] ExperimentResult run_experiment(const ScenarioSpec& spec,
                                              const ExperimentOptions& options = {});

}  // namespace adaptbf
