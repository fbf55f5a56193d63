// One benchmark run: a workload, a seed, a measuring time, traced or not.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "digest.h"
#include "sweep/trial_sink.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the timed run and its end-to-end metrics; true: the traced run
  /// and its per-layer metrics.
  bool trace = false;
  /// Directory for the campaign journal.
  std::string work_dir;
  /// Start of the process: the first set-up is timed from here.
  Clock::time_point process_start = Clock::now();
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

/// Runs the benchmark. Trials whose digest differs from a cold
/// run_experiment of the same TrialSpec, or from `references` (the
/// workload's digests for kReferenceSeed), count as failed.
[[nodiscard]] RunReport run_benchmark(const RunConfig& config,
                                      const References& references);

/// Digests of every trial of `workload` at `seed`, each from a cold
/// run_experiment, in trial-index order.
[[nodiscard]] std::vector<std::uint64_t> cold_digests(
    const std::string& workload, std::uint64_t seed);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string report_json(const RunReport& report);

/// Forwarding TrialSink that times append() and flush().
class TimedSink final : public adaptbf::TrialSink {
 public:
  explicit TimedSink(adaptbf::TrialSink& inner) : inner_(inner) {}
  void append(const adaptbf::TrialResult& result) override;
  void flush() override;

  [[nodiscard]] const std::vector<double>& append_us() const {
    return append_us_;
  }
  [[nodiscard]] const std::vector<double>& flush_us() const {
    return flush_us_;
  }

 private:
  adaptbf::TrialSink& inner_;
  std::vector<double> append_us_;
  std::vector<double> flush_us_;
};

}  // namespace perfbench
