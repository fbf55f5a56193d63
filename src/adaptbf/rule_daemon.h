// Rule Management Daemon (§III-D).
//
// Translates a window's token allocations into live NRS-TBF rules:
//   * stops rules whose job was not active this window (its RPCs then flow
//     through the fallback queue, so inactive jobs never starve),
//   * starts one JobID rule per newly active job,
//   * re-rates existing rules to the allocated tokens / Δt,
//   * ranks rules by job priority so the hierarchy prefers high-priority
//     queues (lower rank = classified and tie-broken first).
//
// Each job's rule spec and name are built once, at the job's first window;
// later windows address the rule by its TbfScheduler::RuleId, so a window
// does no string work and allocates nothing once every job has been seen.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adaptbf/allocation_types.h"
#include "rpc/job_slots.h"
#include "tbf/tbf_scheduler.h"

namespace adaptbf {

struct RuleDaemonConfig {
  std::string rule_prefix = "job_";
  /// Lustre TBF refuses zero rates; a job allocated zero tokens is parked
  /// at this floor rather than frozen (its next RPCs keep flowing slowly
  /// and will re-activate it).
  double min_rate = 1.0;
  /// Bucket depth for created rules (Lustre default 3).
  double depth = 3.0;
};

class RuleDaemon {
 public:
  RuleDaemon(TbfScheduler& scheduler, RuleDaemonConfig config);

  /// Reconciles the scheduler's rule set with the window's allocations.
  void apply(const WindowResult& window, SimTime now);

  [[nodiscard]] std::uint64_t rules_started() const { return started_; }
  [[nodiscard]] std::uint64_t rules_changed() const { return changed_; }
  [[nodiscard]] std::uint64_t rules_stopped() const { return stopped_; }

  [[nodiscard]] std::string rule_name(JobId job) const;

 private:
  struct JobRule {
    RuleSpec spec;  ///< Name and matcher fixed; rate and rank per window.
    TbfScheduler::RuleId id = TbfScheduler::kNoRule;
    bool owned = false;  ///< Started by this daemon and not yet stopped.
    std::uint64_t desired_window = 0;  ///< Last window listing the job.
  };

  /// The job's entry, created (name, matcher) on first sight.
  JobRule& job_rule(JobId job);

  TbfScheduler& scheduler_;
  RuleDaemonConfig config_;
  JobSlots slots_;
  std::vector<JobRule> rules_;  ///< By job slot.
  /// Slots of the rules this daemon owns, in the order it started them,
  /// which is their order in the scheduler too. Stops walk this order, and
  /// it decides the order in which stopped queues join the fallback queue.
  std::vector<std::uint32_t> owned_;
  std::uint64_t window_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t changed_ = 0;
  std::uint64_t stopped_ = 0;
};

}  // namespace adaptbf
