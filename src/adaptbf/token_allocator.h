// The AdapTBF token allocation algorithm (§III-C) — the paper's core
// contribution.
//
// Runs once per observation window Δt, independently per OST, on local
// information only. Three sequential steps:
//
//   1. Priority-based initial allocation (eqs. 1-2): each active job gets
//      tokens proportional to its compute-node share.
//   2. Redistribution of surplus tokens (eqs. 3-8): tokens a job was
//      allocated beyond its observed demand are lent out; receivers are
//      weighted by the distribution factor DF (deficit jobs first, then
//      utilization x priority). The lend/borrow ledger (records r) updates.
//   3. Re-compensation (eqs. 9-20): jobs with positive records (lenders)
//      whose demand rose reclaim tokens from jobs with negative records
//      (borrowers), bounded by the borrowing record and the reclaim
//      coefficient C.
//
// Fractional-token fairness (eqs. 21-25): final allocations are integers;
// per-job remainders carry across windows and a largest-remainder pass
// repairs any ±k mismatch with the window's total token budget.
//
// Deviations from the paper, chosen where the text is ambiguous (see
// docs/architecture.md, "Model deviations"): the reclaim coefficient C is
// one per-window scalar (the eq. 13 RHS does not depend on the borrower)
// clamped to [0,1]; the eq. 14 bound uses the post-redistribution record
// |r_RD|; on token excess the largest-remainder fix decrements the job
// with the *smallest* remainder.
#pragma once

#include <span>
#include <vector>

#include "adaptbf/allocation_types.h"
#include "sim/time.h"

namespace adaptbf {

/// How the re-compensation step estimates next-window demand d̄ (eq. 11).
enum class DemandEstimator {
  /// The paper's assumption: d̄(t+Δt) = d(t).
  kLastWindow,
  /// §IV-E's suggested extension: an informed estimate. We use an
  /// exponentially weighted moving average of past windows, which damps
  /// one-window spikes so lenders are not over- or under-compensated on
  /// a single outlier observation.
  kEwma,
};

struct AllocatorConfig {
  /// T_i: the OST's maximum token rate in tokens/second.
  double total_rate = 1000.0;
  /// Δt: the observation period.
  SimDuration dt = SimDuration::millis(100);

  /// Future-demand estimator for eq. 11 (see DemandEstimator).
  DemandEstimator demand_estimator = DemandEstimator::kLastWindow;
  /// EWMA smoothing factor in (0, 1]; weight of the newest window.
  double ewma_alpha = 0.3;

  // Ablation switches (docs/architecture.md, "Model deviations"). All on =
  // the paper's algorithm.
  bool enable_redistribution = true;
  bool enable_recompensation = true;
  bool enable_remainders = true;

  /// Utilization assigned when a job had demand against a zero previous
  /// allocation (unbounded deficit); any value > 1 marks it deficit-class.
  double deficit_saturation = 100.0;

  /// Job records (and remainders) are garbage-collected after this much
  /// inactivity; a job that stays away longer forfeits its lending claim.
  SimDuration record_gc_horizon = SimDuration::seconds(60);
};

class TokenAllocator {
 public:
  explicit TokenAllocator(AllocatorConfig config);

  /// Runs one window over the active-job stats. `active` need not be
  /// sorted; entries must have distinct JobIds and demand >= 0. Updates the
  /// internal per-job state (records, remainders, previous allocations).
  /// Apart from the returned result, a window allocates only when the set
  /// of tracked jobs outgrows its storage.
  WindowResult allocate(std::span<const JobWindowInput> active, SimTime now);

  /// Drops state for jobs inactive since `now - record_gc_horizon`.
  void collect_garbage(SimTime now);

  // State inspection (testing / tracing).
  [[nodiscard]] double record(JobId job) const;
  [[nodiscard]] double remainder(JobId job) const;
  /// Current smoothed demand estimate (equals last demand under
  /// kLastWindow); 0 for unknown jobs.
  [[nodiscard]] double estimated_demand(JobId job) const;
  [[nodiscard]] std::size_t tracked_jobs() const { return state_.size(); }
  [[nodiscard]] const AllocatorConfig& config() const { return config_; }

 private:
  struct JobState {
    JobId job;
    double record = 0.0;       // r_x
    double remainder = 0.0;    // ρ_x
    double prev_alloc = -1.0;  // α_x^{t-1}; -1 = never allocated
    double demand_estimate = -1.0;  // d̄; -1 = no observation yet
    SimTime last_active;
  };

  /// State of `job`, nullptr if untracked.
  [[nodiscard]] const JobState* find_state(JobId job) const;
  /// Adds state for the jobs of inputs_ that have none and points
  /// input_state_[i] at inputs_[i]'s state.
  void bind_states();

  AllocatorConfig config_;
  /// Ascending JobId: lookups merge against the sorted window inputs, and
  /// iteration order is deterministic.
  std::vector<JobState> state_;
  double budget_carry_ = 0.0;  ///< Fractional part of the window budget.

  // Per-window scratch, kept so steady-state windows reuse its storage.
  std::vector<JobWindowInput> inputs_;  ///< This window's, sorted.
  std::vector<std::size_t> input_state_;  ///< inputs_[i] -> state_ index.
  std::vector<std::size_t> lenders_;    ///< J_+ (result indices)
  std::vector<std::size_t> borrowers_;  ///< J_- (result indices)
  std::vector<JobAllocation*> order_;
};

}  // namespace adaptbf
