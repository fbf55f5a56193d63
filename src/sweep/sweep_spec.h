// Declarative multi-trial experiment campaigns.
//
// A SweepSpec is a parameter grid over ScenarioSpec fields: the cross
// product of base scenarios x control policies x OST counts x token rates,
// repeated over seeded repetitions. expand() materializes the grid into a
// flat trial list with dense indices; the runner executes trials in any
// order and the aggregator groups them back into grid cells. Everything
// downstream keys off TrialSpec::index, so results are independent of
// execution order (and hence of worker-thread count).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/scenario.h"

namespace adaptbf {

/// One base scenario entered into the grid. `label` names the grid axis
/// value (CSV/JSON cell key); the spec's own name is replaced by it.
struct SweepScenario {
  std::string label;
  ScenarioSpec spec;
};

/// One fully materialized run: grid coordinates plus the concrete spec.
struct TrialSpec {
  std::size_t index = 0;        ///< Dense [0, trial_count), row-major.
  std::string scenario;         ///< SweepScenario label.
  BwControl policy = BwControl::kNone;
  std::uint32_t num_osts = 1;
  double max_token_rate = -1.0;  ///< <= 0: derived from the disk model.
  std::uint32_t repetition = 0;  ///< 0-based seed repetition.
  std::uint64_t seed = 0;        ///< Per-trial RNG stream seed.
  ScenarioSpec spec;

  /// Grid-cell identity: every coordinate except the repetition. Trials
  /// sharing a cell id are aggregated as seeded repetitions of one cell.
  [[nodiscard]] std::string cell_id() const;
};

struct SweepSpec {
  std::string name = "sweep";
  std::vector<SweepScenario> scenarios;
  /// Policies to run each scenario under. Must be non-empty to expand.
  std::vector<BwControl> policies;
  /// Optional OST-count axis; empty keeps each scenario's own num_osts.
  std::vector<std::uint32_t> ost_counts;
  /// Optional token-rate axis (tokens/s); empty keeps the spec's value.
  std::vector<double> token_rates;
  /// Seeded repetitions per grid cell.
  std::uint32_t repetitions = 1;
  /// Base seed; repetition r uses derive_stream_seed(base_seed, r), so the
  /// same workload randomness is paired across policies (paired-sample
  /// comparisons have lower variance than independent draws).
  std::uint64_t base_seed = 1;
  /// When > 0, each process's start_delay is jittered by a uniform draw in
  /// [0, jitter) from the trial's private RNG stream. Gives deterministic
  /// per-seed variability even for scenarios with no Poisson processes
  /// (real jobs never start in lockstep).
  SimDuration start_jitter{0};
  /// When > 0, overrides every scenario's run duration (campaign-wide cap
  /// so one long scenario cannot dominate wall time).
  SimDuration duration_override{0};

  /// Size of the grid. Saturates at SIZE_MAX instead of wrapping, so a
  /// cap check on it holds however large the axes are.
  [[nodiscard]] std::size_t trial_count() const;

  /// Materializes the full grid, row-major over
  /// scenario x policy x ost_count x token_rate x repetition.
  [[nodiscard]] std::vector<TrialSpec> expand() const;
};

}  // namespace adaptbf
