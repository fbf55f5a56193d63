#include "sweep/sweep_spec.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "support/random.h"
#include "workload/scenario.h"

namespace adaptbf {
namespace {

ScenarioSpec tiny_scenario() {
  ScenarioSpec spec;
  spec.name = "tiny";
  JobSpec job;
  job.id = JobId(1);
  job.name = "J1";
  job.nodes = 2;
  job.processes.push_back(continuous_pattern(8));
  job.processes.push_back(poisson_pattern(8, 50.0, /*seed=*/99));
  spec.jobs.push_back(std::move(job));
  spec.duration = SimDuration::seconds(2);
  return spec;
}

SweepSpec tiny_sweep() {
  SweepSpec sweep;
  sweep.scenarios.push_back({"a", tiny_scenario()});
  sweep.scenarios.push_back({"b", tiny_scenario()});
  sweep.policies = {BwControl::kNone, BwControl::kAdaptive};
  sweep.ost_counts = {1, 2};
  sweep.repetitions = 3;
  sweep.base_seed = 5;
  return sweep;
}

TEST(SweepSpec, TrialCountIsGridProduct) {
  const SweepSpec sweep = tiny_sweep();
  // 2 scenarios x 2 policies x 2 ost counts x (1 token rate) x 3 reps.
  EXPECT_EQ(sweep.trial_count(), 24u);
  EXPECT_EQ(sweep.expand().size(), 24u);
}

TEST(SweepSpec, EmptyAxesCountAsOne) {
  SweepSpec sweep;
  sweep.scenarios.push_back({"a", tiny_scenario()});
  sweep.policies = {BwControl::kNone};
  EXPECT_EQ(sweep.trial_count(), 1u);
}

TEST(SweepSpec, TrialCountSaturatesInsteadOfWrapping) {
  SweepSpec sweep = tiny_sweep();
  sweep.scenarios.resize(1);
  sweep.policies.assign(4, BwControl::kNone);
  sweep.ost_counts.assign(std::size_t{1} << 15, 1);
  sweep.token_rates.assign(std::size_t{1} << 16, 1.0);
  sweep.repetitions = 1u << 31;  // 2^64 trials in all
  EXPECT_EQ(sweep.trial_count(), SIZE_MAX);
  sweep.policies.clear();
  EXPECT_EQ(sweep.trial_count(), 0u);
}

TEST(SweepSpec, IndicesAreDenseAndRowMajor) {
  const auto trials = tiny_sweep().expand();
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(trials[i].index, i);
  // Row-major: repetition varies fastest, then OST count, then policy.
  EXPECT_EQ(trials[0].repetition, 0u);
  EXPECT_EQ(trials[1].repetition, 1u);
  EXPECT_EQ(trials[2].repetition, 2u);
  EXPECT_EQ(trials[0].num_osts, 1u);
  EXPECT_EQ(trials[3].num_osts, 2u);
  EXPECT_EQ(trials[0].policy, BwControl::kNone);
  EXPECT_EQ(trials[6].policy, BwControl::kAdaptive);
  EXPECT_EQ(trials[0].scenario, "a");
  EXPECT_EQ(trials[12].scenario, "b");
}

TEST(SweepSpec, GridCoordinatesAreApplied) {
  SweepSpec sweep = tiny_sweep();
  sweep.token_rates = {800.0};
  sweep.duration_override = SimDuration::seconds(1);
  const auto trials = sweep.expand();
  for (const auto& trial : trials) {
    EXPECT_EQ(trial.spec.control, trial.policy);
    EXPECT_EQ(trial.spec.num_osts, trial.num_osts);
    EXPECT_DOUBLE_EQ(trial.spec.max_token_rate, 800.0);
    EXPECT_EQ(trial.spec.duration, SimDuration::seconds(1));
    EXPECT_EQ(trial.spec.name, trial.scenario);
  }
}

TEST(SweepSpec, SeedsArePairedAcrossPoliciesAndDistinctAcrossReps) {
  const auto trials = tiny_sweep().expand();
  // Repetition r has the same seed in every cell (paired comparisons).
  for (const auto& a : trials)
    for (const auto& b : trials)
      if (a.repetition == b.repetition) {
        EXPECT_EQ(a.seed, b.seed);
      }
  EXPECT_NE(trials[0].seed, trials[1].seed);
  EXPECT_NE(trials[1].seed, trials[2].seed);
  // And the seed is exactly the derived per-repetition stream.
  EXPECT_EQ(trials[0].seed, derive_stream_seed(5, 0));
  EXPECT_EQ(trials[1].seed, derive_stream_seed(5, 1));
}

TEST(SweepSpec, PoissonPatternsAreReseededPerRepetition) {
  const auto trials = tiny_sweep().expand();
  const auto& pattern_rep0 = trials[0].spec.jobs[0].processes[1];
  const auto& pattern_rep1 = trials[1].spec.jobs[0].processes[1];
  EXPECT_NE(pattern_rep0.seed, 99u);  // Original seed replaced.
  EXPECT_NE(pattern_rep0.seed, pattern_rep1.seed);
  // Paired: the adaptive run of rep 0 sees the same Poisson stream.
  const auto& pattern_adaptive = trials[6].spec.jobs[0].processes[1];
  EXPECT_EQ(pattern_rep0.seed, pattern_adaptive.seed);
}

TEST(SweepSpec, StartJitterIsDeterministicPerSeedAndBounded) {
  SweepSpec sweep = tiny_sweep();
  sweep.start_jitter = SimDuration::millis(100);
  const auto trials = sweep.expand();
  const auto trials_again = sweep.expand();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    for (std::size_t p = 0; p < 2; ++p) {
      const SimDuration delay =
          trials[i].spec.jobs[0].processes[p].start_delay;
      EXPECT_EQ(delay, trials_again[i].spec.jobs[0].processes[p].start_delay);
      EXPECT_GE(delay, SimDuration(0));
      EXPECT_LT(delay, SimDuration::millis(100));
    }
  }
  // Different repetitions draw different jitter.
  EXPECT_NE(trials[0].spec.jobs[0].processes[0].start_delay,
            trials[1].spec.jobs[0].processes[0].start_delay);
}

TEST(SweepSpec, NoJitterKeepsOriginalDelays) {
  const auto trials = tiny_sweep().expand();
  EXPECT_EQ(trials[0].spec.jobs[0].processes[0].start_delay, SimDuration(0));
}

TEST(SweepSpec, CellIdIgnoresRepetition) {
  const auto trials = tiny_sweep().expand();
  EXPECT_EQ(trials[0].cell_id(), trials[1].cell_id());
  EXPECT_NE(trials[0].cell_id(), trials[3].cell_id());  // Different osts.
  EXPECT_NE(trials[0].cell_id(), trials[6].cell_id());  // Different policy.
  EXPECT_NE(trials[0].cell_id(), trials[12].cell_id()); // Different scenario.
}

TEST(DeriveStreamSeed, IsPureAndSpreadsAdjacentIndices) {
  EXPECT_EQ(derive_stream_seed(1, 0), derive_stream_seed(1, 0));
  EXPECT_NE(derive_stream_seed(1, 0), derive_stream_seed(1, 1));
  EXPECT_NE(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
  // Adjacent indices must differ in many bits, not just the low ones.
  const std::uint64_t diff =
      derive_stream_seed(7, 10) ^ derive_stream_seed(7, 11);
  EXPECT_GT(__builtin_popcountll(diff), 16);
}

}  // namespace
}  // namespace adaptbf
