// Property-based sweeps over randomized workload traces: the allocator's
// invariants (token conservation, zero-sum records, bounded remainders,
// reclaim bounds; see docs/architecture.md, "Model deviations") must hold
// for *every* demand pattern, job mix and budget, not just the hand-picked
// unit-test cases.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "adaptbf/token_allocator.h"
#include "support/random.h"

namespace adaptbf {
namespace {

struct PropertyParam {
  std::uint64_t seed;
  std::size_t num_jobs;
  double total_rate;
  int windows;
};

class AllocatorPropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  /// Generates a demand trace where jobs randomly idle, trickle, saturate
  /// or burst — the full range of behaviours the paper's scenarios mix.
  std::vector<JobWindowInput> random_window(Xoshiro256& rng,
                                            std::size_t num_jobs,
                                            double budget) {
    std::vector<JobWindowInput> inputs;
    for (std::size_t i = 0; i < num_jobs; ++i) {
      // ~20% of jobs sit a window out entirely (inactive: not listed).
      if (rng.next_double() < 0.2) continue;
      JobWindowInput input;
      input.job = JobId(static_cast<std::uint32_t>(i + 1));
      input.nodes = static_cast<std::uint32_t>(rng.next_in(1, 16));
      const double mode = rng.next_double();
      if (mode < 0.25) {
        input.demand = 0.0;  // active but demandless (e.g. metadata only)
      } else if (mode < 0.5) {
        input.demand = std::floor(rng.next_double() * budget * 0.2);
      } else if (mode < 0.75) {
        input.demand = std::floor(budget * (0.8 + rng.next_double() * 0.4));
      } else {
        input.demand = std::floor(budget * (2.0 + rng.next_double() * 8.0));
      }
      inputs.push_back(input);
    }
    return inputs;
  }
};

TEST_P(AllocatorPropertyTest, InvariantsHoldOverRandomTraces) {
  const auto param = GetParam();
  AllocatorConfig config;
  config.total_rate = param.total_rate;
  config.dt = SimDuration::millis(100);
  TokenAllocator allocator(config);
  Xoshiro256 rng(param.seed);
  const double budget = config.total_rate * config.dt.to_seconds();

  double previous_record_sum = 0.0;
  for (int w = 1; w <= param.windows; ++w) {
    const SimTime now = SimTime::zero() + SimDuration::millis(100) * w;
    const auto inputs = random_window(rng, param.num_jobs, budget);
    const auto result = allocator.allocate(inputs, now);

    if (inputs.empty()) {
      EXPECT_TRUE(result.jobs.empty());
      continue;
    }

    // --- Invariant 1: token conservation / budget respected ---
    std::int64_t total_tokens = 0;
    double exact_total = 0.0;
    for (const auto& j : result.jobs) {
      total_tokens += j.tokens;
      exact_total += j.after_recompensation;
      EXPECT_GE(j.tokens, 0) << "window " << w;
    }
    EXPECT_NEAR(exact_total, budget, 1e-6) << "window " << w;
    // Integer total within +-1 of the exact budget (the carry's slack).
    EXPECT_LE(std::abs(static_cast<double>(total_tokens) - budget), 1.0 + 1e-9)
        << "window " << w;

    // --- Invariant 2: record deltas zero-sum within the window ---
    double record_delta_sum = 0.0;
    double record_sum_now = 0.0;
    for (const auto& j : result.jobs) record_delta_sum += j.record_after;
    // Records of *inactive* jobs are untouched, so the sum over all jobs
    // changes only by the active jobs' deltas; track the global sum.
    record_sum_now = record_delta_sum;
    for (std::size_t i = 1; i <= param.num_jobs; ++i) {
      const JobId id(static_cast<std::uint32_t>(i));
      if (result.find(id) == nullptr)
        record_sum_now += allocator.record(id);
    }
    EXPECT_NEAR(record_sum_now, previous_record_sum, 1e-6)
        << "lending != borrowing in window " << w;
    previous_record_sum = record_sum_now;

    // --- Invariant 3: remainders bounded in (-1, 2) ---
    // ρ is exactly the job's cumulative entitlement minus delivered
    // tokens; flooring keeps it in [0,1) and the ±1 largest-remainder
    // repair can push it one token either way — but never further, so
    // no job ever drifts more than ~2 tokens from its exact fair share.
    for (const auto& j : result.jobs) {
      EXPECT_GT(j.remainder_after, -1.0 - 1e-9) << "window " << w;
      EXPECT_LT(j.remainder_after, 2.0 + 1e-9) << "window " << w;
    }

    // --- Invariant 4: reclaim bounds ---
    for (const auto& j : result.jobs) {
      EXPECT_GE(j.reclaimed, 0.0);
      EXPECT_GE(j.after_recompensation, -1e-9) << "window " << w;
      if (j.reclaimed > 0.0) {
        EXPECT_LE(j.reclaimed,
                  std::abs(j.record_after_redistribution) + 1e-9)
            << "window " << w;
      }
    }

    // --- Structural: priorities form a distribution ---
    double priority_sum = 0.0;
    for (const auto& j : result.jobs) priority_sum += j.priority;
    EXPECT_NEAR(priority_sum, 1.0, 1e-9);

    // --- Reclaim coefficient clamped ---
    EXPECT_GE(result.reclaim_coefficient, 0.0);
    EXPECT_LE(result.reclaim_coefficient, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllocatorPropertyTest,
    ::testing::Values(
        PropertyParam{1, 2, 1000.0, 200}, PropertyParam{2, 4, 1000.0, 200},
        PropertyParam{3, 8, 1000.0, 200}, PropertyParam{4, 16, 1000.0, 100},
        PropertyParam{5, 4, 100.0, 200}, PropertyParam{6, 4, 17.0, 200},
        PropertyParam{7, 32, 5000.0, 50}, PropertyParam{8, 3, 999.5, 200},
        PropertyParam{9, 64, 10000.0, 30}, PropertyParam{10, 1, 1000.0, 50}),
    [](const ::testing::TestParamInfo<PropertyParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_jobs" +
             std::to_string(param_info.param.num_jobs);
    });

class AblationEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(AblationEquivalenceTest, DisabledStepsStillConserveBudget) {
  // Every combination of disabled steps must still never exceed the token
  // budget — disabling borrowing must degrade utilization, not correctness.
  auto [redistribution, recompensation, remainders] = GetParam();
  AllocatorConfig config;
  config.total_rate = 1000.0;
  config.dt = SimDuration::millis(100);
  config.enable_redistribution = redistribution;
  config.enable_recompensation = recompensation;
  config.enable_remainders = remainders;
  TokenAllocator allocator(config);
  Xoshiro256 rng(12345);
  for (int w = 1; w <= 100; ++w) {
    std::vector<JobWindowInput> inputs;
    for (std::uint32_t id = 1; id <= 5; ++id) {
      inputs.push_back(JobWindowInput{
          JobId(id), static_cast<std::uint32_t>(rng.next_in(1, 8)),
          std::floor(rng.next_double() * 300.0)});
    }
    const auto result = allocator.allocate(
        inputs, SimTime::zero() + SimDuration::millis(100) * w);
    std::int64_t total = 0;
    for (const auto& j : result.jobs) {
      EXPECT_GE(j.tokens, 0);
      total += j.tokens;
    }
    EXPECT_LE(static_cast<double>(total), 100.0 + 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, AblationEquivalenceTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

TEST(AllocatorDeterminism, IdenticalTracesGiveIdenticalResults) {
  auto run = [](std::uint64_t seed) {
    AllocatorConfig config;
    config.total_rate = 1234.0;
    config.dt = SimDuration::millis(100);
    TokenAllocator allocator(config);
    Xoshiro256 rng(seed);
    std::vector<std::int64_t> tokens;
    for (int w = 1; w <= 100; ++w) {
      std::vector<JobWindowInput> inputs;
      for (std::uint32_t id = 1; id <= 6; ++id)
        inputs.push_back(JobWindowInput{
            JobId(id), static_cast<std::uint32_t>(1 + id % 3),
            std::floor(rng.next_double() * 200.0)});
      const auto result = allocator.allocate(
          inputs, SimTime::zero() + SimDuration::millis(100) * w);
      for (const auto& j : result.jobs) tokens.push_back(j.tokens);
    }
    return tokens;
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78));
}

}  // namespace
}  // namespace adaptbf
