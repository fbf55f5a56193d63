// End-to-end runs of small scenarios through the full stack:
// clients -> OST -> scheduler -> disk -> metrics, under each policy.
#include <gtest/gtest.h>

#include "cluster/experiment.h"
#include "support/units.h"

namespace adaptbf {
namespace {

/// Two-job scenario small enough for fast tests: job 1 (1 node) and job 2
/// (3 nodes), both streaming continuously.
ScenarioSpec small_scenario(BwControl control) {
  ScenarioSpec spec;
  spec.name = "small";
  spec.control = control;
  spec.num_threads = 4;
  spec.disk.seq_bandwidth = mib_per_sec(200);
  spec.disk.per_rpc_overhead = SimDuration(0);
  spec.duration = SimDuration::seconds(20);
  spec.stop_when_idle = true;

  JobSpec job1;
  job1.id = JobId(1);
  job1.name = "Job1";
  job1.nodes = 1;
  job1.processes = {continuous_pattern(256), continuous_pattern(256)};
  JobSpec job2;
  job2.id = JobId(2);
  job2.name = "Job2";
  job2.nodes = 3;
  job2.processes = {continuous_pattern(256), continuous_pattern(256)};
  spec.jobs = {job1, job2};
  return spec;
}

TEST(Experiment, NoBwCompletesAllWork) {
  const auto result = run_experiment(small_scenario(BwControl::kNone));
  ASSERT_EQ(result.jobs.size(), 2u);
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.finished) << job.name;
    EXPECT_EQ(job.rpcs_completed, 512u) << job.name;
    EXPECT_EQ(job.bytes_completed, 512ull * 1024 * 1024) << job.name;
  }
}

TEST(Experiment, TimelineTotalsMatchJobSummaries) {
  const auto result = run_experiment(small_scenario(BwControl::kAdaptive));
  for (const auto& job : result.jobs)
    EXPECT_EQ(result.timeline.total_bytes(job.id), job.bytes_completed);
  EXPECT_EQ(result.total_bytes,
            result.jobs[0].bytes_completed + result.jobs[1].bytes_completed);
}

TEST(Experiment, AllPoliciesCompleteTheWork) {
  for (BwControl control :
       {BwControl::kNone, BwControl::kStatic, BwControl::kAdaptive}) {
    const auto result = run_experiment(small_scenario(control));
    std::uint64_t total = 0;
    for (const auto& job : result.jobs) total += job.rpcs_completed;
    EXPECT_EQ(total, 1024u) << to_string(control);
  }
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto a = run_experiment(small_scenario(BwControl::kAdaptive));
  const auto b = run_experiment(small_scenario(BwControl::kAdaptive));
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  ASSERT_EQ(a.allocation_trace.size(), b.allocation_trace.size());
  for (std::size_t w = 0; w < a.allocation_trace.size(); ++w) {
    const auto& wa = a.allocation_trace[w];
    const auto& wb = b.allocation_trace[w];
    ASSERT_EQ(wa.jobs.size(), wb.jobs.size());
    for (std::size_t j = 0; j < wa.jobs.size(); ++j) {
      EXPECT_EQ(wa.jobs[j].tokens, wb.jobs[j].tokens);
      EXPECT_DOUBLE_EQ(wa.jobs[j].record_after, wb.jobs[j].record_after);
    }
  }
}

TEST(Experiment, AdaptiveTraceCapturedOnlyWhenRequested) {
  ExperimentOptions options;
  options.capture_allocation_trace = false;
  const auto result =
      run_experiment(small_scenario(BwControl::kAdaptive), options);
  EXPECT_TRUE(result.allocation_trace.empty());
  const auto with_trace = run_experiment(small_scenario(BwControl::kAdaptive));
  EXPECT_FALSE(with_trace.allocation_trace.empty());
}

TEST(Experiment, NonAdaptivePoliciesHaveNoTrace) {
  const auto result = run_experiment(small_scenario(BwControl::kStatic));
  EXPECT_TRUE(result.allocation_trace.empty());
}

TEST(Experiment, StopWhenIdleEndsBeforeDuration) {
  const auto result = run_experiment(small_scenario(BwControl::kNone));
  // 1 GiB total at 200 MiB/s ~ 5.2 s, well under the 20 s duration.
  EXPECT_LT(result.horizon.to_seconds(), 10.0);
}

TEST(Experiment, HorizonIsFullDurationWithoutIdleStop) {
  auto spec = small_scenario(BwControl::kNone);
  spec.stop_when_idle = false;
  const auto result = run_experiment(spec);
  EXPECT_DOUBLE_EQ(result.horizon.to_seconds(), 20.0);
}

TEST(Experiment, HugeDeclaredTotalDoesNotSizeTheLatencyLog) {
  // `total` is an unchecked u64 in scenario files. The latency log is
  // reserved from the smaller of the declared total and what the OST can
  // admit over the duration, so 2^62 RPCs in a 1 s trial reserve a few
  // hundred records, not 2^62 (which makes reserve() throw).
  auto spec = small_scenario(BwControl::kNone);
  spec.duration = SimDuration::seconds(1);
  spec.stop_when_idle = false;
  spec.jobs[0].processes = {continuous_pattern(std::uint64_t{1} << 62)};
  const auto result = run_experiment(spec);
  EXPECT_DOUBLE_EQ(result.horizon.to_seconds(), 1.0);
  EXPECT_GT(result.jobs[0].rpcs_completed, 0u);
  EXPECT_EQ(result.latency.samples(JobId(1)), result.jobs[0].rpcs_completed);
}

TEST(Experiment, CompletionEstimateTakesTheSmallestBound) {
  auto spec = small_scenario(BwControl::kNone);  // 4 x 256 RPCs declared
  spec.duration = SimDuration::seconds(1);
  EXPECT_EQ(estimate_completions(spec, 1e6), 1024u);
  EXPECT_EQ(estimate_completions(spec, 200.5), 201u);
  spec.num_osts = 3;
  EXPECT_EQ(estimate_completions(spec, 200.5), 603u);
  // Totals that overflow u64 saturate, and an absurd rate leaves only the
  // fixed ceiling.
  for (auto& process : spec.jobs[0].processes) process.total_rpcs = UINT64_MAX;
  EXPECT_EQ(estimate_completions(spec, 1e300), kMaxReservedCompletions);
}

TEST(Experiment, MaxTokenRateDerivedFromDisk) {
  const auto result = run_experiment(small_scenario(BwControl::kAdaptive));
  // 200 MiB/s over 1 MiB RPCs, zero overhead => 200 tokens/s.
  EXPECT_NEAR(result.max_token_rate, 200.0, 1e-6);
}

TEST(Experiment, ExplicitTokenRateOverridesDerived) {
  auto spec = small_scenario(BwControl::kAdaptive);
  spec.max_token_rate = 50.0;
  const auto result = run_experiment(spec);
  EXPECT_DOUBLE_EQ(result.max_token_rate, 50.0);
}

TEST(Experiment, JobLabelsAscending) {
  const auto result = run_experiment(small_scenario(BwControl::kNone));
  const auto labels = result.job_labels();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].second, "Job1");
  EXPECT_EQ(labels[1].second, "Job2");
}

TEST(Experiment, GiftPolicyRunsEndToEnd) {
  const auto result = run_experiment(small_scenario(BwControl::kGift));
  std::uint64_t total = 0;
  for (const auto& job : result.jobs) total += job.rpcs_completed;
  EXPECT_EQ(total, 1024u);
  EXPECT_TRUE(result.allocation_trace.empty());  // GIFT keeps no trace
  // Equal shares: despite the 1:3 node ratio, both jobs progress at the
  // same rate under GIFT (priority-unaware), so they finish together.
  const auto* j1 = result.find_job(JobId(1));
  const auto* j2 = result.find_job(JobId(2));
  ASSERT_TRUE(j1->finished && j2->finished);
  EXPECT_NEAR(j1->finish_time.to_seconds(), j2->finish_time.to_seconds(),
              0.15 * j2->finish_time.to_seconds());
}

TEST(Experiment, ThrottledJobRunsSlowerThanUnthrottled) {
  // Under static control, job 1 holds 25% of tokens => it must finish
  // later than under no control where FCFS gives it ~50%.
  const auto no_bw = run_experiment(small_scenario(BwControl::kNone));
  const auto static_bw = run_experiment(small_scenario(BwControl::kStatic));
  const auto* job1_none = no_bw.find_job(JobId(1));
  const auto* job1_static = static_bw.find_job(JobId(1));
  ASSERT_NE(job1_none, nullptr);
  ASSERT_NE(job1_static, nullptr);
  ASSERT_TRUE(job1_none->finished && job1_static->finished);
  EXPECT_GT(job1_static->finish_time.to_seconds(),
            job1_none->finish_time.to_seconds());
}

}  // namespace
}  // namespace adaptbf
