#include "ost/job_stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace adaptbf {
namespace {

Rpc make_rpc(std::uint32_t job, std::uint32_t bytes = 1024) {
  Rpc rpc;
  rpc.job = JobId(job);
  rpc.size_bytes = bytes;
  return rpc;
}

TEST(JobStatsTracker, EmptySnapshot) {
  JobStatsTracker tracker;
  EXPECT_TRUE(tracker.window_snapshot().empty());
}

TEST(JobStatsTracker, CountsArrivalsPerJob) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(1));
  tracker.record_arrival(make_rpc(1));
  tracker.record_arrival(make_rpc(2, 4096));
  const auto snapshot = tracker.window_snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].job, JobId(1));
  EXPECT_EQ(snapshot[0].rpcs, 2u);
  EXPECT_EQ(snapshot[0].bytes, 2048u);
  EXPECT_EQ(snapshot[1].job, JobId(2));
  EXPECT_EQ(snapshot[1].rpcs, 1u);
  EXPECT_EQ(snapshot[1].bytes, 4096u);
}

TEST(JobStatsTracker, SnapshotSortedByJobId) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(9));
  tracker.record_arrival(make_rpc(3));
  tracker.record_arrival(make_rpc(7));
  const auto snapshot = tracker.window_snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].job, JobId(3));
  EXPECT_EQ(snapshot[1].job, JobId(7));
  EXPECT_EQ(snapshot[2].job, JobId(9));
}

TEST(JobStatsTracker, ClearWindowResetsOnlyWindow) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(1));
  tracker.record_completion(make_rpc(1));
  tracker.clear_window();
  EXPECT_TRUE(tracker.window_snapshot().empty());
  const auto* cumulative = tracker.cumulative(JobId(1));
  ASSERT_NE(cumulative, nullptr);
  EXPECT_EQ(cumulative->rpcs_issued, 1u);
  EXPECT_EQ(cumulative->rpcs_completed, 1u);
}

TEST(JobStatsTracker, SnapshotDoesNotClear) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(1));
  (void)tracker.window_snapshot();
  EXPECT_EQ(tracker.window_snapshot().size(), 1u);
}

TEST(JobStatsTracker, CumulativeUnknownJobIsNull) {
  JobStatsTracker tracker;
  EXPECT_EQ(tracker.cumulative(JobId(42)), nullptr);
}

TEST(JobStatsTracker, JobsEverSeenPersistsAcrossWindows) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(5));
  tracker.clear_window();
  tracker.record_arrival(make_rpc(2));
  const auto jobs = tracker.jobs_ever_seen();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0], JobId(2));
  EXPECT_EQ(jobs[1], JobId(5));
}

TEST(JobStatsTracker, BytesAccumulateInCumulative) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(1, 100));
  tracker.record_arrival(make_rpc(1, 200));
  tracker.record_completion(make_rpc(1, 100));
  const auto* c = tracker.cumulative(JobId(1));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->bytes_issued, 300u);
  EXPECT_EQ(c->bytes_completed, 100u);
}

TEST(JobStatsTracker, SparseOutOfOrderJobIdsComeOutAscending) {
  // Per-job counters live in slots assigned in first-seen order; every
  // listing must still ascend by JobId, window after window.
  JobStatsTracker tracker;
  for (std::uint32_t job : {4000000000u, 7u, 3u, 7u, 4000000000u})
    tracker.record_arrival(make_rpc(job, job % 1000));
  auto snapshot = tracker.window_snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].job, JobId(3));
  EXPECT_EQ(snapshot[1].job, JobId(7));
  EXPECT_EQ(snapshot[2].job, JobId(4000000000u));
  EXPECT_EQ(snapshot[1].rpcs, 2u);
  EXPECT_EQ(snapshot[2].bytes, 2u * (4000000000u % 1000));

  // Next window: a new, smaller JobId and one old job; the job absent
  // from this window is left out, the reused buffer is overwritten.
  tracker.clear_window();
  tracker.record_completion(make_rpc(5));  // completions open no window
  tracker.record_arrival(make_rpc(4000000000u));
  tracker.record_arrival(make_rpc(1));
  tracker.window_snapshot(snapshot);
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].job, JobId(1));
  EXPECT_EQ(snapshot[0].rpcs, 1u);
  EXPECT_EQ(snapshot[1].job, JobId(4000000000u));
  EXPECT_EQ(snapshot[1].rpcs, 1u);

  const auto jobs = tracker.jobs_ever_seen();
  EXPECT_EQ(jobs, (std::vector<JobId>{JobId(1), JobId(3), JobId(5), JobId(7),
                                      JobId(4000000000u)}));
  ASSERT_NE(tracker.cumulative(JobId(7)), nullptr);
  EXPECT_EQ(tracker.cumulative(JobId(7))->rpcs_issued, 2u);
  EXPECT_EQ(tracker.cumulative(JobId(5))->rpcs_issued, 0u);
  EXPECT_EQ(tracker.cumulative(JobId(5))->rpcs_completed, 1u);
  EXPECT_EQ(tracker.cumulative(JobId(8)), nullptr);
}

TEST(JobStatsTracker, ManyJobsKeepTheirCounters) {
  // Enough jobs to grow the slot index several times over.
  JobStatsTracker tracker;
  for (std::uint32_t round = 0; round < 3; ++round)
    for (std::uint32_t i = 0; i < 1000; ++i)
      tracker.record_arrival(make_rpc(i * 2654435761u % 100003u + round));
  const auto snapshot = tracker.window_snapshot();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    total += snapshot[i].rpcs;
    if (i > 0) {
      EXPECT_LT(snapshot[i - 1].job, snapshot[i].job);
    }
  }
  EXPECT_EQ(total, 3000u);
}

}  // namespace
}  // namespace adaptbf
