#include "metrics/throughput_timeline.h"

#include <gtest/gtest.h>

#include <vector>

#include "support/units.h"

namespace adaptbf {
namespace {

SimTime at_ms(std::int64_t ms) {
  return SimTime::zero() + SimDuration::millis(ms);
}

TEST(ThroughputTimeline, BinsBytesByCompletionTime) {
  ThroughputTimeline timeline(SimDuration::millis(100));
  timeline.record(JobId(1), 1024 * 1024, at_ms(50));    // bin 0
  timeline.record(JobId(1), 1024 * 1024, at_ms(150));   // bin 1
  timeline.record(JobId(1), 2 * 1024 * 1024, at_ms(199));  // bin 1
  const auto series = timeline.series_mibps(JobId(1), at_ms(300));
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 10.0);  // 1 MiB / 0.1 s
  EXPECT_DOUBLE_EQ(series[1], 30.0);
  EXPECT_DOUBLE_EQ(series[2], 0.0);
}

TEST(ThroughputTimeline, BinBoundaryGoesToLaterBin) {
  ThroughputTimeline timeline(SimDuration::millis(100));
  timeline.record(JobId(1), 1024, at_ms(100));
  const auto series = timeline.series_mibps(JobId(1), at_ms(200));
  EXPECT_DOUBLE_EQ(series[0], 0.0);
  EXPECT_GT(series[1], 0.0);
}

TEST(ThroughputTimeline, UnknownJobIsZeroSeries) {
  ThroughputTimeline timeline;
  const auto series = timeline.series_mibps(JobId(9), at_ms(250));
  ASSERT_EQ(series.size(), 3u);
  for (double v : series) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_EQ(timeline.total_bytes(JobId(9)), 0u);
}

TEST(ThroughputTimeline, AggregateSumsJobs) {
  ThroughputTimeline timeline(SimDuration::millis(100));
  timeline.record(JobId(1), 1024 * 1024, at_ms(10));
  timeline.record(JobId(2), 1024 * 1024, at_ms(20));
  const auto aggregate = timeline.aggregate_mibps(at_ms(100));
  ASSERT_EQ(aggregate.size(), 1u);
  EXPECT_DOUBLE_EQ(aggregate[0], 20.0);
}

TEST(ThroughputTimeline, TotalsTrackPerJobAndGlobal) {
  ThroughputTimeline timeline;
  timeline.record(JobId(1), 100, at_ms(1));
  timeline.record(JobId(1), 200, at_ms(2));
  timeline.record(JobId(2), 50, at_ms(3));
  EXPECT_EQ(timeline.total_bytes(JobId(1)), 300u);
  EXPECT_EQ(timeline.total_bytes(JobId(2)), 50u);
  EXPECT_EQ(timeline.total_bytes(), 350u);
}

TEST(ThroughputTimeline, MeanOverHorizon) {
  ThroughputTimeline timeline;
  timeline.record(JobId(1), 10 * 1024 * 1024, at_ms(500));
  EXPECT_DOUBLE_EQ(timeline.mean_mibps(JobId(1), at_ms(2000)), 5.0);
  EXPECT_DOUBLE_EQ(timeline.aggregate_mean_mibps(at_ms(1000)), 10.0);
}

TEST(ThroughputTimeline, JobsSorted) {
  ThroughputTimeline timeline;
  timeline.record(JobId(5), 1, at_ms(1));
  timeline.record(JobId(2), 1, at_ms(1));
  const auto jobs = timeline.jobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0], JobId(2));
  EXPECT_EQ(jobs[1], JobId(5));
}

TEST(ThroughputTimeline, HorizonPartialBinCounts) {
  ThroughputTimeline timeline(SimDuration::millis(100));
  timeline.record(JobId(1), 1024, at_ms(149));
  // Horizon 150 ms spans 1.5 bins -> 2 bins reported.
  EXPECT_EQ(timeline.series_mibps(JobId(1), at_ms(150)).size(), 2u);
}

TEST(ThroughputTimeline, SparseJobIdsFoldInAscendingOrder) {
  // Jobs first seen as 4000000000, 7, 3, all in bin 0 of a 700 ms bin.
  // The aggregate must add them in ascending JobId order; first-seen order
  // rounds differently for these byte counts.
  const double bin_sec = 0.7;
  ThroughputTimeline timeline(SimDuration::millis(700));
  timeline.record(JobId(4000000000u), 3118284130u, at_ms(1));
  timeline.record(JobId(7), 861109026u, at_ms(2));
  timeline.record(JobId(3), 622714793u, at_ms(3));
  const double v3 = to_mib(622714793u) / bin_sec;
  const double v7 = to_mib(861109026u) / bin_sec;
  const double v4e9 = to_mib(3118284130u) / bin_sec;
  const double ascending = ((0.0 + v3) + v7) + v4e9;
  ASSERT_NE(ascending, ((0.0 + v4e9) + v7) + v3);  // the check has teeth
  const auto aggregate = timeline.aggregate_mibps(at_ms(700));
  ASSERT_EQ(aggregate.size(), 1u);
  EXPECT_EQ(aggregate[0], ascending);
  EXPECT_EQ(timeline.jobs(),
            (std::vector<JobId>{JobId(3), JobId(7), JobId(4000000000u)}));
  EXPECT_EQ(timeline.total_bytes(JobId(7)), 861109026u);
  EXPECT_EQ(timeline.total_bytes(),
            3118284130ull + 861109026ull + 622714793ull);
}

}  // namespace
}  // namespace adaptbf
