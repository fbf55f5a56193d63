#include "metrics/latency_stats.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "support/random.h"
#include "support/stats.h"

namespace adaptbf {
namespace {

RpcCompletion completion(std::uint32_t job, std::int64_t issue_ms,
                         std::int64_t start_ms, std::int64_t end_ms) {
  RpcCompletion c;
  c.rpc.job = JobId(job);
  c.rpc.issue_time = SimTime::zero() + SimDuration::millis(issue_ms);
  c.start_service = SimTime::zero() + SimDuration::millis(start_ms);
  c.end_service = SimTime::zero() + SimDuration::millis(end_ms);
  return c;
}

TEST(LatencyStats, EmptyJobIsZeroSummary) {
  LatencyStats stats;
  const auto summary = stats.total_latency(JobId(1));
  EXPECT_EQ(summary.samples, 0u);
  EXPECT_DOUBLE_EQ(summary.mean_ms, 0.0);
}

TEST(LatencyStats, TotalLatencyIsIssueToEnd) {
  LatencyStats stats;
  stats.record(completion(1, 0, 10, 30));
  const auto summary = stats.total_latency(JobId(1));
  EXPECT_EQ(summary.samples, 1u);
  EXPECT_DOUBLE_EQ(summary.mean_ms, 30.0);
  EXPECT_DOUBLE_EQ(summary.max_ms, 30.0);
}

TEST(LatencyStats, PercentilesOrdered) {
  LatencyStats stats;
  for (int i = 1; i <= 100; ++i) stats.record(completion(1, 0, 0, i));
  const auto summary = stats.total_latency(JobId(1));
  EXPECT_EQ(summary.samples, 100u);
  EXPECT_LE(summary.p50_ms, summary.p95_ms);
  EXPECT_LE(summary.p95_ms, summary.p99_ms);
  EXPECT_LE(summary.p99_ms, summary.max_ms);
  EXPECT_NEAR(summary.p50_ms, 50.5, 1.0);
  EXPECT_DOUBLE_EQ(summary.max_ms, 100.0);
}

TEST(LatencyStats, JobsIsolated) {
  LatencyStats stats;
  stats.record(completion(1, 0, 0, 10));
  stats.record(completion(2, 0, 0, 100));
  EXPECT_DOUBLE_EQ(stats.total_latency(JobId(1)).mean_ms, 10.0);
  EXPECT_DOUBLE_EQ(stats.total_latency(JobId(2)).mean_ms, 100.0);
  EXPECT_EQ(stats.samples(JobId(1)), 1u);
  EXPECT_EQ(stats.samples(JobId(3)), 0u);
}

TEST(LatencyStats, AllJobsSummaryPoolsSamples) {
  LatencyStats stats;
  stats.record(completion(1, 0, 0, 10));
  stats.record(completion(2, 0, 0, 30));
  const auto summary = stats.total_latency_all();
  EXPECT_EQ(summary.samples, 2u);
  EXPECT_DOUBLE_EQ(summary.mean_ms, 20.0);
}

TEST(LatencyStats, JobsListedSorted) {
  LatencyStats stats;
  stats.record(completion(7, 0, 0, 1));
  stats.record(completion(3, 0, 0, 1));
  const auto jobs = stats.jobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0], JobId(3));
  EXPECT_EQ(jobs[1], JobId(7));
}

RpcCompletion completion_ns(std::uint32_t job, std::int64_t latency_ns) {
  RpcCompletion c;
  c.rpc.job = JobId(job);
  c.start_service = SimTime::zero();
  c.end_service = SimTime(latency_ns);
  return c;
}

// Jobs first seen as 4000000000, 7, 3.
const std::vector<std::pair<std::uint32_t, std::int64_t>> kSparseSamples = {
    {4000000000u, 671862057},    {7, 533738179690749},
    {3, 649562111998},           {4000000000u, 623685183},
    {3, 144071367499},
};

TEST(LatencyStats, SparseJobIdsFoldInAscendingOrder) {
  // total_latency_all() must pool the samples job by job in ascending
  // JobId order: the mean below is rounding-order-sensitive, and
  // first-seen order gives another value.
  const auto& samples = kSparseSamples;
  LatencyStats stats;
  for (const auto& [job, ns] : samples) stats.record(completion_ns(job, ns));

  EXPECT_EQ(stats.jobs(),
            (std::vector<JobId>{JobId(3), JobId(7), JobId(4000000000u)}));
  auto fold = [&](std::initializer_list<std::uint32_t> order) {
    std::vector<double> pooled;
    for (std::uint32_t job : order)
      for (const auto& [sample_job, ns] : samples)
        if (sample_job == job)
          pooled.push_back(SimDuration(ns).to_seconds() * 1e3);
    StreamingStats acc;
    for (double v : pooled) acc.add(v);
    return std::pair{acc.mean(), percentile(pooled, 50.0)};
  };
  const auto ascending = fold({3, 7, 4000000000u});
  const auto first_seen = fold({4000000000u, 7, 3});
  ASSERT_NE(ascending.first, first_seen.first);  // the check has teeth
  const auto all = stats.total_latency_all();
  EXPECT_EQ(all.samples, 5u);
  EXPECT_EQ(all.mean_ms, ascending.first);
  EXPECT_EQ(all.p50_ms, ascending.second);
  EXPECT_EQ(stats.samples(JobId(3)), 2u);
  EXPECT_EQ(stats.total_latency(JobId(7)).samples, 1u);
}

void expect_row_percentiles_match_summary(const LatencyStats& stats) {
  const LatencySummary all = stats.total_latency_all();
  const LatencyPercentiles row = stats.total_latency_percentiles_all();
  EXPECT_EQ(row.p50_ms, all.p50_ms);
  EXPECT_EQ(row.p95_ms, all.p95_ms);
  EXPECT_EQ(row.p99_ms, all.p99_ms);
}

TEST(LatencyStats, RowPercentilesMatchSummaryOnSparseJobIds) {
  LatencyStats stats;
  for (const auto& [job, ns] : kSparseSamples)
    stats.record(completion_ns(job, ns));
  expect_row_percentiles_match_summary(stats);
}

TEST(LatencyStats, RowPercentilesMatchSummaryOnManyJobs) {
  // 300 sparse job ids, 1 to 400 samples each, recorded interleaved;
  // half the jobs draw from a few distinct latencies, half continuously.
  Xoshiro256 rng(97);
  std::vector<std::uint32_t> ids(300);
  for (auto& id : ids)
    id = static_cast<std::uint32_t>(rng.next_in(1, JobId::kInvalid - 1));
  std::vector<std::uint64_t> left(ids.size());
  for (auto& n : left) n = rng.next_in(1, 400);
  LatencyStats stats;
  std::size_t total = 0;
  for (bool any = true; any;) {
    any = false;
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (left[j] == 0) continue;
      --left[j];
      any = true;
      const auto ns = static_cast<std::int64_t>(
          j % 2 == 0 ? rng.next_in(1, 12) * 250'000
                     : rng.next_in(1, 5'000'000'000));
      stats.record(completion_ns(ids[j], ns));
      ++total;
    }
  }
  ASSERT_EQ(stats.total_latency_all().samples, total);
  expect_row_percentiles_match_summary(stats);
}

TEST(LatencyStats, RowPercentilesOfNoSamplesAreZero) {
  const LatencyPercentiles row = LatencyStats{}.total_latency_percentiles_all();
  EXPECT_EQ(row.p50_ms, 0.0);
  EXPECT_EQ(row.p95_ms, 0.0);
  EXPECT_EQ(row.p99_ms, 0.0);
}

/// The per-job layout the completion log replaced: one vector of samples
/// per job, each in completion order, pooled job by job in ascending JobId
/// order for the cross-job queries.
class PerJobReference {
 public:
  void record(const RpcCompletion& completion) {
    samples_[completion.rpc.job.value()].push_back(
        completion.latency().to_seconds() * 1e3);
  }

  [[nodiscard]] LatencySummary total_latency(JobId job) const {
    const auto it = samples_.find(job.value());
    return it == samples_.end() ? LatencySummary{} : summarize(it->second);
  }
  [[nodiscard]] std::size_t samples(JobId job) const {
    const auto it = samples_.find(job.value());
    return it == samples_.end() ? 0 : it->second.size();
  }
  [[nodiscard]] std::vector<JobId> jobs() const {
    std::vector<JobId> ids;
    for (const auto& [job, values] : samples_) ids.emplace_back(job);
    return ids;
  }
  [[nodiscard]] std::vector<double> pooled() const {
    std::vector<double> all;
    for (const auto& [job, values] : samples_)
      all.insert(all.end(), values.begin(), values.end());
    return all;
  }

  static LatencySummary summarize(const std::vector<double>& values) {
    LatencySummary summary;
    if (values.empty()) return summary;
    summary.samples = values.size();
    StreamingStats stats;
    for (double v : values) stats.add(v);
    summary.mean_ms = stats.mean();
    summary.max_ms = stats.max();
    summary.p50_ms = percentile(values, 50.0);
    summary.p95_ms = percentile(values, 95.0);
    summary.p99_ms = percentile(values, 99.0);
    return summary;
  }

 private:
  std::map<std::uint32_t, std::vector<double>> samples_;
};

void expect_same_summary(const LatencySummary& got,
                         const LatencySummary& want) {
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.mean_ms, want.mean_ms);
  EXPECT_EQ(got.p50_ms, want.p50_ms);
  EXPECT_EQ(got.p95_ms, want.p95_ms);
  EXPECT_EQ(got.p99_ms, want.p99_ms);
  EXPECT_EQ(got.max_ms, want.max_ms);
}

TEST(LatencyStats, LogMatchesPerJobLayoutBitForBit) {
  // Sparse ids (3, 7, 4000000000 and 50 random others), each with its own
  // number of completions, recorded in a seeded random interleaving.
  // Latencies run from 1 ns to about 1000 s, so pooling the mean in any
  // other order rounds differently.
  Xoshiro256 rng(2024);
  std::vector<std::uint32_t> ids = {3, 7, 4000000000u};
  while (ids.size() < 53)
    ids.push_back(static_cast<std::uint32_t>(rng.next_in(1, 3999999999u)));
  std::vector<std::uint32_t> order;
  for (std::uint32_t id : ids)
    for (std::uint64_t n = rng.next_in(1, 60); n > 0; --n) order.push_back(id);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_in(0, i - 1)]);

  LatencyStats stats;
  PerJobReference reference;
  std::vector<double> log_order;
  for (std::uint32_t id : order) {
    const auto ns = static_cast<std::int64_t>(
        rng.next_in(1, 1000) << rng.next_in(0, 30));
    const RpcCompletion c = completion_ns(id, ns);
    stats.record(c);
    reference.record(c);
    log_order.push_back(c.latency().to_seconds() * 1e3);
  }

  const LatencySummary want_all =
      PerJobReference::summarize(reference.pooled());
  // The check has teeth: pooling in completion order gives another mean.
  ASSERT_NE(PerJobReference::summarize(log_order).mean_ms, want_all.mean_ms);

  expect_same_summary(stats.total_latency_all(), want_all);
  const LatencyPercentiles row = stats.total_latency_percentiles_all();
  EXPECT_EQ(row.p50_ms, want_all.p50_ms);
  EXPECT_EQ(row.p95_ms, want_all.p95_ms);
  EXPECT_EQ(row.p99_ms, want_all.p99_ms);
  EXPECT_EQ(stats.jobs(), reference.jobs());
  for (JobId job : reference.jobs()) {
    SCOPED_TRACE(job.value());
    EXPECT_EQ(stats.samples(job), reference.samples(job));
    expect_same_summary(stats.total_latency(job), reference.total_latency(job));
  }
  EXPECT_EQ(stats.samples(JobId(5)), 0u);
  expect_same_summary(stats.total_latency(JobId(5)), LatencySummary{});
}

}  // namespace
}  // namespace adaptbf
