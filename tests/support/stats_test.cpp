#include "support/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/random.h"

namespace adaptbf {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 0.0);
}

TEST(StreamingStats, SingleValue) {
  StreamingStats stats;
  stats.add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(StreamingStats, KnownSequence) {
  StreamingStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance of the classic sequence: 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(StreamingStats, MergeMatchesSequential) {
  StreamingStats left, right, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    left.add(x);
    all.add(x);
  }
  for (int i = 50; i < 120; ++i) {
    const double x = i * 0.37;
    right.add(x);
    all.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

// Shard merging leans on merge() being a proper monoid operation over
// accumulators (within floating-point tolerance): any K-way partition of a
// campaign, merged in any grouping and order, must agree with the single
// pass. Randomized sequences, fixed seeds.
TEST(StreamingStatsMergeProperty, AssociativeAndCommutativeWithinTolerance) {
  Xoshiro256 rng(0x5eed5eed5eed5eedULL);
  for (int round = 0; round < 20; ++round) {
    StreamingStats a, b, c, sequential;
    const auto fill = [&](StreamingStats& stats, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        // Mix magnitudes so Welford actually has something to get wrong.
        const double x = (rng.next_double() - 0.5) * 1e6 + rng.next_double();
        stats.add(x);
        sequential.add(x);
      }
    };
    fill(a, 1 + rng.next() % 40);
    fill(b, 1 + rng.next() % 40);
    fill(c, 1 + rng.next() % 40);

    // (a + b) + c
    StreamingStats left_assoc = a;
    left_assoc.merge(b);
    left_assoc.merge(c);
    // a + (b + c)
    StreamingStats right_assoc = b;
    right_assoc.merge(c);
    StreamingStats right_outer = a;
    right_outer.merge(right_assoc);
    // c + a  vs  a + c (commutativity spot check)
    StreamingStats ca = c, ac = a;
    ca.merge(a);
    ac.merge(c);

    const double scale = std::max(1.0, std::abs(sequential.mean()));
    for (const StreamingStats* merged :
         {&left_assoc, &right_outer}) {
      EXPECT_EQ(merged->count(), sequential.count());
      EXPECT_NEAR(merged->mean(), sequential.mean(), 1e-9 * scale);
      EXPECT_NEAR(merged->variance(), sequential.variance(),
                  1e-6 * std::max(1.0, sequential.variance()));
      EXPECT_DOUBLE_EQ(merged->min(), sequential.min());
      EXPECT_DOUBLE_EQ(merged->max(), sequential.max());
      EXPECT_NEAR(merged->sum(), sequential.sum(), 1e-9 * scale *
                  static_cast<double>(sequential.count()));
    }
    EXPECT_EQ(ca.count(), ac.count());
    EXPECT_NEAR(ca.mean(), ac.mean(), 1e-9 * scale);
    EXPECT_NEAR(ca.variance(), ac.variance(),
                1e-6 * std::max(1.0, ac.variance()));
    EXPECT_DOUBLE_EQ(ca.min(), ac.min());
    EXPECT_DOUBLE_EQ(ca.max(), ac.max());
  }
}

TEST(StreamingStats, MergeWithEmptyIsNoop) {
  StreamingStats stats, empty;
  stats.add(1.0);
  stats.add(2.0);
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 1.5);
}

TEST(StreamingStats, MergeIntoEmptyCopies) {
  StreamingStats stats, other;
  other.add(3.0);
  stats.merge(other);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(Percentile, MedianOfOddCount) {
  std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 20.0);
}

TEST(Percentile, SingleElement) {
  std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 42.0);
}

TEST(Percentile, DoesNotMutateInput) {
  std::vector<double> v{5.0, 1.0, 3.0};
  (void)percentile(v, 50.0);
  EXPECT_EQ(v[0], 5.0);
  EXPECT_EQ(v[1], 1.0);
  EXPECT_EQ(v[2], 3.0);
}

/// Today's percentile() before selection: copy, fully sort, interpolate.
/// The reference select_percentiles must match bit for bit.
double sorted_percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

TEST(SelectPercentiles, MatchesSortedReferenceBitForBit) {
  // Few distinct values (paper_fcfs trials have under 200 distinct
  // latencies among 140K samples) and continuous data, n from 1 to 2000,
  // with fixed and random ascending q sets that repeat values.
  const std::vector<std::vector<double>> fixed_q_sets = {
      {0.0, 50.0, 95.0, 99.0, 100.0},
      {50.0, 95.0, 99.0},
      {50.0, 50.0, 50.0},
      {0.0, 0.0, 100.0, 100.0},
      {95.0, 95.0, 99.0, 99.0, 99.0},
      {99.9, 100.0}};
  const double q_pool[] = {0.0, 1.0, 25.0, 33.3, 50.0, 95.0, 99.0, 99.9,
                           100.0};
  Xoshiro256 rng(20261017);
  std::size_t cases = 0;
  for (int round = 0; round < 240; ++round) {
    const std::size_t n = round < 40 ? static_cast<std::size_t>(round + 1)
                                     : rng.next_in(1, 2000);
    const bool few_distinct = round % 2 == 0;
    const std::uint64_t distinct = rng.next_in(1, 180);
    std::vector<double> values(n);
    for (double& v : values) {
      v = few_distinct ? 0.25 * static_cast<double>(rng.next_in(1, distinct))
                       : rng.next_exponential(40.0);
    }
    std::vector<std::vector<double>> q_sets = fixed_q_sets;
    for (int k = 0; k < 4; ++k) {
      std::vector<double> qs(rng.next_in(1, 6));
      for (double& q : qs) q = q_pool[rng.next_in(0, std::size(q_pool) - 1)];
      std::sort(qs.begin(), qs.end());
      q_sets.push_back(qs);
    }
    for (const auto& qs : q_sets) {
      std::vector<double> work = values;
      std::vector<double> out(qs.size());
      select_percentiles(work, qs, out);
      for (std::size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(out[i], sorted_percentile(values, qs[i]))
            << "n=" << n << " q=" << qs[i]
            << (few_distinct ? " few-distinct" : " continuous");
        EXPECT_EQ(percentile(values, qs[i]), out[i]);
      }
      // Selection only reorders: the sample is still the same multiset.
      std::vector<double> sorted_work = work, sorted_values = values;
      std::sort(sorted_work.begin(), sorted_work.end());
      std::sort(sorted_values.begin(), sorted_values.end());
      ASSERT_EQ(sorted_work, sorted_values);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 240u * 10u);
}

TEST(SelectPercentilesDeathTest, DescendingQsAbort) {
  std::vector<double> values{3.0, 1.0, 2.0};
  const std::vector<double> qs{95.0, 50.0};
  std::vector<double> out(qs.size());
  EXPECT_DEATH(select_percentiles(values, qs, out), "q >= previous_q");
}

TEST(JainFairness, AllEqualIsOne) {
  std::vector<double> v{4.0, 4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(jain_fairness(v), 1.0);
}

TEST(JainFairness, SingleUserDominanceIsOneOverN) {
  std::vector<double> v{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(v), 0.25);
}

TEST(JainFairness, AllZeroIsDegenerateEqual) {
  std::vector<double> v{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(v), 1.0);
}

TEST(JainFairness, EmptyIsDegenerateEqual) {
  // Regression: empty input used to ADAPTBF_CHECK-abort, killing any
  // campaign containing a scenario that finishes with zero jobs.
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
}

TEST(JainFairness, ScaleInvariant) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{10.0, 20.0, 30.0};
  EXPECT_NEAR(jain_fairness(a), jain_fairness(b), 1e-12);
}

}  // namespace
}  // namespace adaptbf
