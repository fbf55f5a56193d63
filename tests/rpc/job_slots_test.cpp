#include "rpc/job_slots.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace adaptbf {
namespace {

TEST(JobSlots, SlotsNumberedInFirstSeenOrder) {
  JobSlots slots;
  EXPECT_EQ(slots.insert(JobId(40)), 0u);
  EXPECT_EQ(slots.insert(JobId(2)), 1u);
  EXPECT_EQ(slots.insert(JobId(4000000000u)), 2u);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots.job(0), JobId(40));
  EXPECT_EQ(slots.job(1), JobId(2));
  EXPECT_EQ(slots.job(2), JobId(4000000000u));
}

TEST(JobSlots, InsertingAKnownJobReturnsItsSlot) {
  JobSlots slots;
  slots.insert(JobId(9));
  slots.insert(JobId(5));
  EXPECT_EQ(slots.insert(JobId(9)), 0u);
  EXPECT_EQ(slots.insert(JobId(5)), 1u);
  EXPECT_EQ(slots.size(), 2u);
}

TEST(JobSlots, FindOfAnUnknownJobIsNone) {
  JobSlots slots;
  EXPECT_EQ(slots.find(JobId(1)), JobSlots::kNone);  // empty table
  slots.insert(JobId(1));
  EXPECT_EQ(slots.find(JobId(2)), JobSlots::kNone);
  EXPECT_EQ(slots.size(), 1u);
}

TEST(JobSlots, LookupsHoldAcrossRehashes) {
  // The table starts at 8 buckets and doubles whenever it would be more
  // than half full, so 40 jobs rehash it past 4, 8 and 16 jobs.
  JobSlots slots;
  std::vector<JobId> ids;
  for (std::uint32_t i = 0; i < 40; ++i)
    ids.emplace_back(i * 2654435761u + 17);  // scattered, all distinct
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(slots.find(ids[i]), JobSlots::kNone);
    ASSERT_EQ(slots.insert(ids[i]), i);
    for (std::uint32_t seen = 0; seen <= i; ++seen) {
      ASSERT_EQ(slots.find(ids[seen]), seen) << "after " << i + 1 << " jobs";
      ASSERT_EQ(slots.insert(ids[seen]), seen);
    }
    ASSERT_EQ(slots.size(), i + 1);
  }
}

TEST(JobSlots, AscendingOrdersSparseIdsInsertedOutOfOrder) {
  JobSlots slots;
  for (std::uint32_t id : {4000000000u, 7u, 3u, 100u, 8u, 7u})
    slots.insert(JobId(id));
  std::vector<JobId> ascending;
  for (std::uint32_t slot : slots.ascending())
    ascending.push_back(slots.job(slot));
  EXPECT_EQ(ascending, (std::vector<JobId>{JobId(3), JobId(7), JobId(8),
                                           JobId(100), JobId(4000000000u)}));
}

}  // namespace
}  // namespace adaptbf
