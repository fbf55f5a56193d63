// EventQueue API tests: fire order, cancel verdicts, handle staleness,
// counts, callbacks that cancel or schedule at the current time, and
// reset()-reuse.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "support/random.h"

namespace adaptbf {
namespace {

TEST(EventQueueTest, EmptyAtStart) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_time(), SimTime::max());
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime(30), [&] { fired.push_back(3); });
  queue.schedule(SimTime(10), [&] { fired.push_back(1); });
  queue.schedule(SimTime(20), [&] { fired.push_back(2); });
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i)
    queue.schedule(SimTime(5), [&fired, i] { fired.push_back(i); });
  while (!queue.empty()) queue.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  const EventHandle handle = queue.schedule(SimTime(10), [&] { fired = true; });
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime(10), [] {});
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueueTest, CancelAfterFireFails) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime(10), [] {});
  queue.pop().fn();
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueueTest, CancelMiddleKeepsOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime(1), [&] { fired.push_back(1); });
  const EventHandle handle =
      queue.schedule(SimTime(2), [&] { fired.push_back(2); });
  queue.schedule(SimTime(3), [&] { fired.push_back(3); });
  queue.cancel(handle);
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime(1), [] {});
  queue.schedule(SimTime(5), [] {});
  queue.cancel(handle);
  EXPECT_EQ(queue.next_time(), SimTime(5));
}

TEST(EventQueueTest, LiveCountTracksCancellations) {
  EventQueue queue;
  const EventHandle a = queue.schedule(SimTime(1), [] {});
  queue.schedule(SimTime(2), [] {});
  EXPECT_EQ(queue.live(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.live(), 1u);
}

TEST(EventQueueTest, DefaultHandleIsInvalid) {
  EventQueue queue;
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(queue.pending(handle));
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueueTest, PendingTracksLifecycle) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime(10), [] {});
  EXPECT_TRUE(queue.pending(handle));
  queue.pop().fn();
  EXPECT_FALSE(queue.pending(handle));
}

TEST(EventQueueTest, StaleHandleAgainstReusedSlotFails) {
  EventQueue queue;
  const EventHandle first = queue.schedule(SimTime(10), [] {});
  queue.pop().fn();
  // The pool reuses the released slot; the old handle's generation is
  // behind, so it must not cancel the new occupant.
  const EventHandle second = queue.schedule(SimTime(20), [] {});
  ASSERT_EQ(second.index, first.index);
  EXPECT_NE(second.generation, first.generation);
  EXPECT_FALSE(queue.pending(first));
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_TRUE(queue.pending(second));
  EXPECT_TRUE(queue.cancel(second));
}

TEST(EventQueueTest, SequencesAssignedInScheduleOrder) {
  EventQueue queue;
  queue.schedule(SimTime(30), [] {});
  queue.schedule(SimTime(10), [] {});
  queue.schedule(SimTime(20), [] {});
  EXPECT_EQ(queue.pop().seq, 1u);
  EXPECT_EQ(queue.pop().seq, 2u);
  EXPECT_EQ(queue.pop().seq, 0u);
}

TEST(EventQueueTest, StatsCountOperations) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime(1), [] {});
  queue.schedule(SimTime(2), [] {});
  queue.cancel(handle);
  queue.pop().fn();
  EXPECT_EQ(queue.stats().scheduled, 2u);
  EXPECT_EQ(queue.stats().cancelled, 1u);
  EXPECT_EQ(queue.stats().fired, 1u);
}

TEST(EventQueueTest, ReserveMakesSteadyStateAllocationFree) {
  EventQueue queue;
  queue.reserve(64);
  const auto churn_round = [&queue] {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 64; ++i)
      handles.push_back(queue.schedule(SimTime(i), [] {}));
    for (int i = 0; i < 32; ++i) queue.cancel(handles[static_cast<size_t>(i)]);
    while (!queue.empty()) queue.pop().fn();
  };
  // Churn far more events than the reservation, never exceeding 64 live.
  for (int round = 0; round < 100; ++round) churn_round();
  EXPECT_EQ(queue.stats().pool_reallocations, 0u);
  EXPECT_LE(queue.pool_slots(), 64u);
}

TEST(EventQueueTest, OversizedCaptureStillWorksViaHeapFallback) {
  EventQueue queue;
  // > kInlineCapacity bytes of captured state must still fire correctly.
  std::array<std::uint64_t, 32> big{};
  big[0] = 7;
  big[31] = 9;
  std::uint64_t sum = 0;
  queue.schedule(SimTime(1), [big, &sum] { sum = big[0] + big[31]; });
  queue.pop().fn();
  EXPECT_EQ(sum, 16u);
}

TEST(EventQueueTest, HeapSpillsCountedPerQueue) {
  // The per-queue spill counter sees only this queue's oversized captures.
  EventQueue queue;
  EventQueue other;
  std::array<std::uint64_t, 32> big{};
  queue.schedule(SimTime(1), [] {});  // inline: no spill
  EXPECT_EQ(queue.stats().callback_heap_spills, 0u);
  queue.schedule(SimTime(2), [big] { (void)big; });
  EXPECT_EQ(queue.stats().callback_heap_spills, 1u);
  EXPECT_EQ(other.stats().callback_heap_spills, 0u);
}

TEST(EventQueueTest, CancelledCallbackStateIsReleased) {
  EventQueue queue;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  const EventHandle handle = queue.schedule(SimTime(1), [token] {});
  token.reset();
  EXPECT_FALSE(watch.expired());  // kept alive by the pending event
  queue.cancel(handle);
  EXPECT_TRUE(watch.expired());  // cancel destroys the captured state
}

TEST(EventQueueTest, StressManyRandomOrderings) {
  EventQueue queue;
  std::vector<std::int64_t> fired;
  // Insert with a scrambled deterministic pattern.
  for (std::int64_t i = 0; i < 1000; ++i) {
    const std::int64_t t = (i * 7919) % 1000;
    queue.schedule(SimTime(t), [&fired, t] { fired.push_back(t); });
  }
  SimTime last = SimTime::zero();
  while (!queue.empty()) {
    auto event = queue.pop();
    EXPECT_GE(event.time, last);
    last = event.time;
    event.fn();
  }
  EXPECT_EQ(fired.size(), 1000u);
}

// ------------------------------------------- same-time cancel and schedule

TEST(EventQueueTest, CallbackCancelsSameTimeEventQueuedBehindIt) {
  // An event cancels a same-timestamp event scheduled behind it: the
  // victim never fires and the remaining same-time event still does.
  EventQueue queue;
  std::vector<int> fired;
  EventHandle second;
  queue.schedule(SimTime(10), [&] {
    fired.push_back(0);
    EXPECT_TRUE(queue.cancel(second));
  });
  second = queue.schedule(SimTime(10), [&] { fired.push_back(1); });
  queue.schedule(SimTime(10), [&] { fired.push_back(2); });
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
  EXPECT_EQ(queue.stats().cancelled, 1u);
  EXPECT_EQ(queue.stats().fired, 2u);
}

TEST(EventQueueTest, SameTimeScheduleFiresAfterEventsAlreadyQueued) {
  // A same-time event scheduled from a callback takes a later sequence
  // number than everything already queued at that time, so it fires last.
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime(10), [&] {
    fired.push_back(0);
    queue.schedule(SimTime(10), [&] { fired.push_back(9); });
  });
  queue.schedule(SimTime(10), [&] { fired.push_back(1); });
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 9}));
}

// ----------------------------------------------------------- reset reuse

TEST(EventQueueTest, ResetDropsPendingAndRewindsSequences) {
  EventQueue queue;
  bool fired = false;
  const EventHandle handle = queue.schedule(SimTime(5), [&] { fired = true; });
  queue.schedule(SimTime(6), [] {});
  queue.reset();
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.pending(handle));
  EXPECT_FALSE(queue.cancel(handle));  // stale, not aliased
  EXPECT_FALSE(fired);
  EXPECT_EQ(queue.stats().scheduled, 0u);
  // Sequences restart at zero, exactly like a fresh queue.
  queue.schedule(SimTime(1), [] {});
  EXPECT_EQ(queue.pop().seq, 0u);
}

TEST(EventQueueTest, ResetReleasesPendingCallbackState) {
  EventQueue queue;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  queue.schedule(SimTime(5), [token] {});
  token.reset();
  ASSERT_FALSE(watch.expired());
  queue.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueTest, ResetKeepsStorageWarm) {
  EventQueue queue;
  const auto fill_and_drain = [&queue] {
    for (int i = 0; i < 200; ++i) queue.schedule(SimTime(i % 17), [] {});
    while (!queue.empty()) queue.pop().fn();
  };
  fill_and_drain();
  queue.reset();
  // The second identical round must not grow any storage: the slab and
  // the heap both survived the reset.
  fill_and_drain();
  EXPECT_EQ(queue.stats().pool_reallocations, 0u);
}

/// Randomized property: a reset queue is observationally identical to a
/// fresh one — the same operation sequence produces the same (time, seq)
/// fire trace, cancel verdicts, and counts, no matter what ran before the
/// reset.
TEST(EventQueueTest, ResetQueueTracesIdenticallyToFreshQueue) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EventQueue reused;
    // Arbitrary pre-history, abandoned mid-flight (pending events left).
    Xoshiro256 pre(seed * 977);
    std::vector<EventHandle> pre_handles;
    for (int i = 0; i < 300; ++i) {
      pre_handles.push_back(reused.schedule(
          SimTime(static_cast<std::int64_t>(pre.next_in(0, 99))), [] {}));
      if (pre.next_in(0, 2) == 0) reused.pop().fn();
      if (pre.next_in(0, 3) == 0)
        reused.cancel(pre_handles[pre.next_in(0, pre_handles.size() - 1)]);
    }
    reused.reset();

    EventQueue fresh;
    const auto run_ops = [](EventQueue& queue, std::uint64_t op_seed) {
      // (time, seq) trace plus verdict/count observations.
      std::vector<std::pair<std::int64_t, std::uint64_t>> trace;
      Xoshiro256 rng(op_seed);
      std::vector<EventHandle> handles;
      for (int op = 0; op < 500; ++op) {
        const std::uint64_t roll = rng.next_in(0, 9);
        if (roll < 6 || queue.empty()) {
          handles.push_back(queue.schedule(
              SimTime(static_cast<std::int64_t>(rng.next_in(0, 49))), [] {}));
        } else if (roll < 8) {
          const bool verdict =
              queue.cancel(handles[rng.next_in(0, handles.size() - 1)]);
          trace.emplace_back(-1, verdict ? 1 : 0);
        } else {
          const auto fired = queue.pop();
          trace.emplace_back(fired.time.ns(), fired.seq);
        }
        trace.emplace_back(-2, queue.live());
      }
      while (!queue.empty()) {
        const auto fired = queue.pop();
        trace.emplace_back(fired.time.ns(), fired.seq);
      }
      return trace;
    };
    EXPECT_EQ(run_ops(reused, seed), run_ops(fresh, seed))
        << "reset()-reuse trace diverged from fresh queue, seed " << seed;
  }
}

}  // namespace
}  // namespace adaptbf
