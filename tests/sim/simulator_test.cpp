#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace adaptbf {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunUntilAdvancesClockExactly) {
  Simulator sim;
  sim.run_until(SimTime(500));
  EXPECT_EQ(sim.now(), SimTime(500));
}

TEST(Simulator, EventSeesItsOwnTime) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime(100), [&] { seen = sim.now(); });
  sim.run_until(SimTime(200));
  EXPECT_EQ(seen, SimTime(100));
  EXPECT_EQ(sim.now(), SimTime(200));
}

TEST(Simulator, ScheduleAfterUsesRelativeDelay) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime(100), [&] {
    sim.schedule_after(SimDuration(50), [&] { seen = sim.now(); });
  });
  sim.run_to_completion();
  EXPECT_EQ(seen, SimTime(150));
}

TEST(Simulator, RunUntilDoesNotFireLaterEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(SimTime(1000), [&] { fired = true; });
  sim.run_until(SimTime(999));
  EXPECT_FALSE(fired);
  sim.run_until(SimTime(1000));
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsCascade) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime(10), [&] {
    order.push_back(1);
    sim.schedule_after(SimDuration(5), [&] { order.push_back(2); });
  });
  sim.schedule_at(SimTime(12), [&] { order.push_back(3); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, CancelStopsEvent) {
  Simulator sim;
  bool fired = false;
  const EventHandle handle = sim.schedule_at(SimTime(10), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(handle));
  sim.run_to_completion();
  EXPECT_FALSE(fired);
}

TEST(Simulator, PeriodicFiresAtMultiples) {
  Simulator sim;
  std::vector<SimTime> fires;
  sim.schedule_periodic(SimDuration(100), [&] { fires.push_back(sim.now()); });
  sim.run_until(SimTime(350));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], SimTime(100));
  EXPECT_EQ(fires[1], SimTime(200));
  EXPECT_EQ(fires[2], SimTime(300));
}

TEST(Simulator, PeriodicCancelStopsFutureFires) {
  Simulator sim;
  int count = 0;
  auto handle = sim.schedule_periodic(SimDuration(10), [&] { ++count; });
  sim.run_until(SimTime(35));
  EXPECT_EQ(count, 3);
  sim.cancel_periodic(handle);
  sim.run_until(SimTime(100));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicCanCancelItself) {
  Simulator sim;
  int count = 0;
  Simulator::PeriodicHandle handle{};
  handle = sim.schedule_periodic(SimDuration(10), [&] {
    ++count;
    if (count == 2) sim.cancel_periodic(handle);
  });
  sim.run_until(SimTime(100));
  EXPECT_EQ(count, 2);
}

TEST(Simulator, TwoPeriodicsInterleave) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_periodic(SimDuration(30), [&] { order.push_back(30); });
  sim.schedule_periodic(SimDuration(20), [&] { order.push_back(20); });
  sim.run_until(SimTime(60));
  // At t=60 both fire; the 30-periodic's event was armed earlier (t=30 vs
  // t=40), so insertion order puts it first.
  EXPECT_EQ(order, (std::vector<int>{20, 30, 20, 30, 20}));
}

TEST(Simulator, CountsDispatchedEvents) {
  Simulator sim;
  for (int i = 1; i <= 5; ++i) sim.schedule_at(SimTime(i), [] {});
  sim.run_to_completion();
  EXPECT_EQ(sim.events_dispatched(), 5u);
}

TEST(SimulatorDeathTest, ZeroPeriodIsRejected) {
  // A zero period would re-arm at the same timestamp forever; the guard
  // must fail fast instead of spinning the clock in place.
  Simulator sim;
  EXPECT_DEATH(sim.schedule_periodic(SimDuration(0), [] {}),
               "period must be positive");
}

TEST(SimulatorDeathTest, NegativePeriodIsRejected) {
  Simulator sim;
  EXPECT_DEATH(sim.schedule_periodic(SimDuration(-5), [] {}),
               "period must be positive");
}

TEST(Simulator, PendingReflectsEventLifecycle) {
  Simulator sim;
  const EventHandle handle = sim.schedule_at(SimTime(10), [] {});
  EXPECT_TRUE(sim.pending(handle));
  sim.run_until(SimTime(10));
  EXPECT_FALSE(sim.pending(handle));
  EXPECT_FALSE(sim.cancel(handle));  // stale: safely rejected
}

TEST(Simulator, CancelPeriodicWithStaleHandleIsNoOp) {
  Simulator sim;
  int count = 0;
  const auto handle = sim.schedule_periodic(SimDuration(10), [&] { ++count; });
  sim.cancel_periodic(handle);
  sim.cancel_periodic(handle);  // second cancel must not disturb the pool
  // A new periodic reuses the released slot; the stale handle must not be
  // able to cancel it.
  const auto reused = sim.schedule_periodic(SimDuration(10), [&] { ++count; });
  ASSERT_EQ(reused.index, handle.index);
  sim.cancel_periodic(handle);
  sim.run_until(SimTime(35));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicSteadyStateIsAllocationFree) {
  Simulator sim;
  std::uint64_t ticks = 0;
  sim.schedule_periodic(SimDuration(10), [&] { ++ticks; });
  sim.run_until(SimTime(100));  // warm up the pools
  const auto warm = sim.queue_stats().pool_reallocations;
  sim.run_until(SimTime(100000));
  EXPECT_EQ(ticks, 10000u);
  EXPECT_EQ(sim.queue_stats().pool_reallocations, warm);
  EXPECT_EQ(sim.queue_stats().callback_heap_spills, 0u);
  EXPECT_LE(sim.event_pool_slots(), 2u);
}

TEST(Simulator, ManyPeriodicsReuseSlots) {
  Simulator sim;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    const auto handle =
        sim.schedule_periodic(SimDuration(7), [&] { ++fired; });
    sim.run_until(sim.now() + SimDuration(21));
    sim.cancel_periodic(handle);
  }
  EXPECT_EQ(fired, 150);
}

// ------------------------------------------------------- dispatch order

TEST(Simulator, TieHeavyDispatchTraceIsPinned) {
  // Periodics with a common divisor plus bursts of same-time one-shots,
  // one of which cancels a same-time event behind it and re-schedules at
  // the current time. The (time, seq) stream is pinned literally; it was
  // recorded when the event core still had two queue backends and two
  // dispatch modes, and all four combinations produced exactly this
  // stream.
  Simulator sim;
  std::vector<std::pair<std::int64_t, std::uint64_t>> trace;
  sim.set_dispatch_hook([&trace](SimTime time, std::uint64_t seq) {
    trace.emplace_back(time.ns(), seq);
  });
  sim.schedule_periodic(SimDuration(10), [] {});
  sim.schedule_periodic(SimDuration(20), [] {});
  EventHandle victim;
  sim.schedule_at(SimTime(40), [&] {
    EXPECT_TRUE(sim.cancel(victim));
    sim.schedule_after(SimDuration(0), [] {});  // same-time re-schedule
  });
  victim = sim.schedule_at(SimTime(40), [] {});
  for (int i = 0; i < 8; ++i) sim.schedule_at(SimTime(60), [] {});
  sim.run_until(SimTime(100));

  const std::vector<std::pair<std::int64_t, std::uint64_t>> expected = {
      {10, 0},  {20, 1},  {20, 12}, {30, 14}, {40, 2},  {40, 13}, {40, 15},
      {40, 16}, {50, 18}, {60, 4},  {60, 5},  {60, 6},  {60, 7},  {60, 8},
      {60, 9},  {60, 10}, {60, 11}, {60, 17}, {60, 19}, {70, 21}, {80, 20},
      {80, 22}, {90, 24}, {100, 23}, {100, 25}};
  EXPECT_EQ(trace, expected);
  EXPECT_EQ(sim.events_dispatched(), trace.size());
}

TEST(Simulator, CancelOfSameTimestampEventIsHonored) {
  Simulator sim;
  bool victim_fired = false;
  EventHandle victim;
  sim.schedule_at(SimTime(10), [&] { ASSERT_TRUE(sim.cancel(victim)); });
  victim = sim.schedule_at(SimTime(10), [&] { victim_fired = true; });
  sim.run_to_completion();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(sim.events_dispatched(), 1u);
}

TEST(Simulator, ResetRestoresFreshObservableState) {
  Simulator sim;
  bool stale_fired = false;
  sim.schedule_at(SimTime(50), [&] { stale_fired = true; });
  const auto periodic = sim.schedule_periodic(SimDuration(10), [] {});
  sim.run_until(SimTime(25));
  sim.reset();
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.events_dispatched(), 0u);
  EXPECT_TRUE(sim.idle());
  sim.cancel_periodic(periodic);  // stale: must be a harmless no-op
  sim.run_until(SimTime(200));
  EXPECT_FALSE(stale_fired);
  EXPECT_EQ(sim.events_dispatched(), 0u);
}

TEST(Simulator, ReusedSimulatorTracesIdenticallyToFreshOne) {
  const auto workload = [](Simulator& sim) {
    std::vector<std::pair<std::int64_t, std::uint64_t>> trace;
    sim.set_dispatch_hook([&trace](SimTime time, std::uint64_t seq) {
      trace.emplace_back(time.ns(), seq);
    });
    const auto periodic =
        sim.schedule_periodic(SimDuration(7), [] {});
    for (int i = 0; i < 20; ++i)
      sim.schedule_at(SimTime(3 * (i % 5) + 1), [] {});
    sim.run_until(SimTime(90));
    sim.cancel_periodic(periodic);
    sim.run_to_completion();
    return trace;
  };
  Simulator reused;
  // Pre-history: abandoned mid-run with events and a periodic pending.
  reused.schedule_periodic(SimDuration(3), [] {});
  for (int i = 0; i < 40; ++i) reused.schedule_at(SimTime(100 + i), [] {});
  reused.run_until(SimTime(80));
  reused.reset();

  Simulator fresh;
  EXPECT_EQ(workload(reused), workload(fresh));
}

}  // namespace
}  // namespace adaptbf
