// Randomized model test: the pooled/generation-tagged EventQueue must be
// observationally identical to a trivial reference implementation — a
// std::map keyed on (fire time, sequence number), with the model handing
// out sequence numbers in the same order as the queue, i.e. exactly the
// (time, sequence) contract.
//
// 10k mixed schedule/reserve/cancel/pop operations per seed, asserting
// identical fire order, sequence numbers, live() counts, and cancel()
// verdicts throughout. Reservations take a number now and schedule with it
// later in the same operation, as the PS disk does within one dispatch.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "support/random.h"

namespace adaptbf {
namespace {

/// (fire time, sequence number) -> sequence number. The sequence number
/// doubles as the event's token: it is unique and recorded when it fires.
using Key = std::pair<std::int64_t, std::uint64_t>;
using Oracle = std::map<Key, std::uint64_t>;

struct ModelEvent {
  EventHandle handle;
  Oracle::iterator oracle_it;
  bool alive = false;
};

void run_model(std::uint64_t seed, int operations) {
  Xoshiro256 rng(seed);
  EventQueue queue;
  Oracle oracle;
  std::vector<ModelEvent> events;  // every event ever scheduled
  std::vector<std::uint64_t> fired;
  std::uint64_t next_seq = 0;

  const auto track = [&](EventHandle handle, std::int64_t when,
                         std::uint64_t seq) {
    ModelEvent event;
    event.handle = handle;
    event.oracle_it = oracle.emplace(Key{when, seq}, seq).first;
    event.alive = true;
    events.push_back(event);
  };

  const auto schedule_one = [&](std::int64_t when) {
    const std::uint64_t seq = next_seq++;
    track(queue.schedule(SimTime(when),
                         [&fired, seq] { fired.push_back(seq); }),
          when, seq);
  };

  // Reserve-then-schedule-later: takes one to three numbers with ordinary
  // schedules interleaved, then schedules under a random subset of them
  // (each at most once, in random order). Nothing is popped in between, as
  // the contract requires.
  const auto reserve_burst = [&] {
    std::vector<std::uint64_t> reserved;
    const std::uint64_t n = rng.next_in(1, 3);
    for (std::uint64_t i = 0; i < n; ++i) {
      reserved.push_back(queue.reserve_seq());
      ASSERT_EQ(reserved.back(), next_seq++) << "reserved number diverged";
      if (rng.next_in(0, 1) == 0)
        schedule_one(static_cast<std::int64_t>(rng.next_in(0, 499)));
    }
    while (!reserved.empty()) {
      const std::size_t pick = rng.next_in(0, reserved.size() - 1);
      const std::uint64_t seq = reserved[pick];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(pick));
      if (rng.next_in(0, 2) == 0) continue;  // dropped reservation
      const auto when = static_cast<std::int64_t>(rng.next_in(0, 499));
      track(queue.schedule_reserved(SimTime(when), seq,
                                    [&fired, seq] { fired.push_back(seq); }),
            when, seq);
    }
  };

  const auto cancel_random = [&](int op) {
    ModelEvent& event = events[rng.next_in(0, events.size() - 1)];
    const bool cancelled = queue.cancel(event.handle);
    ASSERT_EQ(cancelled, event.alive) << "cancel verdict diverged at op " << op;
    if (event.alive) {
      oracle.erase(event.oracle_it);
      event.alive = false;
    }
  };

  const auto check_fired_front = [&](EventQueue::Fired& popped, int op) {
    const auto expected = oracle.begin();
    ASSERT_EQ(popped.time.ns(), expected->first.first)
        << "fire time diverged at op " << op;
    ASSERT_EQ(popped.seq, expected->first.second)
        << "sequence number diverged at op " << op;
    const std::size_t before = fired.size();
    popped.fn();
    ASSERT_EQ(fired.size(), before + 1);
    ASSERT_EQ(fired.back(), expected->second)
        << "fire order diverged at op " << op;
    for (auto& event : events) {
      if (event.alive && event.oracle_it == expected) {
        event.alive = false;
        ASSERT_FALSE(queue.pending(event.handle));
        break;
      }
    }
    oracle.erase(expected);
  };

  for (int op = 0; op < operations; ++op) {
    const std::uint64_t roll = rng.next_in(0, 99);
    if (roll < 40 || queue.empty()) {
      // Schedule at a clustered time so ties are frequent.
      schedule_one(static_cast<std::int64_t>(rng.next_in(0, 499)));
    } else if (roll < 50) {
      reserve_burst();
      if (::testing::Test::HasFatalFailure()) return;
    } else if (roll < 75) {
      // Cancel a random historical event — often already fired or already
      // cancelled, so stale-handle rejection is exercised constantly.
      cancel_random(op);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      // Pop: compare against the oracle's front (begin() of the map).
      ASSERT_FALSE(oracle.empty());
      auto popped = queue.pop();
      check_fired_front(popped, op);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(queue.live(), oracle.size()) << "live() diverged at op " << op;
    ASSERT_EQ(queue.empty(), oracle.empty());
    ASSERT_EQ(queue.next_time(),
              oracle.empty() ? SimTime::max()
                             : SimTime(oracle.begin()->first.first));
  }

  // Drain: the remaining fire order must match the oracle exactly.
  while (!oracle.empty()) {
    const auto expected = oracle.begin();
    auto popped = queue.pop();
    ASSERT_EQ(popped.time.ns(), expected->first.first);
    ASSERT_EQ(popped.seq, expected->first.second);
    popped.fn();
    ASSERT_EQ(fired.back(), expected->second);
    oracle.erase(expected);
  }
  ASSERT_TRUE(queue.empty());
}

TEST(EventQueueModel, TenThousandMixedOperations) {
  run_model(0x5eed, 10000);
}

TEST(EventQueueModel, MoreSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_model(seed, 2000);
}

TEST(EventQueueModel, ReservedSeqBelowMinimumAtEqualTime) {
  // An event scheduled under a reserved number at the same time as the
  // current minimum, with a smaller sequence number, becomes the minimum.
  EventQueue queue;
  std::vector<int> order;
  const std::uint64_t reserved = queue.reserve_seq();
  queue.schedule(SimTime(5), [&order] { order.push_back(1); });
  ASSERT_EQ(queue.next_time(), SimTime(5));
  queue.schedule_reserved(SimTime(5), reserved,
                          [&order] { order.push_back(0); });
  auto first = queue.pop();
  EXPECT_EQ(first.seq, reserved);
  first.fn();
  auto second = queue.pop();
  second.fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueModel, SchedulingUnreservedSeqFailsCheck) {
  EventQueue queue;
  queue.schedule(SimTime(1), [] {});  // hands out sequence number 0
  EXPECT_DEATH(queue.schedule_reserved(SimTime(1), 1, [] {}),
               "not reserved since the last pop");
}

TEST(EventQueueModel, ReservationTakenBeforeLastPopFailsCheck) {
  EventQueue queue;
  const std::uint64_t reserved = queue.reserve_seq();
  queue.schedule(SimTime(1), [] {});
  (void)queue.pop();
  EXPECT_DEATH(queue.schedule_reserved(SimTime(2), reserved, [] {}),
               "not reserved since the last pop");
}

}  // namespace
}  // namespace adaptbf
