#include "ost/ps_disk.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace adaptbf {
namespace {

/// Completion sink recording each tag's completion time and the order.
struct Completions {
  explicit Completions(Simulator& s) : sim(s) {}

  Simulator& sim;
  std::map<std::uint64_t, double> at;
  std::vector<std::uint64_t> order;

  PsDisk::DoneFn sink() {
    return [this](std::uint64_t tag) {
      at[tag] = sim.now().to_seconds();
      order.push_back(tag);
    };
  }
};

TEST(PsDisk, SingleTransferAtFullBandwidth) {
  Simulator sim;
  Completions done{sim};
  PsDisk disk(sim, 1000.0, done.sink());  // 1000 work-bytes/s
  disk.admit(1, 500.0);
  sim.run_to_completion();
  EXPECT_NEAR(done.at.at(1), 0.5, 1e-6);
}

TEST(PsDisk, TwoEqualTransfersShareBandwidth) {
  Simulator sim;
  Completions done{sim};
  PsDisk disk(sim, 1000.0, done.sink());
  for (std::uint64_t tag = 1; tag <= 2; ++tag) disk.admit(tag, 500.0);
  sim.run_to_completion();
  ASSERT_EQ(done.order.size(), 2u);
  // Each proceeds at 500 B/s: both finish at t=1.0.
  EXPECT_NEAR(done.at.at(1), 1.0, 1e-6);
  EXPECT_NEAR(done.at.at(2), 1.0, 1e-6);
}

TEST(PsDisk, UnequalTransfersFinishInSizeOrder) {
  Simulator sim;
  Completions done{sim};
  PsDisk disk(sim, 1000.0, done.sink());
  disk.admit(1, 200.0);
  disk.admit(2, 800.0);
  sim.run_to_completion();
  // Shared until small finishes at t=0.4 (200/(1000/2)); big then has
  // 600 left at full rate: t = 0.4 + 0.6 = 1.0.
  EXPECT_NEAR(done.at.at(1), 0.4, 1e-6);
  EXPECT_NEAR(done.at.at(2), 1.0, 1e-6);
}

TEST(PsDisk, LateArrivalSharesRemainder) {
  Simulator sim;
  Completions done{sim};
  PsDisk disk(sim, 1000.0, done.sink());
  disk.admit(1, 1000.0);
  sim.schedule_at(SimTime::zero() + SimDuration::millis(500),
                  [&] { disk.admit(2, 250.0); });
  sim.run_to_completion();
  // First runs alone 0..0.5 (500 done). Then shares: each gets 500 B/s.
  // Second finishes 250/500 = 0.5s later at t=1.0; first then has 250
  // left at full rate: t = 1.0 + 0.25.
  EXPECT_NEAR(done.at.at(2), 1.0, 1e-6);
  EXPECT_NEAR(done.at.at(1), 1.25, 1e-6);
}

TEST(PsDisk, TiesCompleteInAdmissionOrder) {
  Simulator sim;
  Completions done{sim};
  PsDisk disk(sim, 100.0, done.sink());
  for (std::uint64_t tag = 10; tag >= 1; --tag) disk.admit(tag, 50.0);
  sim.run_to_completion();
  ASSERT_EQ(done.order.size(), 10u);
  // Admission went 10, 9, ..., 1 — completions must match that order.
  for (std::size_t i = 0; i < done.order.size(); ++i)
    EXPECT_EQ(done.order[i], 10 - i);
}

TEST(PsDisk, TiesAfterEarlierCompletionsKeepAdmissionOrder) {
  // Completions close gaps in the active array; the survivors must keep
  // their admission order for later ties.
  Simulator sim;
  Completions done{sim};
  PsDisk disk(sim, 100.0, done.sink());
  disk.admit(7, 50.0);
  disk.admit(3, 10.0);
  disk.admit(9, 50.0);
  disk.admit(1, 10.0);  // ties with 3, both finish first
  sim.run_to_completion();
  EXPECT_EQ(done.order, (std::vector<std::uint64_t>{3, 1, 7, 9}));
}

TEST(PsDisk, WorkConservation) {
  Simulator sim;
  Completions done{sim};
  PsDisk disk(sim, 1000.0, done.sink());
  double total_work = 0.0;
  for (std::uint64_t tag = 0; tag < 20; ++tag) {
    const double work = 100.0 + static_cast<double>(tag) * 37.0;
    total_work += work;
    disk.admit(tag, work);
  }
  sim.run_to_completion();
  EXPECT_EQ(done.order.size(), 20u);
  EXPECT_NEAR(disk.work_completed(), total_work, 1.0);
  // 20 transfers totalling `total_work` at 1000 B/s must take exactly
  // total_work/1000 seconds — processor sharing never idles the device.
  EXPECT_NEAR(sim.now().to_seconds(), total_work / 1000.0, 1e-3);
}

TEST(PsDisk, CompletionCallbackCanAdmitMore) {
  Simulator sim;
  double chained_done = 0.0;
  PsDisk* disk_ptr = nullptr;
  PsDisk disk(sim, 1000.0, [&](std::uint64_t tag) {
    if (tag == 1) disk_ptr->admit(2, 500.0);
    if (tag == 2) chained_done = sim.now().to_seconds();
  });
  disk_ptr = &disk;
  disk.admit(1, 500.0);
  sim.run_to_completion();
  EXPECT_NEAR(chained_done, 1.0, 1e-6);
}

TEST(PsDisk, CompletionCohortArmsOnceForAllItsAdmissions) {
  // A completion whose callback admits k transfers schedules exactly one
  // successor event and cancels nothing; re-arming on every admission
  // would schedule k + 1 and cancel k.
  constexpr std::uint64_t kAdmitted = 3;
  Simulator sim;
  Completions done{sim};
  PsDisk* disk_ptr = nullptr;
  PsDisk disk(sim, 1000.0, [&](std::uint64_t tag) {
    done.sink()(tag);
    if (tag != 1) return;
    for (std::uint64_t i = 0; i < kAdmitted; ++i)
      disk_ptr->admit(10 + i, 300.0);
  });
  disk_ptr = &disk;
  disk.admit(1, 100.0);
  disk.admit(2, 1000.0);
  sim.run_until(SimTime::zero() + SimDuration::millis(100));
  const EventQueue::Stats before = sim.queue_stats();
  // Tag 1 finishes at t=0.2 (100 at 500 B/s) and admits three more.
  sim.run_until(SimTime::zero() + SimDuration::millis(300));
  ASSERT_EQ(done.order, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(sim.queue_stats().scheduled - before.scheduled, 1u);
  EXPECT_EQ(sim.queue_stats().cancelled - before.cancelled, 0u);
  sim.run_to_completion();
  // Four share from t=0.2: the 300s finish 1.2 s later, at t=1.4, in
  // admission order; tag 2 then has 600 left at full rate: t=2.0.
  EXPECT_EQ(done.order, (std::vector<std::uint64_t>{1, 10, 11, 12, 2}));
  EXPECT_NEAR(done.at.at(1), 0.2, 1e-6);
  for (std::uint64_t tag = 10; tag < 10 + kAdmitted; ++tag)
    EXPECT_NEAR(done.at.at(tag), 1.4, 1e-6);
  EXPECT_NEAR(done.at.at(2), 2.0, 1e-6);
}

TEST(PsDisk, CompletedTagCanBeReusedFromItsCallback) {
  // The OST tags transfers by I/O thread and reuses a thread's tag as soon
  // as its transfer completes, from inside the completion callback.
  Simulator sim;
  int completions = 0;
  PsDisk* disk_ptr = nullptr;
  PsDisk disk(sim, 1000.0, [&](std::uint64_t tag) {
    if (++completions < 4) disk_ptr->admit(tag, 100.0);
  });
  disk_ptr = &disk;
  disk.admit(0, 100.0);
  disk.admit(1, 100.0);
  sim.run_to_completion();
  EXPECT_EQ(completions, 5);
  EXPECT_EQ(disk.active(), 0u);
}

TEST(PsDisk, ManySmallTransfersDrainCompletely) {
  Simulator sim;
  int completions = 0;
  PsDisk disk(sim, 1e6, [&](std::uint64_t) { ++completions; });
  for (std::uint64_t tag = 0; tag < 500; ++tag)
    disk.admit(tag, 1.0 + static_cast<double>(tag % 7));
  sim.run_to_completion();
  EXPECT_EQ(completions, 500);
  EXPECT_EQ(disk.active(), 0u);
}

}  // namespace
}  // namespace adaptbf
