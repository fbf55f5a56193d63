// Parameterized property sweep for the processor-sharing device: random
// admission schedules must conserve work exactly and never let the device
// idle while transfers are pending.
#include <gtest/gtest.h>

#include <vector>

#include "ost/ps_disk.h"
#include "support/random.h"

namespace adaptbf {
namespace {

struct PsDiskFuzzParam {
  std::uint64_t seed;
  int transfers;
  double bandwidth;
};

class PsDiskPropertyTest : public ::testing::TestWithParam<PsDiskFuzzParam> {};

TEST_P(PsDiskPropertyTest, WorkConservationUnderRandomAdmissions) {
  const auto param = GetParam();
  Simulator sim;
  int completions = 0;
  PsDisk disk(sim, param.bandwidth, [&completions](std::uint64_t) {
    ++completions;
  });
  Xoshiro256 rng(param.seed);

  double total_work = 0.0;
  SimTime first_admit = SimTime::max();
  // Admit transfers at random times with random sizes.
  for (int i = 0; i < param.transfers; ++i) {
    const SimTime when =
        SimTime::zero() +
        SimDuration::micros(static_cast<std::int64_t>(rng.next_in(0, 500000)));
    const double work = 1.0 + rng.next_double() * 5000.0;
    total_work += work;
    first_admit = std::min(first_admit, when);
    sim.schedule_at(when, [&disk, i, work] {
      disk.admit(static_cast<std::uint64_t>(i), work);
    });
  }
  sim.run_to_completion();

  EXPECT_EQ(completions, param.transfers);
  EXPECT_EQ(disk.active(), 0u);
  EXPECT_NEAR(disk.work_completed(), total_work,
              1e-3 * param.transfers + 1.0);
  // Lower bound on finish time: the device can never beat
  // first_admit + total_work / bandwidth. (It may be later: admissions
  // can arrive after the device idles.)
  EXPECT_GE(sim.now().to_seconds() + 1e-6,
            first_admit.to_seconds() + total_work / param.bandwidth -
                // slack for the final transfer's completion rounding
                1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, PsDiskPropertyTest,
    ::testing::Values(PsDiskFuzzParam{11, 50, 1000.0},
                      PsDiskFuzzParam{22, 200, 1e6},
                      PsDiskFuzzParam{33, 500, 12345.0},
                      PsDiskFuzzParam{44, 10, 3.5},
                      PsDiskFuzzParam{55, 100, 1e9}),
    [](const ::testing::TestParamInfo<PsDiskFuzzParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace adaptbf
