#include "workload/scenario_io.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace adaptbf {
namespace {

constexpr const char* kValid = R"ini(
[scenario]
name = demo
control = adaptive
duration_s = 30
observation_ms = 50
stop_when_idle = true

[server]
osts = 2
threads = 8
seq_bandwidth_mibps = 800
rand_bandwidth_mibps = 200
overhead_us = 25

[client]
rpc_size_kib = 512
max_inflight = 4

[job.1]
name = small
nodes = 1
process = continuous total=1024 count=4

[job.2]
name = bursty
nodes = 3
process = burst total=640 burst=64 period_s=5 delay_s=2 count=2 random=true
)ini";

TEST(ScenarioIo, LoadsValidFile) {
  const auto result = load_scenario(kValid);
  ASSERT_TRUE(result.ok()) << result.error;
  const ScenarioSpec& spec = *result.spec;
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.control, BwControl::kAdaptive);
  EXPECT_DOUBLE_EQ(spec.duration.to_seconds(), 30.0);
  EXPECT_DOUBLE_EQ(spec.observation_period.to_seconds(), 0.05);
  EXPECT_TRUE(spec.stop_when_idle);
  EXPECT_EQ(spec.num_osts, 2u);
  EXPECT_EQ(spec.num_threads, 8u);
  EXPECT_DOUBLE_EQ(spec.disk.seq_bandwidth, 800.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(spec.disk.per_rpc_overhead.to_seconds(), 25e-6);
  EXPECT_EQ(spec.rpc_size_bytes, 512u * 1024);
  EXPECT_EQ(spec.max_inflight_per_process, 4u);
  ASSERT_EQ(spec.jobs.size(), 2u);
  EXPECT_EQ(spec.jobs[0].name, "small");
  EXPECT_EQ(spec.jobs[0].nodes, 1u);
  EXPECT_EQ(spec.jobs[0].processes.size(), 4u);
  EXPECT_EQ(spec.jobs[0].processes[0].kind,
            ProcessPattern::Kind::kContinuous);
  EXPECT_EQ(spec.jobs[1].processes.size(), 2u);
  const auto& burst = spec.jobs[1].processes[0];
  EXPECT_EQ(burst.kind, ProcessPattern::Kind::kPeriodicBurst);
  EXPECT_EQ(burst.total_rpcs, 640u);
  EXPECT_EQ(burst.burst_rpcs, 64u);
  EXPECT_DOUBLE_EQ(burst.period.to_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(burst.start_delay.to_seconds(), 2.0);
  EXPECT_EQ(burst.locality, Locality::kRandom);
}

TEST(ScenarioIo, DefaultsApplyWhenKeysOmitted) {
  const auto result = load_scenario(
      "[job.1]\nprocess = continuous total=10\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spec->control, BwControl::kAdaptive);
  EXPECT_EQ(result.spec->num_osts, 1u);
  EXPECT_EQ(result.spec->jobs[0].name, "Job1");  // derived from section id
  EXPECT_EQ(result.spec->jobs[0].nodes, 1u);
}

TEST(ScenarioIo, RejectsUnknownSection) {
  const auto result =
      load_scenario("[serverz]\nthreads = 2\n[job.1]\nprocess = continuous "
                    "total=1\n");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("serverz"), std::string::npos);
}

TEST(ScenarioIo, RejectsUnknownKeys) {
  EXPECT_FALSE(load_scenario("[scenario]\nspeed = 9\n[job.1]\nprocess = "
                             "continuous total=1\n")
                   .ok());
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = continuous total=1 "
                             "warp=9\n")
                   .ok());
}

TEST(ScenarioIo, RejectsBadValues) {
  EXPECT_FALSE(
      load_scenario("[scenario]\ncontrol = chaotic\n[job.1]\nprocess = "
                    "continuous total=1\n")
          .ok());
  EXPECT_FALSE(load_scenario("[scenario]\nduration_s = -3\n[job.1]\n"
                             "process = continuous total=1\n")
                   .ok());
  EXPECT_FALSE(load_scenario("[server]\nosts = 0\n[job.1]\nprocess = "
                             "continuous total=1\n")
                   .ok());
  EXPECT_FALSE(load_scenario("[job.0]\nprocess = continuous total=1\n").ok());
  EXPECT_FALSE(load_scenario("[job.abc]\nprocess = continuous total=1\n").ok());
}

TEST(ScenarioIo, RejectsBadProcessLines) {
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = burst total=10\n").ok());
  EXPECT_FALSE(
      load_scenario("[job.1]\nprocess = burst total=10 burst=0 period_s=1\n")
          .ok());
  EXPECT_FALSE(
      load_scenario("[job.1]\nprocess = continuous total=10 burst=5\n").ok());
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = teleport total=10\n").ok());
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = continuous total=10 "
                             "count=0\n")
                   .ok());
  EXPECT_FALSE(load_scenario("[job.1]\nprocess =\n").ok());
}

TEST(ScenarioIo, CapsTotalProcessesAfterCountExpansion) {
  // The cap is on the whole scenario, summed across jobs and lines.
  const std::string half = std::to_string(kMaxScenarioProcesses / 2);
  const std::string at_cap = "[job.1]\nprocess = continuous total=1 count=" +
                             half + "\n[job.2]\nprocess = continuous "
                             "total=1 count=" + half + "\n";
  const auto accepted = load_scenario(at_cap);
  ASSERT_TRUE(accepted.ok()) << accepted.error;
  std::size_t processes = 0;
  for (const JobSpec& job : accepted.spec->jobs)
    processes += job.processes.size();
  EXPECT_EQ(processes, kMaxScenarioProcesses);

  const auto rejected =
      load_scenario(at_cap + "process = continuous total=1\n");
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error.find(kTooManyProcessesError), std::string::npos)
      << rejected.error;

  // A count= far past the cap fails fast, without expanding anything.
  const auto huge = load_scenario(
      "[job.1]\nprocess = continuous total=1 count=18446744073709551615\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.error.find(kTooManyProcessesError), std::string::npos)
      << huge.error;
}

TEST(ScenarioIo, RejectsCountsThatDoNotFitTheirFields) {
  // Each key at its largest accepted value loads; one over it fails with
  // the named error instead of wrapping into the 32-bit field.
  const std::string job = "[job.1]\nprocess = continuous total=1\n";
  auto load_with = [&](const std::string& section, const std::string& key,
                       std::uint64_t value) {
    const std::string line = key + " = " + std::to_string(value) + "\n";
    return section == "job.1"
               ? load_scenario("[job.1]\n" + line +
                               "process = continuous total=1\n")
               : load_scenario("[" + section + "]\n" + line + job);
  };
  struct Case {
    const char* section;
    const char* key;
    std::uint64_t max;
  };
  for (const Case& c : {Case{"server", "osts", UINT32_MAX},
                        Case{"server", "threads", UINT32_MAX},
                        Case{"client", "rpc_size_kib", kMaxRpcSizeKib},
                        Case{"client", "max_inflight", UINT32_MAX},
                        Case{"job.1", "nodes", UINT32_MAX}}) {
    const auto at_max = load_with(c.section, c.key, c.max);
    EXPECT_TRUE(at_max.ok()) << c.key << ": " << at_max.error;
    const auto over = load_with(c.section, c.key, c.max + 1);
    ASSERT_FALSE(over.ok()) << c.key;
    EXPECT_NE(over.error.find(kValueOutOfRangeError), std::string::npos)
        << over.error;
    EXPECT_NE(over.error.find(c.key), std::string::npos) << over.error;
  }

  const auto threads = load_with("server", "threads", UINT32_MAX);
  ASSERT_TRUE(threads.ok());
  EXPECT_EQ(threads.spec->num_threads, UINT32_MAX);
  const auto rpc = load_with("client", "rpc_size_kib", kMaxRpcSizeKib);
  ASSERT_TRUE(rpc.ok());
  EXPECT_EQ(rpc.spec->rpc_size_bytes,
            static_cast<std::uint64_t>(kMaxRpcSizeKib) * 1024);
  // 4194304 KiB is 2^32 bytes: it once loaded as a 0-byte RPC size.
  EXPECT_EQ(kMaxRpcSizeKib + 1, 4194304u);
  // Past 64 bits too, and in the other direction.
  EXPECT_FALSE(load_scenario("[server]\nthreads = 99999999999999999999\n" +
                             job)
                   .ok());
  EXPECT_FALSE(load_scenario("[server]\nthreads = -4294967295\n" + job).ok());
  EXPECT_FALSE(load_scenario("[server]\nthreads = many\n" + job).ok());
}

TEST(ScenarioIo, RejectsJoblessScenario) {
  EXPECT_FALSE(load_scenario("[scenario]\nname = empty\n").ok());
  EXPECT_FALSE(load_scenario("[job.1]\nname = noproc\n").ok());
}

TEST(ScenarioIo, RoundTripsThroughIni) {
  const auto first = load_scenario(kValid);
  ASSERT_TRUE(first.ok());
  const std::string rendered = scenario_to_ini(*first.spec);
  const auto second = load_scenario(rendered);
  ASSERT_TRUE(second.ok()) << second.error << "\n" << rendered;
  const ScenarioSpec& a = *first.spec;
  const ScenarioSpec& b = *second.spec;
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.control, b.control);
  EXPECT_EQ(a.duration.ns(), b.duration.ns());
  EXPECT_EQ(a.observation_period.ns(), b.observation_period.ns());
  EXPECT_EQ(a.num_osts, b.num_osts);
  EXPECT_EQ(a.rpc_size_bytes, b.rpc_size_bytes);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].id, b.jobs[j].id);
    EXPECT_EQ(a.jobs[j].nodes, b.jobs[j].nodes);
    ASSERT_EQ(a.jobs[j].processes.size(), b.jobs[j].processes.size());
    for (std::size_t p = 0; p < a.jobs[j].processes.size(); ++p) {
      EXPECT_EQ(a.jobs[j].processes[p].kind, b.jobs[j].processes[p].kind);
      EXPECT_EQ(a.jobs[j].processes[p].total_rpcs,
                b.jobs[j].processes[p].total_rpcs);
      EXPECT_EQ(a.jobs[j].processes[p].period.ns(),
                b.jobs[j].processes[p].period.ns());
      EXPECT_EQ(a.jobs[j].processes[p].locality,
                b.jobs[j].processes[p].locality);
    }
  }
}

TEST(ScenarioIo, PoissonProcessParses) {
  const auto result = load_scenario(
      "[job.1]\nprocess = poisson total=500 rate=25.5 seed=9 delay_s=2\n");
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& process = result.spec->jobs[0].processes[0];
  EXPECT_EQ(process.kind, ProcessPattern::Kind::kPoisson);
  EXPECT_EQ(process.total_rpcs, 500u);
  EXPECT_DOUBLE_EQ(process.poisson_rate, 25.5);
  EXPECT_EQ(process.seed, 9u);
  EXPECT_DOUBLE_EQ(process.start_delay.to_seconds(), 2.0);
}

TEST(ScenarioIo, PoissonRejectsBadShapes) {
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = poisson total=10\n").ok());
  EXPECT_FALSE(
      load_scenario("[job.1]\nprocess = poisson total=10 rate=0\n").ok());
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = poisson total=10 rate=5 "
                             "burst=4\n")
                   .ok());
}

TEST(ScenarioIo, PoissonRoundTrips) {
  ScenarioSpec spec;
  JobSpec job;
  job.id = JobId(1);
  job.processes.push_back(poisson_pattern(500, 25.5, 9));
  spec.jobs.push_back(job);
  const auto reloaded = load_scenario(scenario_to_ini(spec));
  ASSERT_TRUE(reloaded.ok()) << reloaded.error;
  const auto& process = reloaded.spec->jobs[0].processes[0];
  EXPECT_EQ(process.kind, ProcessPattern::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(process.poisson_rate, 25.5);
  EXPECT_EQ(process.seed, 9u);
}

TEST(ScenarioIo, GiftControlParses) {
  const auto result = load_scenario(
      "[scenario]\ncontrol = gift\n[job.1]\nprocess = continuous "
      "total=1\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spec->control, BwControl::kGift);
}

TEST(ScenarioIo, MissingFileReportsError) {
  const auto result = load_scenario_file("/nonexistent/path.ini");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace adaptbf
