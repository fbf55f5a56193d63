#include "workloads.h"

#include <cinttypes>
#include <cstdio>

#include "sweep/sweep_io.h"

namespace perfbench {

namespace {

using adaptbf::BwControl;
using adaptbf::SimDuration;

// Seeded repetitions per grid cell. Each grid trial runs several times in
// one measured run, and the trial-time tail needs more than ten grid
// trials: paper_fcfs has 3 x 8 = 24, many_tenant 24 and the campaign
// 12 x 4 = 48.
constexpr std::uint32_t kPaperRepetitions = 8;
constexpr std::uint32_t kManyTenantRepetitions = 24;
constexpr std::uint32_t kCampaignRepetitions = 4;
constexpr std::int64_t kStartJitterMs = 250;

// The three §IV scenarios at their full paper length under FCFS.
constexpr char kPaperFcfsSweep[] =
    "[sweep]\n"
    "name = paper_fcfs\n"
    "policies = none\n"
    "scenario = token_allocation\n"
    "scenario = redistribution\n"
    "scenario = recompensation\n"
    "repetitions = %u\n"
    "base_seed = %" PRIu64 "\n"
    "start_jitter_ms = %" PRId64 "\n";

// examples/sweeps/paper_campaign.ini widened to all four policies: the
// 30 s cap keeps one campaign pass near a second on four threads.
constexpr char kCampaignSweep[] =
    "[sweep]\n"
    "name = campaign\n"
    "policies = none, static, adaptive, gift\n"
    "scenario = token_allocation\n"
    "scenario = redistribution\n"
    "scenario = recompensation\n"
    "repetitions = %u\n"
    "base_seed = %" PRIu64 "\n"
    "start_jitter_ms = %" PRId64 "\n"
    "duration_s = 30\n";

std::optional<adaptbf::SweepSpec> load(const std::string& text) {
  adaptbf::SweepLoadResult loaded = adaptbf::load_sweep(text);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: bad sweep text: %s\n",
                 loaded.error.c_str());
    return std::nullopt;
  }
  return std::move(*loaded.spec);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_fcfs", "many_tenant",
                                                 "campaign"};
  return names;
}

bool is_campaign(const std::string& workload) {
  return workload == "campaign";
}

adaptbf::ScenarioSpec many_tenant_scenario() {
  adaptbf::ScenarioSpec spec;
  spec.name = "many_tenant";
  spec.control = BwControl::kAdaptive;
  spec.num_threads = 16;
  spec.rpc_size_bytes = 1024 * 1024;
  spec.max_inflight_per_process = 8;
  spec.observation_period = SimDuration::millis(100);
  spec.timeline_bin = SimDuration::millis(100);
  spec.duration = SimDuration::seconds(120);
  spec.stop_when_idle = true;
  for (std::uint32_t j = 0; j < 512; ++j) {
    adaptbf::JobSpec job;
    job.id = adaptbf::JobId(j + 1);
    job.name = "Job" + std::to_string(j + 1);
    job.nodes = 1 + j % 8;
    job.processes.push_back(adaptbf::continuous_pattern(128));
    spec.jobs.push_back(std::move(job));
  }
  return spec;
}

std::optional<adaptbf::SweepSpec> build_workload(const std::string& workload,
                                                 std::uint64_t seed) {
  char text[512];
  if (workload == "paper_fcfs") {
    std::snprintf(text, sizeof(text), kPaperFcfsSweep, kPaperRepetitions, seed,
                  kStartJitterMs);
    return load(text);
  }
  if (workload == "campaign") {
    std::snprintf(text, sizeof(text), kCampaignSweep, kCampaignRepetitions, seed,
                  kStartJitterMs);
    return load(text);
  }
  if (workload == "many_tenant") {
    adaptbf::SweepSpec sweep;
    sweep.name = "many_tenant";
    sweep.scenarios.push_back({"many_tenant", many_tenant_scenario()});
    sweep.policies = {BwControl::kAdaptive};
    sweep.repetitions = kManyTenantRepetitions;
    sweep.base_seed = seed;
    sweep.start_jitter = SimDuration::millis(kStartJitterMs);
    return sweep;
  }
  return std::nullopt;
}

}  // namespace perfbench
