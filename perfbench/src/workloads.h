// The benchmark's workloads, each a SweepSpec expanded with the sweep
// layer's own base_seed / start_jitter mechanism. Why each exists, and which
// layers it loads, is recorded in perfbench/README.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sweep/sweep_spec.h"
#include "workload/scenario.h"

namespace perfbench {

/// Seed whose trial digests perfbench/reference_digests.txt records.
inline constexpr std::uint64_t kReferenceSeed = 1;

/// Workload names in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// True for the workload that runs through SweepRunner and a journal.
[[nodiscard]] bool is_campaign(const std::string& workload);

/// Builds the workload's sweep with `seed` as its base_seed: the paper
/// workloads from sweep-file text (load_sweep), many_tenant from
/// ScenarioSpec primitives. Empty for an unknown name.
[[nodiscard]] std::optional<adaptbf::SweepSpec> build_workload(
    const std::string& workload, std::uint64_t seed);

/// 512 single-process jobs of 1-8 nodes, 128 continuous 1 MiB RPCs each
/// (65,536 RPCs) on one OST under AdapTBF.
[[nodiscard]] adaptbf::ScenarioSpec many_tenant_scenario();

}  // namespace perfbench
