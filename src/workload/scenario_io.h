// Scenario file format: declarative experiment descriptions on disk.
//
// Example (see examples/scenarios/*.ini for complete files):
//
//   [scenario]
//   name = demo
//   control = adaptive          ; none | static | adaptive
//   duration_s = 30
//   observation_ms = 100
//   stop_when_idle = true
//
//   [server]
//   osts = 1
//   threads = 16
//   seq_bandwidth_mibps = 1600
//   rand_bandwidth_mibps = 400
//   overhead_us = 50
//
//   [client]
//   rpc_size_kib = 1024
//   max_inflight = 8
//
//   [job.1]
//   name = small
//   nodes = 1
//   ; process kinds: "continuous" and "burst". count= replicates the line.
//   process = continuous total=1024 delay_s=0 count=4
//   process = burst total=640 burst=64 period_s=5 delay_s=2 count=2 random=true
//
// Unknown sections/keys are errors: a typo silently ignored is a wrong
// experiment silently run. A scenario of more than kMaxScenarioProcesses
// processes after count= expansion is an error too, and so is a count or
// size too large for its 32-bit field (kValueOutOfRangeError).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "workload/scenario.h"

namespace adaptbf {

/// Upper bound on the processes in one scenario, summed over every job's
/// `process` lines after count= expansion. 128 times the largest
/// scenario the benchmarks run (512), yet small enough that a mistyped
/// count= fails at load instead of exhausting a worker's memory.
inline constexpr std::uint64_t kMaxScenarioProcesses = 65536;

/// Error a scenario over kMaxScenarioProcesses fails with (the load
/// result's `error` starts with it after the "[job.N] process: " prefix).
inline constexpr std::string_view kTooManyProcessesError =
    "too many processes";

/// Error a count or size that does not fit its field fails with (osts,
/// threads, rpc_size_kib, max_inflight, nodes; the load result's `error`
/// names the key, then this).
inline constexpr std::string_view kValueOutOfRangeError = "value out of range";

/// Largest rpc_size_kib: the RPC size is held in bytes in 32 bits.
inline constexpr std::uint32_t kMaxRpcSizeKib = UINT32_MAX / 1024;

struct ScenarioLoadResult {
  std::optional<ScenarioSpec> spec;
  std::string error;  ///< Empty on success.
  [[nodiscard]] bool ok() const { return spec.has_value(); }
};

/// Parses a scenario file's contents.
[[nodiscard]] ScenarioLoadResult load_scenario(std::string_view text);

/// Reads and parses a scenario file from disk.
[[nodiscard]] ScenarioLoadResult load_scenario_file(const std::string& path);

/// Renders a spec back to the file format (round-trips through
/// load_scenario).
[[nodiscard]] std::string scenario_to_ini(const ScenarioSpec& spec);

}  // namespace adaptbf
