// Output gate: a 64-bit digest of one trial's simulated statistics, and the
// reference digests recorded for the default seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sweep/sweep_runner.h"

namespace perfbench {

/// FNV-1a over the trial's simulated outputs: events dispatched, per-job
/// RPCs, bytes, finish time and bandwidth, aggregate MiB/s, fairness,
/// horizon and the latency percentiles. Doubles hash their exact bits.
[[nodiscard]] std::uint64_t trial_digest(const adaptbf::TrialResult& trial);

/// Reference digests of one workload, by trial index.
using References = std::map<std::size_t, std::uint64_t>;

/// Reads the `<workload> <trial index> <hex digest>` lines of `path` that
/// belong to `workload` ('#' starts a comment line). False, with `error`
/// set, when the file is unreadable or malformed.
[[nodiscard]] bool load_references(const std::string& path,
                                   const std::string& workload,
                                   References& out, std::string& error);

/// The reference-file lines for `digests` (indexed by trial index).
[[nodiscard]] std::string format_references(
    const std::string& workload, const std::vector<std::uint64_t>& digests);

}  // namespace perfbench
