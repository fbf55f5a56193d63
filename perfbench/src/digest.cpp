#include "digest.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/fnv.h"

namespace perfbench {

std::uint64_t trial_digest(const adaptbf::TrialResult& trial) {
  adaptbf::Fnv1a h;
  h.u64(trial.events_dispatched);
  h.u64(trial.total_bytes);
  h.f64(trial.horizon_s);
  h.f64(trial.aggregate_mibps);
  h.f64(trial.fairness);
  h.f64(trial.p50_ms);
  h.f64(trial.p95_ms);
  h.f64(trial.p99_ms);
  h.u64(trial.jobs.size());
  for (const auto& job : trial.jobs) {
    h.u64(job.id.value());
    h.u64(job.rpcs_completed);
    h.u64(job.bytes_completed);
    h.i64(job.finish_time.ns());
    h.u64(job.finished ? 1 : 0);
    h.f64(job.mean_mibps);
  }
  return h.value();
}

bool load_references(const std::string& path, const std::string& workload,
                     References& out, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read reference digests " + path;
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex, extra;
    std::size_t index = 0;
    if (!(fields >> name >> index >> hex) || (fields >> extra) ||
        hex.size() != 16) {
      error = path + ":" + std::to_string(line_no) + ": malformed line";
      return false;
    }
    if (name != workload) continue;
    std::uint64_t digest = 0;
    const auto [end, ec] =
        std::from_chars(hex.data(), hex.data() + hex.size(), digest, 16);
    if (ec != std::errc() || end != hex.data() + hex.size()) {
      error = path + ":" + std::to_string(line_no) + ": bad digest";
      return false;
    }
    out[index] = digest;
  }
  if (out.empty()) {
    error = "no reference digests for workload " + workload + " in " + path;
    return false;
  }
  return true;
}

std::string format_references(const std::string& workload,
                              const std::vector<std::uint64_t>& digests) {
  std::string text;
  char line[128];
  for (std::size_t i = 0; i < digests.size(); ++i) {
    std::snprintf(line, sizeof(line), "%s %zu %016" PRIx64 "\n",
                  workload.c_str(), i, digests[i]);
    text += line;
  }
  return text;
}

}  // namespace perfbench
