// Ablation: fractional-remainder fairness (eqs. 21-25; docs/architecture.md,
// "Model deviations").
//
// With a deliberately tiny token budget per window (low T_i, short Δt),
// integer flooring without remainder carrying systematically short-changes
// low-priority jobs: their fractional shares are dropped every window.
// This bench runs many equal jobs whose fair share is fractional and
// reports each job's delivered tokens with remainders on vs off.
#include <cmath>

#include "bench_common.h"
#include "support/table.h"

using namespace adaptbf;
using namespace adaptbf::bench;

namespace {

/// 7 equal jobs streaming continuously against a budget of 10 tokens per
/// window: the fair share is 10/7 ~ 1.43 tokens — maximally fractional.
ScenarioSpec tiny_budget_scenario(bool remainders) {
  ScenarioSpec spec;
  spec.name = "remainder ablation";
  spec.control = BwControl::kAdaptive;
  spec.num_threads = 8;
  spec.disk.seq_bandwidth = 1000.0 * 1024 * 1024;
  spec.max_token_rate = 100.0;  // 10 tokens per 100 ms window
  spec.duration = SimDuration::seconds(60);
  spec.stop_when_idle = false;
  spec.enable_remainders = remainders;
  for (std::uint32_t id = 1; id <= 7; ++id) {
    JobSpec job;
    job.id = JobId(id);
    job.name = "Job" + std::to_string(id);
    job.nodes = 1;
    job.processes.push_back(continuous_pattern(1 << 20));
    spec.jobs.push_back(job);
  }
  return spec;
}

}  // namespace

int main() {
  std::printf("=== Ablation — remainder fairness (eqs. 21-25) ===\n");
  std::printf("7 equal jobs, 10 tokens per 100 ms window (fair share "
              "1.43/window)\n\n");
  ExperimentOptions options;
  options.capture_allocation_trace = false;
  std::fprintf(stderr, "  running with remainders ...\n");
  const auto with = run_experiment(tiny_budget_scenario(true), options);
  std::fprintf(stderr, "  running without remainders ...\n");
  const auto without = run_experiment(tiny_budget_scenario(false), options);

  Table table({"job", "with remainders (RPCs)", "without (RPCs)",
               "without/with"});
  for (std::size_t j = 0; j < with.jobs.size(); ++j) {
    const double ratio =
        with.jobs[j].rpcs_completed > 0
            ? static_cast<double>(without.jobs[j].rpcs_completed) /
                  static_cast<double>(with.jobs[j].rpcs_completed)
            : 0.0;
    table.add_row({with.jobs[j].name,
                   fmt_count(with.jobs[j].rpcs_completed),
                   fmt_count(without.jobs[j].rpcs_completed),
                   fmt_fixed(ratio, 2)});
  }
  std::printf("%s\n", table.to_string("Delivered work per job").c_str());
  std::printf("Total with: %s RPCs, without: %s RPCs — flooring drops "
              "~%.0f%% of the budget every window without carrying.\n",
              fmt_count(with.total_bytes / (1024 * 1024)).c_str(),
              fmt_count(without.total_bytes / (1024 * 1024)).c_str(),
              100.0 * (1.0 - static_cast<double>(without.total_bytes) /
                                 static_cast<double>(with.total_bytes)));
  return 0;
}
