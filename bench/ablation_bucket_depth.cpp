// Ablation: TBF bucket depth (docs/architecture.md, "Model deviations").
//
// Lustre defaults the bucket depth to 3 tokens — enough to absorb a tiny
// burst, small enough that a queue cannot bank a flood (§II-A). This sweep
// runs the §IV-E bursty workload under AdapTBF at depths 1..64 and reports
// the bursty jobs' throughput and p99 queueing delay proxy (the aggregate).
#include "bench_common.h"
#include "support/table.h"
#include "workload/scenarios_paper.h"

using namespace adaptbf;
using namespace adaptbf::bench;

int main() {
  std::printf("=== Ablation — TBF bucket depth (workload: §IV-E) ===\n\n");
  Table table({"depth", "Job1-3 (bursty) MiB/s", "Job4 (cont.) MiB/s",
               "Aggregate MiB/s"});
  ExperimentOptions options;
  options.capture_allocation_trace = false;
  for (const double depth : {1.0, 2.0, 3.0, 8.0, 16.0, 64.0}) {
    auto spec = scenario_token_redistribution(BwControl::kAdaptive);
    spec.bucket_depth = depth;
    std::fprintf(stderr, "  running depth = %.0f ...\n", depth);
    const auto result = run_experiment(spec, options);
    double high = 0.0;
    for (std::uint32_t id = 1; id <= 3; ++id)
      high += result.find_job(JobId(id))->mean_mibps;
    table.add_row({fmt_fixed(depth, 0), fmt_fixed(high, 1),
                   fmt_fixed(result.find_job(JobId(4))->mean_mibps, 1),
                   fmt_fixed(result.aggregate_mibps, 1)});
  }
  std::printf("%s\n",
              table.to_string("Burst absorption vs rate strictness").c_str());
  std::printf("Expected shape: small depths (1-3) track the allocated rates "
              "tightly;\nlarge depths let queues bank tokens across windows, "
              "loosening control.\n");
  return 0;
}
