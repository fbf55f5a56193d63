// Ablation: what each AdapTBF step contributes (docs/architecture.md,
// "Model deviations").
//
// The §IV-E workload (bursty high-priority jobs + continuous low-priority)
// run with the three algorithm steps toggled:
//   full         = priority + redistribution + re-compensation (the paper)
//   no-recomp    = lending without the fairness repayment loop
//   no-redist    = priority-only, demand-blind (≈ dynamic Static BW)
//
// Expected: "no re-compensation" lifts Job4 slightly above full AdapTBF
// (borrowed tokens are never pulled back — utilization up, fairness gone);
// "no redistribution" trails it (no intra-window surplus sharing). Note
// both retain the *active-set* adaptation of step 1 — AdapTBF allocates
// only to jobs active in the window, which alone recovers much of the
// work conservation that Static BW (reserving shares for idle jobs) loses.
#include "bench_common.h"
#include "support/table.h"
#include "workload/scenarios_paper.h"

using namespace adaptbf;
using namespace adaptbf::bench;

namespace {

ExperimentResult run_variant(bool redistribution, bool recompensation) {
  auto spec = scenario_token_redistribution(BwControl::kAdaptive);
  spec.enable_redistribution = redistribution;
  spec.enable_recompensation = recompensation;
  ExperimentOptions options;
  options.capture_allocation_trace = false;
  return run_experiment(spec, options);
}

}  // namespace

int main() {
  std::printf("=== Ablation — borrowing/lending steps (workload: §IV-E) ===\n\n");
  struct Variant {
    const char* name;
    bool redistribution;
    bool recompensation;
  };
  const Variant variants[] = {
      {"full AdapTBF", true, true},
      {"no re-compensation", true, false},
      {"no redistribution", false, false},
  };
  Table table({"variant", "Job1-3 (bursty) MiB/s", "Job4 (cont.) MiB/s",
               "Aggregate MiB/s"});
  for (const auto& variant : variants) {
    std::fprintf(stderr, "  running %s ...\n", variant.name);
    const auto result =
        run_variant(variant.redistribution, variant.recompensation);
    double high = 0.0;
    for (std::uint32_t id = 1; id <= 3; ++id)
      high += result.find_job(JobId(id))->mean_mibps;
    table.add_row({variant.name, fmt_fixed(high, 1),
                   fmt_fixed(result.find_job(JobId(4))->mean_mibps, 1),
                   fmt_fixed(result.aggregate_mibps, 1)});
  }
  std::printf("%s\n", table.to_string("Per-step contribution").c_str());
  return 0;
}
