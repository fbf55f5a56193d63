// A trial wired by hand from the simulator's public classes, mirroring
// run_experiment (src/cluster/experiment.cpp) with spans around each layer:
//
//   trial    the whole call
//   loop     each Simulator::run_until
//   tbf      a forwarding RequestScheduler around the OST's scheduler
//   adaptbf  dispatch hook of the controller's tick -> its WindowObserver
//   metrics  the OSS completion hook feeding ThroughputTimeline/LatencyStats
//
// What the loop span holds beyond tbf, adaptbf and metrics is the event
// core, the clients, the OST, the PS disk and job stats. GIFT's and the
// static policy's control work is not spanned and stays in that remainder.
//
// The mirror exists until spans live inside the program; the benchmark
// checks on every traced trial that it reproduces run_experiment's digest.
#pragma once

#include <cstdint>

#include "cluster/experiment.h"
#include "trace.h"

namespace perfbench {

/// Work counts the traced wiring sees beside the spans.
struct TraceCounts {
  std::uint64_t scheduler_calls = 0;  ///< enqueue + dequeue + next_ready_time
  std::uint64_t dequeues = 0;
  std::uint64_t empty_dequeues = 0;   ///< dequeue calls that found nothing
  std::uint64_t windows = 0;          ///< AdapTBF controller windows
  std::uint64_t rule_changes = 0;     ///< rules started + changed + stopped
};

/// Runs `spec` as run_experiment(spec, ExperimentOptions::without_trace())
/// does, on `sim` after resetting it, recording spans into `tracer` and
/// adding work counts to `counts`.
[[nodiscard]] adaptbf::ExperimentResult run_traced_trial(
    const adaptbf::ScenarioSpec& spec, adaptbf::Simulator& sim,
    Tracer& tracer, TraceCounts& counts);

}  // namespace perfbench
