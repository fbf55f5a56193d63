// Event-core benchmark: events/s, allocations/event, trials/s, and
// allocations per RPC of a whole trial.
//
// Prints machine-readable "key value" lines on stdout (wrapped into
// BENCH_sim_core.json by scripts/bench_to_json.sh, which CI uploads on
// every run — the perf trajectory of the whole sim stack). The binary
// replaces global operator new/delete with counting versions, so
// "allocations per event" is the real process-wide number, not a proxy:
// with the pooled event slots and inline callbacks, steady-state
// scheduling must allocate exactly nothing (enforced by
// --require-zero-alloc in CI). experiment_allocs_per_rpc is the same count
// over whole run_experiment trials (wiring, model layers and metrics
// included) divided by the RPCs they complete; CI holds it under the
// ceiling in bench/sim_core_floor.json. experiment_schedules_per_event is
// events scheduled over events fired in those trials (1.0 would mean no
// event is ever cancelled or replaced); CI holds it under its ceiling
// there too. Each trial is then summarized into its campaign row
// (summarize_trial), as every sweep worker does:
// experiment_summary_allocs_per_trial counts the allocations of that step
// alone (an exact count, gated by its own ceiling there) and
// experiment_summary_ms_per_trial times it (informational). The
// experiment_* keys above exclude the summary. callback_heap_spills sums
// the per-queue spill counters of every simulator the bench ran.
//
// Usage: sim_core_bench [--events N] [--trials N] [--require-zero-alloc]
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "cluster/experiment.h"
#include "sim/simulator.h"
#include "support/ini.h"
#include "sweep/sweep_runner.h"
#include "workload/scenarios_paper.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) std::abort();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment);
  if (p == nullptr) std::abort();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace adaptbf {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Self-rescheduling event chains: a steady population of kChains pending
/// events with pseudo-random (but deterministic) inter-event delays, so the
/// heap sees realistic disorder rather than FIFO insertion.
struct Ring {
  Simulator& sim;
  std::uint64_t remaining = 0;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto delay = static_cast<std::int64_t>(1 + (state >> 33) % 1000);
    sim.schedule_after(SimDuration(delay), [this] { fire(); });
  }

  void launch(int chains) {
    for (int i = 0; i < chains; ++i)
      sim.schedule_after(SimDuration(1 + i), [this] { fire(); });
  }
};

struct ChurnResult {
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
  std::uint64_t callback_heap_spills = 0;
};

/// Same-timestamp storm: every chain re-schedules onto a shared 4096 ns
/// grid, 1-2 quanta ahead, so each tick fires a cohort of hundreds of
/// simultaneous events — the PS-disk-completion-tie / periodic-storm shape,
/// kept under the allocation-free contract like the other series.
struct Storm {
  static constexpr std::int64_t kQuantumNs = 4096;

  Simulator& sim;
  std::uint64_t remaining = 0;
  std::uint64_t state = 0x2545f4914f6cdd1dULL;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto step = static_cast<std::int64_t>(1 + (state >> 33) % 2);
    const std::int64_t when =
        (sim.now().ns() / kQuantumNs + step) * kQuantumNs;
    sim.schedule_at(SimTime(when), [this] { fire(); });
  }

  void launch(int chains) {
    // All chains start on the same grid tick (relative to the clock, so a
    // relaunch after the warm-up drain stays in the future).
    const std::int64_t when =
        (sim.now().ns() / kQuantumNs + 1) * kQuantumNs;
    for (int i = 0; i < chains; ++i)
      sim.schedule_at(SimTime(when), [this] { fire(); });
  }
};

ChurnResult bench_churn(std::uint64_t events) {
  constexpr int kChains = 512;
  Simulator sim;
  sim.reserve_events(kChains + 8);
  Ring ring{sim};

  // Warm-up: grow every pool to steady-state size.
  ring.remaining = events / 10 + kChains;
  ring.launch(kChains);
  sim.run_to_completion();

  ring.remaining = events;
  const std::uint64_t allocations_before = allocations();
  const auto start = Clock::now();
  ring.launch(kChains);
  sim.run_to_completion();
  const double elapsed = seconds_since(start);
  const std::uint64_t allocation_delta = allocations() - allocations_before;

  ChurnResult result;
  result.events_per_sec = static_cast<double>(events) / elapsed;
  result.allocs_per_event =
      static_cast<double>(allocation_delta) / static_cast<double>(events);
  result.callback_heap_spills = sim.queue_stats().callback_heap_spills;
  return result;
}

ChurnResult bench_storm(std::uint64_t events) {
  constexpr int kChains = 512;
  Simulator sim;
  sim.reserve_events(kChains + 8);
  Storm storm{sim};

  storm.remaining = events / 10 + kChains;  // warm-up
  storm.launch(kChains);
  sim.run_to_completion();

  storm.remaining = events;
  const std::uint64_t allocations_before = allocations();
  const auto start = Clock::now();
  storm.launch(kChains);
  sim.run_to_completion();
  const double elapsed = seconds_since(start);
  const std::uint64_t allocation_delta = allocations() - allocations_before;

  ChurnResult result;
  result.events_per_sec = static_cast<double>(events) / elapsed;
  result.allocs_per_event =
      static_cast<double>(allocation_delta) / static_cast<double>(events);
  result.callback_heap_spills = sim.queue_stats().callback_heap_spills;
  return result;
}

ChurnResult bench_cancel(std::uint64_t pairs) {
  // Schedule-then-cancel against a populated queue: the O(1)-lookup cancel
  // path (slot generation check + direct heap removal, no hash sets).
  constexpr int kPending = 4096;
  Simulator sim;
  sim.reserve_events(kPending + 8);
  for (int i = 0; i < kPending; ++i)
    sim.schedule_at(SimTime(1'000'000'000 + i), [] {});

  std::uint64_t state = 0xdeadbeefcafef00dULL;
  auto churn_once = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto when = static_cast<std::int64_t>(1'000 + (state >> 33) % 999'000'000);
      const EventHandle handle = sim.schedule_at(SimTime(when), [] {});
      sim.cancel(handle);
    }
  };

  churn_once(pairs / 10 + 1);  // warm-up
  const std::uint64_t allocations_before = allocations();
  const auto start = Clock::now();
  churn_once(pairs);
  const double elapsed = seconds_since(start);
  const std::uint64_t allocation_delta = allocations() - allocations_before;

  ChurnResult result;
  result.events_per_sec = static_cast<double>(pairs) / elapsed;
  result.allocs_per_event =
      static_cast<double>(allocation_delta) / static_cast<double>(pairs);
  result.callback_heap_spills = sim.queue_stats().callback_heap_spills;
  return result;
}

struct TrialResultStats {
  double trials_per_sec = 0.0;
  double events_per_sec = 0.0;
  double allocs_per_rpc = 0.0;
  double schedules_per_event = 0.0;
  double summary_allocs_per_trial = 0.0;
  double summary_ms_per_trial = 0.0;
  std::uint64_t callback_heap_spills = 0;
};

TrialResultStats bench_trials(int trials) {
  // Full run_experiment trials of a paper scenario: the number every
  // campaign backend (threaded, sharded, dispatched) multiplies. Runs the
  // way a sweep worker does — one simulator reset() and reused per trial.
  const ScenarioSpec spec = scenario_token_allocation(BwControl::kAdaptive);
  Simulator sim;
  ExperimentOptions options = ExperimentOptions::without_trace();
  options.simulator = &sim;
  std::uint64_t events = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t spills = 0;
  TrialSpec trial;
  trial.scenario = "token_allocation";
  trial.policy = BwControl::kAdaptive;
  (void)summarize_trial(trial, run_experiment(spec, options));  // warm-up
  std::uint64_t summary_allocations = 0;
  double summary_seconds = 0.0;
  const std::uint64_t allocations_before = allocations();
  const auto start = Clock::now();
  for (int i = 0; i < trials; ++i) {
    const auto result = run_experiment(spec, options);
    const std::uint64_t summary_allocations_before = allocations();
    const auto summary_start = Clock::now();
    const TrialResult row = summarize_trial(trial, result);
    summary_seconds += seconds_since(summary_start);
    summary_allocations += allocations() - summary_allocations_before;
    events += result.events_dispatched;
    scheduled += result.queue_stats.scheduled;
    fired += result.queue_stats.fired;
    spills += result.queue_stats.callback_heap_spills;
    for (const auto& job : result.jobs) rpcs += job.rpcs_completed;
  }
  const double elapsed = seconds_since(start) - summary_seconds;
  const std::uint64_t allocation_delta =
      allocations() - allocations_before - summary_allocations;
  TrialResultStats stats;
  stats.trials_per_sec = static_cast<double>(trials) / elapsed;
  stats.events_per_sec = static_cast<double>(events) / elapsed;
  stats.allocs_per_rpc =
      static_cast<double>(allocation_delta) / static_cast<double>(rpcs);
  stats.schedules_per_event =
      static_cast<double>(scheduled) / static_cast<double>(fired);
  stats.summary_allocs_per_trial =
      static_cast<double>(summary_allocations) / trials;
  stats.summary_ms_per_trial = summary_seconds * 1e3 / trials;
  stats.callback_heap_spills = spills;
  return stats;
}

/// Parses a strictly decimal count in [1, max]; anything else (a sign,
/// trailing characters, zero, out of range) is a usage error.
bool parse_count(const char* flag, const char* text, std::uint64_t max,
                 std::uint64_t& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value) || value == 0 || value > max) {
    std::fprintf(stderr,
                 "sim_core_bench: %s must be an integer in [1, %llu], got "
                 "'%s'\n",
                 flag, static_cast<unsigned long long>(max), text);
    return false;
  }
  out = value;
  return true;
}

int run(int argc, char** argv) {
  std::uint64_t events = 2'000'000;
  std::uint64_t trials = 8;
  bool require_zero_alloc = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      if (!parse_count("--events", argv[++i], UINT64_MAX, events)) return 2;
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      if (!parse_count("--trials", argv[++i], INT_MAX, trials)) return 2;
    } else if (std::strcmp(argv[i], "--require-zero-alloc") == 0) {
      require_zero_alloc = true;
    } else {
      std::fprintf(stderr,
                   "usage: sim_core_bench [--events N] [--trials N] "
                   "[--require-zero-alloc]\n");
      return 2;
    }
  }

  const ChurnResult churn = bench_churn(events);
  const ChurnResult cancel = bench_cancel(events / 2);
  const ChurnResult storm = bench_storm(events);
  const TrialResultStats experiment = bench_trials(static_cast<int>(trials));

  std::printf("schema_version 3\n");
  std::printf("events_total %llu\n", static_cast<unsigned long long>(events));
  std::printf("events_per_sec %.0f\n", churn.events_per_sec);
  std::printf("steady_allocs_per_event %.8f\n", churn.allocs_per_event);
  std::printf("cancel_pairs_per_sec %.0f\n", cancel.events_per_sec);
  std::printf("steady_allocs_per_cancel %.8f\n", cancel.allocs_per_event);
  std::printf("storm_events_per_sec %.0f\n", storm.events_per_sec);
  std::printf("storm_allocs_per_event %.8f\n", storm.allocs_per_event);
  std::printf("experiment_trials %llu\n",
              static_cast<unsigned long long>(trials));
  std::printf("trials_per_sec %.3f\n", experiment.trials_per_sec);
  std::printf("experiment_events_per_sec %.0f\n", experiment.events_per_sec);
  std::printf("experiment_allocs_per_rpc %.6f\n", experiment.allocs_per_rpc);
  std::printf("experiment_schedules_per_event %.6f\n",
              experiment.schedules_per_event);
  std::printf("experiment_summary_allocs_per_trial %.3f\n",
              experiment.summary_allocs_per_trial);
  std::printf("experiment_summary_ms_per_trial %.3f\n",
              experiment.summary_ms_per_trial);
  std::printf("callback_heap_spills %llu\n",
              static_cast<unsigned long long>(
                  churn.callback_heap_spills + cancel.callback_heap_spills +
                  storm.callback_heap_spills +
                  experiment.callback_heap_spills));

  if (require_zero_alloc &&
      (churn.allocs_per_event != 0.0 || cancel.allocs_per_event != 0.0 ||
       storm.allocs_per_event != 0.0)) {
    std::fprintf(stderr,
                 "sim_core_bench: steady-state scheduling allocated "
                 "(%.8f/event, %.8f/cancel, %.8f/storm-event) — the "
                 "allocation-free contract is broken\n",
                 churn.allocs_per_event, cancel.allocs_per_event,
                 storm.allocs_per_event);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace adaptbf

int main(int argc, char** argv) { return adaptbf::run(argc, argv); }
