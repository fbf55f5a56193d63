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
// experiment_* keys above exclude the summary.
//
// Usage: sim_core_bench [--events N] [--trials N] [--queue heap|calendar|both]
//                       [--require-zero-alloc]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "cluster/experiment.h"
#include "sim/simulator.h"
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
};

/// Same-timestamp storm: every chain re-schedules onto a shared 4096 ns
/// grid, 1-2 quanta ahead, so each tick fires a cohort of hundreds of
/// simultaneous events — the PS-disk-completion-tie / periodic-storm shape
/// that batched dispatch targets.
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

ChurnResult bench_churn(std::uint64_t events, QueueBackend backend) {
  constexpr int kChains = 512;
  Simulator sim(Simulator::Config{backend, /*batched_dispatch=*/true});
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
  return result;
}

ChurnResult bench_storm(std::uint64_t events, QueueBackend backend,
                        bool batched) {
  constexpr int kChains = 512;
  Simulator sim(Simulator::Config{backend, batched});
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
  return result;
}

ChurnResult bench_cancel(std::uint64_t pairs, QueueBackend backend) {
  // Schedule-then-cancel against a populated queue: the O(1)-lookup cancel
  // path (slot generation check + direct structure removal, no hash sets).
  constexpr int kPending = 4096;
  Simulator sim(Simulator::Config{backend, /*batched_dispatch=*/true});
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
  return result;
}

struct TrialResultStats {
  double trials_per_sec = 0.0;
  double events_per_sec = 0.0;
  double allocs_per_rpc = 0.0;
  double schedules_per_event = 0.0;
  double summary_allocs_per_trial = 0.0;
  double summary_ms_per_trial = 0.0;
};

TrialResultStats bench_trials(int trials, QueueBackend backend) {
  // Full run_experiment trials of a paper scenario: the number every
  // campaign backend (threaded, sharded, dispatched) multiplies. Runs the
  // way a sweep worker does — one simulator reset() and reused per trial.
  const ScenarioSpec spec = scenario_token_allocation(BwControl::kAdaptive);
  Simulator sim(Simulator::Config{backend, /*batched_dispatch=*/true});
  ExperimentOptions options = ExperimentOptions::without_trace();
  options.queue_backend = backend;
  options.simulator = &sim;
  std::uint64_t events = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
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
  return stats;
}

struct BackendSeries {
  ChurnResult churn;
  ChurnResult cancel;
  ChurnResult storm_batched;
  ChurnResult storm_single;
  TrialResultStats experiment;
};

BackendSeries run_backend(QueueBackend backend, std::uint64_t events,
                          int trials) {
  BackendSeries series;
  series.churn = bench_churn(events, backend);
  series.cancel = bench_cancel(events / 2, backend);
  series.storm_batched = bench_storm(events, backend, /*batched=*/true);
  series.storm_single = bench_storm(events, backend, /*batched=*/false);
  series.experiment = bench_trials(trials, backend);
  return series;
}

/// Prints one backend's series. The heap backend prints unprefixed keys —
/// the exact key set earlier schema versions emitted, which the CI floor
/// gate greps ("events_per_sec") — the calendar backend the same keys
/// under a "calendar_" prefix.
void print_series(const char* prefix, const BackendSeries& series,
                  int trials) {
  std::printf("%sevents_per_sec %.0f\n", prefix, series.churn.events_per_sec);
  std::printf("%ssteady_allocs_per_event %.8f\n", prefix,
              series.churn.allocs_per_event);
  std::printf("%scancel_pairs_per_sec %.0f\n", prefix,
              series.cancel.events_per_sec);
  std::printf("%ssteady_allocs_per_cancel %.8f\n", prefix,
              series.cancel.allocs_per_event);
  std::printf("%sstorm_batched_events_per_sec %.0f\n", prefix,
              series.storm_batched.events_per_sec);
  std::printf("%sstorm_single_pop_events_per_sec %.0f\n", prefix,
              series.storm_single.events_per_sec);
  std::printf("%sstorm_batch_speedup %.3f\n", prefix,
              series.storm_batched.events_per_sec /
                  series.storm_single.events_per_sec);
  std::printf("%sstorm_allocs_per_event %.8f\n", prefix,
              series.storm_batched.allocs_per_event);
  std::printf("%sexperiment_trials %d\n", prefix, trials);
  std::printf("%strials_per_sec %.3f\n", prefix,
              series.experiment.trials_per_sec);
  std::printf("%sexperiment_events_per_sec %.0f\n", prefix,
              series.experiment.events_per_sec);
  std::printf("%sexperiment_allocs_per_rpc %.6f\n", prefix,
              series.experiment.allocs_per_rpc);
  std::printf("%sexperiment_schedules_per_event %.6f\n", prefix,
              series.experiment.schedules_per_event);
  std::printf("%sexperiment_summary_allocs_per_trial %.3f\n", prefix,
              series.experiment.summary_allocs_per_trial);
  std::printf("%sexperiment_summary_ms_per_trial %.3f\n", prefix,
              series.experiment.summary_ms_per_trial);
}

int run(int argc, char** argv) {
  std::uint64_t events = 2'000'000;
  int trials = 8;
  bool require_zero_alloc = false;
  bool run_heap = true;
  bool run_calendar = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      trials = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
      const char* which = argv[++i];
      run_heap = std::strcmp(which, "heap") == 0 ||
                 std::strcmp(which, "both") == 0;
      run_calendar = std::strcmp(which, "calendar") == 0 ||
                     std::strcmp(which, "both") == 0;
      if (!run_heap && !run_calendar) {
        std::fprintf(stderr,
                     "sim_core_bench: --queue must be heap|calendar|both\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--require-zero-alloc") == 0) {
      require_zero_alloc = true;
    } else {
      std::fprintf(stderr,
                   "usage: sim_core_bench [--events N] [--trials N] "
                   "[--queue heap|calendar|both] [--require-zero-alloc]\n");
      return 2;
    }
  }
  if (events == 0 || trials <= 0) {
    std::fprintf(stderr, "sim_core_bench: --events and --trials must be > 0\n");
    return 2;
  }

  std::printf("schema_version 2\n");
  std::printf("events_total %llu\n", static_cast<unsigned long long>(events));

  BackendSeries heap_series;
  if (run_heap) {
    heap_series = run_backend(QueueBackend::kHeap, events, trials);
    print_series("", heap_series, trials);
  }
  if (run_calendar) {
    const BackendSeries calendar =
        run_backend(QueueBackend::kCalendar, events, trials);
    print_series("calendar_", calendar, trials);
  }
  std::printf("callback_heap_fallbacks %llu\n",
              static_cast<unsigned long long>(EventCallback::heap_fallbacks()));

  // The allocation-free contract is gated on the heap backend (the
  // default); the calendar series is informational.
  if (require_zero_alloc && run_heap &&
      (heap_series.churn.allocs_per_event != 0.0 ||
       heap_series.cancel.allocs_per_event != 0.0 ||
       heap_series.storm_batched.allocs_per_event != 0.0)) {
    std::fprintf(stderr,
                 "sim_core_bench: steady-state scheduling allocated "
                 "(%.8f/event, %.8f/cancel, %.8f/storm-event) — the "
                 "allocation-free contract is broken\n",
                 heap_series.churn.allocs_per_event,
                 heap_series.cancel.allocs_per_event,
                 heap_series.storm_batched.allocs_per_event);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace adaptbf

int main(int argc, char** argv) { return adaptbf::run(argc, argv); }
