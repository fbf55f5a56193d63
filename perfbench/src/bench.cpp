#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "alloc_count.h"
#include "cluster/experiment.h"
#include "host_probe.h"
#include "metrics/sweep_export.h"
#include "obs/metrics.h"
#include "support/check.h"
#include "sweep/resume.h"
#include "sweep/sweep_aggregator.h"
#include "sweep/sweep_runner.h"
#include "trace.h"
#include "traced_trial.h"
#include "workloads.h"

namespace perfbench {

using namespace adaptbf;

namespace {

// Host times are reported scaled to a host on which host_probe_ms() takes
// this long, about its time on an idle 4-core Xeon VM. Every timed unit is
// scaled by the probe run right after it, so the scale follows how fast the
// host ran at that moment.
constexpr double kReferenceProbeMs = 10.0;
// Worker threads for the campaign and for the untimed verification passes,
// capped by the host's core count.
constexpr std::uint32_t kThreads = 4;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ms_since(Clock::time_point start) {
  return 1e3 * seconds_since(start);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest percentile with at least ten samples above it: the
/// eleventh-largest sample, at percentile (n - 10) / n. With ten samples or
/// fewer no percentile qualifies and the maximum stands in.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    return tail;
  }
  tail.value = values[n - 11];
  tail.percentile =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t rpcs_of(const TrialResult& trial) {
  std::uint64_t rpcs = 0;
  for (const auto& job : trial.jobs) rpcs += job.rpcs_completed;
  return rpcs;
}

std::string format_number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  ADAPTBF_CHECK(ec == std::errc());
  return std::string(buf, end);
}

std::uint32_t worker_threads() {
  const std::uint32_t cores = std::thread::hardware_concurrency();
  return cores == 0 ? 1 : std::min(kThreads, cores);
}

/// Digest of each trial from run_experiment on a private, cold simulator,
/// computed on worker_threads() threads. A trial that throws gets digest 0.
std::vector<std::uint64_t> cold_digests_of(
    const std::vector<TrialSpec>& trials) {
  std::vector<std::uint64_t> digests(trials.size(), 0);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < trials.size(); i = next++) {
      try {
        digests[i] = trial_digest(summarize_trial(
            trials[i], run_experiment(trials[i].spec,
                                      ExperimentOptions::without_trace())));
      } catch (const std::exception&) {
        digests[i] = 0;
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < worker_threads(); ++t) pool.emplace_back(work);
  for (auto& thread : pool) thread.join();
  return digests;
}

/// Pins the calling thread to the allowed CPU on which the probe runs
/// fastest and returns the previous affinity. Cores of a shared host are
/// not equally loaded, and a thread the scheduler moves between them runs
/// at a different speed each time.
cpu_set_t pin_to_fastest_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return allowed;
  int best_cpu = -1;
  double best_ms = std::numeric_limits<double>::infinity();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    for (int k = 0; k < 3; ++k) {
      const double ms = host_probe_ms();
      if (ms < best_ms) {
        best_ms = ms;
        best_cpu = cpu;
      }
    }
  }
  cpu_set_t chosen = allowed;
  if (best_cpu >= 0) {
    CPU_ZERO(&chosen);
    CPU_SET(best_cpu, &chosen);
  }
  sched_setaffinity(0, sizeof(chosen), &chosen);
  return allowed;
}

/// A workload's expanded grid plus the state its set-up warmed.
struct Prepared {
  SweepSpec sweep;
  std::vector<TrialSpec> trials;
  /// The serial workloads' reused simulator, grown by the warm-up pass.
  std::unique_ptr<Simulator> sim;
};

/// One set-up: sweep construction and expansion, then a cold warm-up pass
/// over the first repetition of every grid cell.
Prepared prepare(const RunConfig& config) {
  Prepared prepared;
  std::optional<SweepSpec> sweep =
      build_workload(config.workload, config.seed);
  ADAPTBF_CHECK_MSG(sweep.has_value(), "unknown workload");
  prepared.sweep = std::move(*sweep);
  prepared.trials = prepared.sweep.expand();
  std::vector<TrialSpec> warm;
  for (const auto& trial : prepared.trials)
    if (trial.repetition == 0) warm.push_back(trial);
  if (is_campaign(config.workload)) {
    SweepRunner::Options options;
    options.threads = worker_threads();
    (void)SweepRunner(options).run(warm);
  } else {
    prepared.sim = std::make_unique<Simulator>();
    ExperimentOptions options = ExperimentOptions::without_trace();
    options.simulator = prepared.sim.get();
    for (const auto& trial : warm) (void)run_experiment(trial.spec, options);
  }
  return prepared;
}

/// Host time at reference speed: `ms` scaled by the probe run right after.
double at_reference_speed(double ms, double probe_after_ms) {
  return ms * kReferenceProbeMs / probe_after_ms;
}

/// What one run measured. The timed phase runs whole passes over the grid,
/// so every grid trial runs once per pass.
struct TimedPhase {
  /// `probe_after`: the probe run right after the trial (serial) or the
  /// trial's pass (campaign).
  void record(const TrialResult& row, double trial_ms, double probe_after) {
    raw_ms[row.index].push_back(trial_ms);
    ms[row.index].push_back(at_reference_speed(trial_ms, probe_after));
    rpcs[row.index] = rpcs_of(row);
    digests.emplace_back(row.index, trial_digest(row));
    total_rpcs += rpcs[row.index];
    ++trials;
  }

  std::vector<double> setup_ms;             ///< At reference speed.
  std::vector<std::vector<double>> ms;      ///< Per grid trial, each run.
  std::vector<std::vector<double>> raw_ms;  ///< Same, as measured.
  std::vector<std::uint64_t> rpcs;          ///< Per grid trial.
  std::vector<double> pass_ms;              ///< Campaign passes.
  std::vector<double> probe_ms;             ///< Every probe of the run.
  std::vector<std::pair<std::size_t, std::uint64_t>> digests;
  std::size_t passes = 0;
  std::uint64_t trials = 0;
  std::uint64_t total_rpcs = 0;
  std::uint64_t failed = 0;  ///< Threw, or a campaign pass failed a check.
  std::uint64_t allocs = 0;  ///< During trials and passes, not probes.
};

/// One set-up, timed from `start`, followed by a probe.
Prepared timed_setup(const RunConfig& config, Clock::time_point start,
                     TimedPhase& phase) {
  Prepared prepared = prepare(config);
  const double ms = ms_since(start);
  phase.probe_ms.push_back(host_probe_ms());
  phase.setup_ms.push_back(at_reference_speed(ms, phase.probe_ms.back()));
  phase.ms.resize(prepared.trials.size());
  phase.raw_ms.resize(prepared.trials.size());
  phase.rpcs.resize(prepared.trials.size());
  return prepared;
}

/// Compares every timed run's digest with a cold run of its TrialSpec, and
/// the default seed's cold digests with the recorded references. Adds to
/// the report's attempted/failed counts.
void verify(const RunConfig& config, const Prepared& prepared,
            const TimedPhase& phase, const References& references,
            RunReport& report) {
  const std::vector<std::uint64_t> expected = cold_digests_of(prepared.trials);
  std::uint64_t mismatched = 0;
  for (const auto& [index, digest] : phase.digests)
    if (digest != expected[index]) ++mismatched;
  report.attempted += phase.trials + phase.failed;
  report.failed += phase.failed + mismatched;
  if (mismatched > 0)
    report.notes.push_back("output gate: " + std::to_string(mismatched) +
                           " trial digests differ from a cold run");

  const std::vector<std::uint64_t> at_reference_seed =
      config.seed == kReferenceSeed ? expected
                                    : cold_digests(config.workload,
                                                   kReferenceSeed);
  std::uint64_t reference_mismatches = 0;
  for (std::size_t i = 0; i < at_reference_seed.size(); ++i) {
    const auto it = references.find(i);
    if (it == references.end() || it->second != at_reference_seed[i])
      ++reference_mismatches;
  }
  if (references.size() != at_reference_seed.size())
    reference_mismatches = std::max<std::uint64_t>(reference_mismatches, 1);
  report.attempted += at_reference_seed.size();
  report.failed += reference_mismatches;
  if (reference_mismatches > 0)
    report.notes.push_back("output gate: " +
                           std::to_string(reference_mismatches) +
                           " default-seed digests differ from the references");
}

/// The end-to-end metrics of a run. Every host time is the median of its
/// runs at reference speed: a trial's runs (one per pass), the campaign's
/// passes, the run's set-ups.
void add_end_to_end(RunReport& report, const TimedPhase& phase) {
  std::vector<double> trial_ms;
  for (const auto& runs : phase.ms)
    if (!runs.empty()) trial_ms.push_back(median(runs));
  double pass_s = 0.0;
  if (!phase.pass_ms.empty()) {
    pass_s = median(phase.pass_ms) / 1e3;
  } else {
    for (double ms : trial_ms) pass_s += ms / 1e3;
  }
  std::uint64_t grid_rpcs = 0;
  for (std::uint64_t rpcs : phase.rpcs) grid_rpcs += rpcs;
  const Tail tail = tail_of(trial_ms);
  report.metrics = {
      {"setup_s", median(phase.setup_ms) / 1e3, "s"},
      {"trial_ms_p50", median(trial_ms), "ms"},
      {"trial_ms_tail", tail.value, "ms"},
      {"rpcs_per_s", ratio(static_cast<double>(grid_rpcs), pass_s),
       "rpcs/s"},
      {"trials_per_s", ratio(static_cast<double>(trial_ms.size()), pass_s),
       "trials/s"},
      {"allocs_per_rpc",
       ratio(static_cast<double>(phase.allocs),
             static_cast<double>(phase.total_rpcs)),
       "allocs/rpc"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  char line[240];
  std::snprintf(line, sizeof(line),
                "%zu passes over %zu grid trials; trial_ms_tail is p%.2f of "
                "the %zu grid trials (10 above it)",
                phase.passes, trial_ms.size(), tail.percentile, tail.samples);
  report.notes.push_back(line);
  std::vector<double> raw_ms;
  for (const auto& runs : phase.raw_ms)
    if (!runs.empty()) raw_ms.push_back(median(runs));
  std::snprintf(line, sizeof(line),
                "host probe median %.3f ms (reference %.1f ms); unscaled "
                "median trial %.3f ms",
                median(phase.probe_ms), kReferenceProbeMs, median(raw_ms));
  report.notes.push_back(line);
}

// ------------------------------------------------------------ timed runs

// Every pass starts from a fresh set-up, as every sweep lease does, so a
// run sets up several times, spread over the run; the first set-up counts
// from process start.

void timed_serial(const RunConfig& config, const References& references,
                  RunReport& report) {
  // Choosing the CPU is the benchmark's own work: keep it out of set-up.
  const Clock::time_point pin_start = Clock::now();
  const cpu_set_t allowed = pin_to_fastest_cpu();
  Clock::time_point setup_start =
      config.process_start + (Clock::now() - pin_start);
  TimedPhase phase;
  Prepared prepared;
  std::optional<Clock::time_point> start;
  while (phase.passes < 2 || seconds_since(*start) < config.seconds) {
    prepared = timed_setup(config, setup_start, phase);
    if (!start) start = Clock::now();
    ExperimentOptions options = ExperimentOptions::without_trace();
    options.simulator = prepared.sim.get();
    for (const TrialSpec& trial : prepared.trials) {
      const std::uint64_t allocs_start = allocations();
      const Clock::time_point trial_start = Clock::now();
      try {
        const TrialResult row =
            summarize_trial(trial, run_experiment(trial.spec, options));
        const double ms = ms_since(trial_start);
        phase.allocs += allocations() - allocs_start;
        phase.probe_ms.push_back(host_probe_ms());
        phase.record(row, ms, phase.probe_ms.back());
      } catch (const std::exception& e) {
        ++phase.failed;
        report.notes.push_back(std::string("trial threw: ") + e.what());
      }
    }
    ++phase.passes;
    setup_start = Clock::now();
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  add_end_to_end(report, phase);
  verify(config, prepared, phase, references, report);
}

/// Timings of one campaign pass.
struct PassTiming {
  /// Per grid trial: its worker's time since that worker's previous
  /// completion (or since the pass started).
  std::vector<double> trial_ms;
  double runner_s = 0.0;          ///< SweepRunner::run wall time.
  double busy_s = 0.0;            ///< Sum over workers of start -> last row.
  double scan_ms = 0.0;
  double export_ms = 0.0;
  std::vector<double> append_us;  ///< Traced passes only.
  std::vector<double> flush_us;   ///< Traced passes only.
};

/// One campaign pass: the grid through SweepRunner into a fresh journal,
/// then scan and export from the journal. `rows` receives every trial with
/// its jobs payload, `json`/`csv` the journal-derived artifacts. A traced
/// pass wraps the journal in a TimedSink and counts fsyncs in `registry`.
bool campaign_pass(const RunConfig& config, const Prepared& prepared,
                   bool traced, MetricRegistry* registry,
                   std::vector<TrialResult>& rows, std::string& json,
                   std::string& csv, PassTiming& timing, std::string& error) {
  const std::string journal = config.work_dir + "/campaign.jsonl";
  CampaignHeader header;
  header.sweep = prepared.sweep.name;
  header.grid_hash = sweep_grid_hash(prepared.trials);
  header.trials = prepared.trials.size();
  JsonlSinkOptions sink_options;
  sink_options.metrics = registry;
  JsonlTrialSink::OpenResult opened =
      JsonlTrialSink::open_fresh(journal, header, sink_options);
  if (!opened.ok()) {
    error = opened.error;
    return false;
  }
  std::optional<TimedSink> timed;
  if (traced) timed.emplace(*opened.sink);

  rows.assign(prepared.trials.size(), TrialResult{});
  timing.trial_ms.assign(prepared.trials.size(), 0.0);
  // Worker -> time of its last completion. on_trial_done runs on the
  // worker thread under the runner's progress mutex.
  std::vector<std::pair<std::thread::id, Clock::time_point>> last_done;
  const Clock::time_point run_start = Clock::now();
  SweepRunner::Options options;
  options.threads = worker_threads();
  options.sink = timed ? static_cast<TrialSink*>(&*timed) : opened.sink.get();
  options.on_trial_done = [&](std::size_t, std::size_t,
                              const TrialResult& result) {
    const Clock::time_point now = Clock::now();
    const std::thread::id self = std::this_thread::get_id();
    auto it = std::find_if(last_done.begin(), last_done.end(),
                           [&](const auto& entry) { return entry.first == self; });
    if (it == last_done.end()) {
      last_done.emplace_back(self, run_start);
      it = last_done.end() - 1;
    }
    timing.trial_ms[result.index] =
        std::chrono::duration<double, std::milli>(now - it->second).count();
    it->second = now;
    rows[result.index] = result;
  };
  try {
    (void)SweepRunner(options).run(prepared.trials);
  } catch (const std::exception& e) {
    error = std::string("campaign pass threw: ") + e.what();
    return false;
  }
  timing.runner_s = seconds_since(run_start);
  for (const auto& entry : last_done)
    timing.busy_s +=
        std::chrono::duration<double>(entry.second - run_start).count();
  if (timed) {
    timing.append_us = timed->append_us();
    timing.flush_us = timed->flush_us();
  }
  opened.sink.reset();  // Flush and close before re-reading the journal.

  const Clock::time_point scan_start = Clock::now();
  const CampaignScan scan =
      scan_campaign_file(journal, prepared.sweep.name, prepared.trials);
  timing.scan_ms = ms_since(scan_start);
  if (!scan.ok() || !scan.complete()) {
    error = "journal scan: " +
            (scan.ok() ? std::string("incomplete") : scan.error);
    return false;
  }
  const Clock::time_point export_start = Clock::now();
  std::ostringstream json_out;
  const JsonlExportResult exported = export_campaign_from_jsonl(
      journal, prepared.sweep.name, prepared.trials, &json_out);
  if (!exported.ok()) {
    error = "journal export: " + exported.error;
    return false;
  }
  json = json_out.str();
  csv = sweep_cells_table(exported.cells).to_csv();
  timing.export_ms = ms_since(export_start);
  return true;
}

/// The in-memory export of `rows` equals the journal-derived one.
bool exports_match(const Prepared& prepared,
                   const std::vector<TrialResult>& rows,
                   const std::string& json, const std::string& csv) {
  const std::vector<CellStats> cells = aggregate_sweep(rows);
  return sweep_to_json(prepared.sweep.name, rows, cells) == json &&
         sweep_cells_table(cells).to_csv() == csv;
}

void timed_campaign(const RunConfig& config, const References& references,
                    RunReport& report) {
  TimedPhase phase;
  Prepared prepared;
  std::vector<TrialResult> rows;
  std::string json, csv, error;
  Clock::time_point setup_start = config.process_start;
  std::optional<Clock::time_point> start;
  while (phase.passes < 2 || seconds_since(*start) < config.seconds) {
    prepared = timed_setup(config, setup_start, phase);
    if (!start) start = Clock::now();
    ++phase.passes;
    PassTiming timing;
    const std::uint64_t allocs_start = allocations();
    const Clock::time_point pass_start = Clock::now();
    const bool ok = campaign_pass(config, prepared, false, nullptr, rows,
                                  json, csv, timing, error);
    const double pass_ms = ms_since(pass_start);
    phase.allocs += allocations() - allocs_start;
    phase.probe_ms.push_back(host_probe_ms());
    const double probe_after = phase.probe_ms.back();
    // Untimed: the journal-derived artifacts against the in-memory ones.
    if (!ok || !exports_match(prepared, rows, json, csv)) {
      phase.failed += prepared.trials.size();
      report.notes.push_back(
          ok ? "journal export differs from in-memory export" : error);
    } else {
      phase.pass_ms.push_back(at_reference_speed(pass_ms, probe_after));
      for (const auto& row : rows)
        phase.record(row, timing.trial_ms[row.index], probe_after);
    }
    setup_start = Clock::now();
  }
  add_end_to_end(report, phase);
  verify(config, prepared, phase, references, report);
}

// ----------------------------------------------------------- traced runs

/// Per-layer numbers shared by every workload: the model layers from the
/// traced wiring, the sweep layer from traced campaign passes (zero on the
/// single-thread workloads, which never enter src/sweep).
struct TracedTotals {
  Tracer tracer;
  TraceCounts counts;
  std::uint64_t trials = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t events = 0;
  std::uint64_t pool_reallocations = 0;
  double traced_s = 0.0;    ///< run_traced_trial calls.
  double untraced_s = 0.0;  ///< run_experiment calls on the same trials.
  std::uint64_t fidelity_failures = 0;

  // Sweep layer.
  double runner_s = 0.0;
  double busy_s = 0.0;
  std::uint32_t threads = 0;
  std::vector<double> append_us;
  std::vector<double> flush_us;
  std::vector<double> scan_ms;
  std::vector<double> export_ms;
  std::uint64_t journal_bytes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t campaign_trials = 0;
};

/// Runs `trial` untraced and traced; the two digests must match.
void traced_trial(const TrialSpec& trial, const ExperimentOptions& untraced,
                  Simulator& traced_sim, TracedTotals& totals,
                  RunReport& report) {
  Clock::time_point start = Clock::now();
  const ExperimentResult plain = run_experiment(trial.spec, untraced);
  totals.untraced_s += seconds_since(start);

  start = Clock::now();
  const ExperimentResult traced =
      run_traced_trial(trial.spec, traced_sim, totals.tracer, totals.counts);
  totals.traced_s += seconds_since(start);

  const TrialResult row = summarize_trial(trial, traced);
  ++totals.trials;
  ++report.attempted;
  totals.rpcs += rpcs_of(row);
  totals.events += traced.events_dispatched;
  totals.pool_reallocations += traced.queue_stats.pool_reallocations;
  if (trial_digest(row) != trial_digest(summarize_trial(trial, plain))) {
    ++totals.fidelity_failures;
    ++report.failed;
  }
}

void add_per_layer(const TracedTotals& t, RunReport& report) {
  const Tracer& tr = t.tracer;
  const double trials = static_cast<double>(t.trials);
  const double rpcs = static_cast<double>(t.rpcs);
  const double loop_ns =
      static_cast<double>(tr.stats(Layer::kLoop).total_ns);
  const double trial_ns =
      static_cast<double>(tr.stats(Layer::kTrial).total_ns);
  auto self_ms = [&](Layer layer) {
    return ratio(static_cast<double>(tr.stats(layer).self_ns) / 1e6, trials);
  };
  // A layer's share of the loop span.
  auto share = [&](Layer layer) {
    return ratio(static_cast<double>(tr.stats(layer).self_ns), loop_ns);
  };
  auto allocs = [&](Layer layer) {
    return static_cast<double>(tr.stats(layer).allocs);
  };
  std::vector<double> tick_us;
  for (std::int64_t ns : tr.tick_ns())
    tick_us.push_back(static_cast<double>(ns) / 1e3);
  const double windows = static_cast<double>(t.counts.windows);
  const double calls = static_cast<double>(t.counts.scheduler_calls);
  const double campaign_trials = static_cast<double>(t.campaign_trials);

  report.metrics = {
      {"sim.events_per_rpc", ratio(static_cast<double>(t.events), rpcs),
       "events/rpc"},
      {"sim.pool_reallocations", static_cast<double>(t.pool_reallocations),
       "count"},
      {"sim_client_ost.self_ms_per_trial", self_ms(Layer::kLoop), "ms"},
      {"sim_client_ost.share", share(Layer::kLoop), "ratio"},
      {"sim_client_ost.allocs_per_rpc", ratio(allocs(Layer::kLoop), rpcs),
       "allocs/rpc"},
      {"tbf.calls_per_rpc", ratio(calls, rpcs), "calls/rpc"},
      {"tbf.ns_per_call",
       ratio(static_cast<double>(tr.stats(Layer::kTbf).total_ns), calls),
       "ns"},
      {"tbf.self_ms_per_trial", self_ms(Layer::kTbf), "ms"},
      {"tbf.share", share(Layer::kTbf), "ratio"},
      {"tbf.dequeue_empty_ratio",
       ratio(static_cast<double>(t.counts.empty_dequeues),
             static_cast<double>(t.counts.dequeues)),
       "ratio"},
      {"tbf.allocs_per_rpc", ratio(allocs(Layer::kTbf), rpcs), "allocs/rpc"},
      {"adaptbf.windows_per_trial", ratio(windows, trials), "count"},
      {"adaptbf.tick_us_p50", median(tick_us), "us"},
      {"adaptbf.self_ms_per_trial", self_ms(Layer::kAdaptbf), "ms"},
      {"adaptbf.share", share(Layer::kAdaptbf), "ratio"},
      {"adaptbf.rule_changes_per_window",
       ratio(static_cast<double>(t.counts.rule_changes), windows), "count"},
      {"adaptbf.allocs_per_window", ratio(allocs(Layer::kAdaptbf), windows),
       "allocs/window"},
      {"metrics.self_ms_per_trial", self_ms(Layer::kMetrics), "ms"},
      {"metrics.share", share(Layer::kMetrics), "ratio"},
      {"metrics.allocs_per_rpc", ratio(allocs(Layer::kMetrics), rpcs),
       "allocs/rpc"},
      {"wiring.self_ms_per_trial", self_ms(Layer::kTrial), "ms"},
      {"wiring.allocs_per_trial", ratio(allocs(Layer::kTrial), trials),
       "allocs"},
      {"sweep.worker_busy_ratio",
       ratio(t.busy_s, t.runner_s * static_cast<double>(t.threads)), "ratio"},
      {"sweep.sink_append_us_p50", median(t.append_us), "us"},
      {"sweep.sink_flush_us_p50", median(t.flush_us), "us"},
      {"sweep.journal_bytes_per_trial",
       ratio(static_cast<double>(t.journal_bytes), campaign_trials), "bytes"},
      {"sweep.fsyncs_per_trial",
       ratio(static_cast<double>(t.fsyncs), campaign_trials), "count"},
      {"sweep.scan_ms", median(t.scan_ms), "ms"},
      {"sweep.export_ms", median(t.export_ms), "ms"},
      {"trace.overhead_ratio", ratio(t.traced_s, t.untraced_s) - 1.0,
       "ratio"},
      {"trace.loop_coverage", ratio(loop_ns, trial_ns), "ratio"},
  };
  report.notes.push_back("traced " + std::to_string(t.trials) +
                         " trials; each reproduced run_experiment's digest");
}

/// Traced campaign passes for the sweep layer's numbers.
void traced_campaign_passes(const RunConfig& config, const Prepared& prepared,
                            double seconds, TracedTotals& totals,
                            RunReport& report) {
  totals.threads = worker_threads();
  MetricRegistry registry;
  std::vector<TrialResult> rows;
  std::string json, csv, error;
  const Clock::time_point start = Clock::now();
  do {
    PassTiming timing;
    const bool ok = campaign_pass(config, prepared, true, &registry, rows,
                                  json, csv, timing, error);
    report.attempted += prepared.trials.size();
    if (!ok || !exports_match(prepared, rows, json, csv)) {
      report.failed += prepared.trials.size();
      report.notes.push_back(
          ok ? "journal export differs from in-memory export" : error);
      continue;
    }
    totals.append_us.insert(totals.append_us.end(), timing.append_us.begin(),
                            timing.append_us.end());
    totals.flush_us.insert(totals.flush_us.end(), timing.flush_us.begin(),
                           timing.flush_us.end());
    totals.runner_s += timing.runner_s;
    totals.busy_s += timing.busy_s;
    totals.scan_ms.push_back(timing.scan_ms);
    totals.export_ms.push_back(timing.export_ms);
    totals.campaign_trials += prepared.trials.size();
    totals.journal_bytes +=
        std::filesystem::file_size(config.work_dir + "/campaign.jsonl");
  } while (seconds_since(start) < seconds);
  totals.fsyncs = registry.counter(kMetricJournalFsyncs).value();
}

void traced_run(const RunConfig& config, RunReport& report) {
  const Prepared prepared = prepare(config);
  TracedTotals totals;
  const Clock::time_point start = Clock::now();
  if (is_campaign(config.workload))
    traced_campaign_passes(config, prepared, config.seconds / 3.0, totals,
                           report);

  // Model layers: repetition-major order, so a short run still covers
  // every grid cell.
  std::vector<const TrialSpec*> order;
  for (const auto& trial : prepared.trials) order.push_back(&trial);
  std::stable_sort(order.begin(), order.end(),
                   [](const TrialSpec* a, const TrialSpec* b) {
                     return a->repetition < b->repetition;
                   });
  Simulator untraced_sim;
  ExperimentOptions untraced = ExperimentOptions::without_trace();
  untraced.simulator = prepared.sim ? prepared.sim.get() : &untraced_sim;
  Simulator traced_sim;
  const cpu_set_t allowed = pin_to_fastest_cpu();
  for (std::size_t i = 0; i == 0 || seconds_since(start) < config.seconds;
       ++i) {
    traced_trial(*order[i % order.size()], untraced, traced_sim, totals,
                 report);
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  if (totals.fidelity_failures > 0) {
    report.notes.push_back("traced wiring diverged from run_experiment on " +
                           std::to_string(totals.fidelity_failures) +
                           " trials; no layer numbers reported");
    return;
  }
  add_per_layer(totals, report);
}

}  // namespace

void TimedSink::append(const TrialResult& result) {
  const Clock::time_point start = Clock::now();
  inner_.append(result);
  append_us_.push_back(1e6 * seconds_since(start));
}

void TimedSink::flush() {
  const Clock::time_point start = Clock::now();
  inner_.flush();
  flush_us_.push_back(1e6 * seconds_since(start));
}

std::vector<std::uint64_t> cold_digests(const std::string& workload,
                                        std::uint64_t seed) {
  std::optional<SweepSpec> sweep = build_workload(workload, seed);
  ADAPTBF_CHECK_MSG(sweep.has_value(), "unknown workload");
  return cold_digests_of(sweep->expand());
}

RunReport run_benchmark(const RunConfig& config,
                        const References& references) {
  RunReport report;
  report.notes.push_back("workload " + config.workload + ", seed " +
                         std::to_string(config.seed) + ", " +
                         (config.trace ? "traced" : "timed") + " run");
  if (config.trace) {
    traced_run(config, report);
  } else if (is_campaign(config.workload)) {
    timed_campaign(config, references, report);
  } else {
    timed_serial(config, references, report);
  }
  report.correct = report.failed == 0 && report.attempted > 0;
  char line[128];
  std::snprintf(line, sizeof(line), "trial_fail_ratio %.6g (%llu of %llu)",
                ratio(static_cast<double>(report.failed),
                      static_cast<double>(report.attempted)),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
  report.notes.push_back(line);
  return report;
}

std::string report_json(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " +
           format_number(metric.value) + ", \"unit\": \"" + metric.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
