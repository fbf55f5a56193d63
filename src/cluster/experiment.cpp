#include "cluster/experiment.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "adaptbf/controller.h"
#include "adaptbf/gift_controller.h"
#include "adaptbf/static_controller.h"
#include "client/client_system.h"
#include "ost/oss.h"
#include "sim/simulator.h"
#include "support/check.h"
#include "tbf/fcfs_scheduler.h"
#include "tbf/tbf_scheduler.h"

namespace adaptbf {

namespace {

std::unique_ptr<IoPattern> build_pattern(const ProcessPattern& pattern) {
  switch (pattern.kind) {
    case ProcessPattern::Kind::kContinuous:
      return std::make_unique<ContinuousPattern>(pattern.total_rpcs,
                                                 pattern.start_delay);
    case ProcessPattern::Kind::kPeriodicBurst:
      return std::make_unique<PeriodicBurstPattern>(
          pattern.total_rpcs, pattern.burst_rpcs, pattern.period,
          pattern.start_delay);
    case ProcessPattern::Kind::kPoisson:
      return std::make_unique<PoissonPattern>(pattern.total_rpcs,
                                              pattern.poisson_rate,
                                              pattern.start_delay,
                                              pattern.seed);
  }
  ADAPTBF_CHECK_MSG(false, "unknown pattern kind");
  return nullptr;
}

}  // namespace

std::size_t estimate_peak_events(const ScenarioSpec& spec) {
  std::size_t processes = 0;
  for (const auto& job : spec.jobs) processes += job.processes.size();
  // Per process: the next pattern release plus one pending event per
  // inflight RPC (each RPC holds at most one — its current network or
  // service stage). Per OST: disk completion, token/queue wakeups bounded
  // by service threads, and a few controller/daemon periodics.
  const std::size_t per_process = spec.max_inflight_per_process + 2;
  const std::size_t per_ost = spec.num_threads + 8;
  const std::size_t estimate =
      processes * per_process + spec.num_osts * per_ost + 64;
  return std::max<std::size_t>(estimate, 256);
}

std::size_t estimate_completions(const ScenarioSpec& spec,
                                 double max_token_rate) {
  std::uint64_t declared = 0;
  for (const auto& job : spec.jobs)
    for (const auto& pattern : job.processes)
      declared = pattern.total_rpcs > UINT64_MAX - declared
                     ? UINT64_MAX
                     : declared + pattern.total_rpcs;
  std::uint64_t bound = std::min<std::uint64_t>(declared,
                                                kMaxReservedCompletions);
  const double admitted =
      static_cast<double>(spec.num_osts) *
      std::ceil(max_token_rate * spec.duration.to_seconds());
  if (admitted < static_cast<double>(bound))
    bound = static_cast<std::uint64_t>(admitted);
  return static_cast<std::size_t>(bound);
}

std::vector<std::pair<JobId, std::string>> ExperimentResult::job_labels()
    const {
  std::vector<std::pair<JobId, std::string>> labels;
  labels.reserve(jobs.size());
  for (const auto& j : jobs) labels.emplace_back(j.id, j.name);
  return labels;
}

ExperimentResult run_experiment(const ScenarioSpec& spec,
                                const ExperimentOptions& options) {
  ADAPTBF_CHECK_MSG(!spec.jobs.empty(), "scenario needs at least one job");
  ADAPTBF_CHECK(spec.duration > SimDuration(0));
  ADAPTBF_CHECK(spec.num_osts > 0);

  Simulator local_sim;
  Simulator* sim_ptr = options.simulator;
  if (sim_ptr != nullptr) {
    // Arena reuse: the caller owns a warmed simulator (one per sweep
    // worker). reset() makes it observationally identical to a fresh one
    // while keeping every pool at capacity.
    sim_ptr->reset();
  } else {
    sim_ptr = &local_sim;
  }
  Simulator& sim = *sim_ptr;
  // One event arena serves the whole trial, pre-sized from the scenario so
  // steady-state scheduling never grows the pool.
  sim.reserve_events(estimate_peak_events(spec));
  if (options.dispatch_hook) sim.set_dispatch_hook(options.dispatch_hook);

  // --- Server: OSS hosting num_osts OSTs, one scheduler each ---
  Oss::Config oss_config;
  oss_config.num_osts = spec.num_osts;
  oss_config.ost.num_threads = spec.num_threads;
  oss_config.ost.disk = spec.disk;

  std::vector<TbfScheduler*> tbf_schedulers(spec.num_osts, nullptr);
  Oss oss(sim, oss_config, [&](std::uint32_t index)
              -> std::unique_ptr<RequestScheduler> {
    if (spec.control == BwControl::kNone)
      return std::make_unique<FcfsScheduler>();
    auto owned = std::make_unique<TbfScheduler>();
    tbf_schedulers[index] = owned.get();
    return owned;
  });

  const double max_token_rate =
      spec.max_token_rate > 0.0
          ? spec.max_token_rate
          : oss.ost(0).max_token_rate(spec.rpc_size_bytes);

  // --- Metrics (global across OSTs) ---
  ExperimentResult result;
  result.scenario_name = spec.name;
  result.control = spec.control;
  result.max_token_rate = max_token_rate;
  result.timeline = ThroughputTimeline(spec.timeline_bin);
  result.latency.reserve(estimate_completions(spec, max_token_rate));
  oss.add_completion_hook([&result](const RpcCompletion& completion) {
    result.timeline.record(completion.rpc.job, completion.rpc.size_bytes,
                           completion.end_service);
    result.latency.record(completion);
  });

  // --- Clients: processes assigned round-robin over OSTs (stripe_count=1)
  // and over 4 client machines as in the CloudLab testbed (Table II). ---
  ClientSystem clients(sim, spec.network_latency);
  for (std::size_t i = 0; i < oss.num_osts(); ++i)
    clients.attach_ost(oss.ost(i));
  std::uint32_t global_process = 0;
  for (const auto& job : spec.jobs) {
    std::uint32_t process_index = 0;
    for (const auto& pattern : job.processes) {
      ProcessStream::Config config;
      config.job = job.id;
      config.nid = Nid(global_process % 4);
      config.process_index = process_index++;
      config.rpc_size_bytes = spec.rpc_size_bytes;
      config.locality = pattern.locality;
      config.max_inflight = spec.max_inflight_per_process;
      config.network_latency = spec.network_latency;
      Ost& target = oss.ost(global_process % oss.num_osts());
      clients.add_process(target, config, build_pattern(pattern));
      ++global_process;
    }
  }

  // --- Control policy: one independent instance per OST (AdapTBF/Static)
  // or one central instance over all OSTs (GIFT) ---
  std::vector<std::unique_ptr<AdaptbfController>> adaptive;
  std::vector<std::unique_ptr<StaticBwController>> static_controls;
  std::unique_ptr<GiftController> gift;
  if (spec.control == BwControl::kGift) {
    std::vector<std::pair<Ost*, TbfScheduler*>> targets;
    for (std::size_t i = 0; i < oss.num_osts(); ++i) {
      ADAPTBF_CHECK(tbf_schedulers[i] != nullptr);
      targets.emplace_back(&oss.ost(i), tbf_schedulers[i]);
    }
    GiftController::Config config;
    config.total_rate = max_token_rate;
    config.dt = spec.observation_period;
    config.daemon.depth = spec.bucket_depth;
    gift = std::make_unique<GiftController>(sim, std::move(targets), config);
    gift->start();
  } else if (spec.control == BwControl::kAdaptive) {
    for (std::size_t i = 0; i < oss.num_osts(); ++i) {
      ADAPTBF_CHECK(tbf_schedulers[i] != nullptr);
      AdaptbfController::Config config;
      config.allocator.total_rate = max_token_rate;
      config.allocator.dt = spec.observation_period;
      config.allocator.enable_redistribution = spec.enable_redistribution;
      config.allocator.enable_recompensation = spec.enable_recompensation;
      config.allocator.enable_remainders = spec.enable_remainders;
      config.allocator.demand_estimator = spec.use_ewma_estimator
                                              ? DemandEstimator::kEwma
                                              : DemandEstimator::kLastWindow;
      config.allocator.ewma_alpha = spec.ewma_alpha;
      config.daemon.depth = spec.bucket_depth;
      config.apply_latency = spec.controller_apply_latency;
      for (const auto& job : spec.jobs) config.job_nodes[job.id] = job.nodes;
      adaptive.push_back(std::make_unique<AdaptbfController>(
          sim, oss.ost(i), *tbf_schedulers[i], config));
      // The recorded allocation trace follows OST 0 (all of the paper's
      // trace figures are single-OST).
      if (options.capture_allocation_trace && i == 0) {
        adaptive.back()->add_observer([&result](const WindowResult& window) {
          result.allocation_trace.push_back(window);
        });
      }
      adaptive.back()->start();
    }
  } else if (spec.control == BwControl::kStatic) {
    for (std::size_t i = 0; i < oss.num_osts(); ++i) {
      ADAPTBF_CHECK(tbf_schedulers[i] != nullptr);
      StaticBwController::Config config;
      config.total_rate = max_token_rate;
      config.depth = spec.bucket_depth;
      for (const auto& job : spec.jobs)
        config.jobs.push_back({job.id, job.nodes});
      static_controls.push_back(
          std::make_unique<StaticBwController>(*tbf_schedulers[i], config));
      static_controls.back()->install(sim.now());
    }
  }

  // --- Run: in bin-width steps so early-idle stop is detected promptly ---
  clients.start_all();
  const SimTime end = SimTime::zero() + spec.duration;
  SimTime cursor = SimTime::zero();
  while (cursor < end) {
    cursor = std::min(end, cursor + spec.timeline_bin);
    sim.run_until(cursor);
    if (spec.stop_when_idle && clients.all_finished()) break;
  }
  result.horizon = sim.now();
  for (auto& controller : adaptive) controller->stop();
  if (gift) gift->stop();

  // --- Summaries (cumulative stats summed across OSTs; each job's
  // completion state from its own processes only) ---
  for (const auto& job : spec.jobs) {
    JobSummary summary;
    summary.id = job.id;
    summary.name = job.name;
    summary.nodes = job.nodes;
    for (std::size_t i = 0; i < oss.num_osts(); ++i) {
      const JobCumulativeStats* cumulative =
          oss.ost(i).job_stats().cumulative(job.id);
      if (cumulative == nullptr) continue;
      summary.rpcs_completed += cumulative->rpcs_completed;
      summary.bytes_completed += cumulative->bytes_completed;
    }
    summary.finished = clients.job_finished(job.id);
    if (summary.finished) summary.finish_time = clients.job_finish_time(job.id);
    const SimTime span =
        summary.finished && summary.finish_time > SimTime::zero()
            ? summary.finish_time
            : result.horizon;
    summary.mean_mibps = result.timeline.mean_mibps(job.id, span);
    result.jobs.push_back(std::move(summary));
  }
  result.aggregate_mibps =
      result.timeline.aggregate_mean_mibps(result.horizon);
  result.total_bytes = result.timeline.total_bytes();
  result.events_dispatched = sim.events_dispatched();
  result.queue_stats = sim.queue_stats();
  result.event_pool_slots = sim.event_pool_slots();
  return result;
}

}  // namespace adaptbf
