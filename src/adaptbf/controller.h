// AdapTBF controller: the per-OST control loop of Fig. 2.
//
// Every observation period Δt it (1) snapshots the OST's job_stats tracker
// to find active jobs and their demand, (2) runs the Token Allocation
// Algorithm against the Job Records, (3) hands the allocations to the Rule
// Management Daemon which creates/changes/stops TBF rules, (4) notifies
// observers (the System Stats Controller's completion signal), and
// (5) clears the window stats. Entirely local to one OST — this is the
// decentralization claim: no cross-server communication anywhere.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "adaptbf/rule_daemon.h"
#include "adaptbf/token_allocator.h"
#include "ost/ost.h"
#include "sim/simulator.h"
#include "tbf/tbf_scheduler.h"

namespace adaptbf {

class AdaptbfController {
 public:
  struct Config {
    AllocatorConfig allocator;
    RuleDaemonConfig daemon;
    /// Models the framework's own cost (§IV-G measures ~25 ms per cycle
    /// for stats collection + rule updates): freshly computed rules take
    /// effect this long after the window closes. Relevant to the Fig. 9
    /// frequency study; zero = idealized instantaneous control.
    SimDuration apply_latency = SimDuration(0);
    /// Jobs' compute-node counts (the priority input). Jobs not listed
    /// default to 1 node.
    std::unordered_map<JobId, std::uint32_t> job_nodes;
  };

  using WindowObserver = std::function<void(const WindowResult&)>;

  /// `scheduler` must be the TbfScheduler installed in `ost`.
  AdaptbfController(Simulator& sim, Ost& ost, TbfScheduler& scheduler,
                    Config config);

  /// Arms the periodic control loop (first window closes at now + Δt).
  void start();
  void stop();

  void add_observer(WindowObserver observer);

  [[nodiscard]] const TokenAllocator& allocator() const { return allocator_; }
  [[nodiscard]] const RuleDaemon& daemon() const { return daemon_; }
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }

 private:
  void tick();

  Simulator& sim_;
  Ost& ost_;
  TbfScheduler& scheduler_;
  Config config_;
  TokenAllocator allocator_;
  RuleDaemon daemon_;
  std::vector<WindowObserver> observers_;
  Simulator::PeriodicHandle periodic_{};
  bool running_ = false;
  std::uint64_t windows_ = 0;
  /// config_.job_nodes as (JobId, nodes), ascending: tick() pairs it with
  /// the ascending window snapshot in one merge instead of a lookup per job.
  std::vector<std::pair<JobId, std::uint32_t>> nodes_by_job_;
  // Per-window scratch, reused across windows.
  std::vector<JobWindowStats> snapshot_;
  std::vector<JobWindowInput> inputs_;
};

}  // namespace adaptbf
