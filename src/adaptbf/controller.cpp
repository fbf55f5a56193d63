#include "adaptbf/controller.h"

#include <algorithm>
#include <utility>

#include "support/check.h"

namespace adaptbf {

AdaptbfController::AdaptbfController(Simulator& sim, Ost& ost,
                                     TbfScheduler& scheduler, Config config)
    : sim_(sim),
      ost_(ost),
      scheduler_(scheduler),
      config_(std::move(config)),
      allocator_(config_.allocator),
      daemon_(scheduler, config_.daemon) {
  nodes_by_job_.assign(config_.job_nodes.begin(), config_.job_nodes.end());
  std::sort(nodes_by_job_.begin(), nodes_by_job_.end());
}

void AdaptbfController::start() {
  ADAPTBF_CHECK_MSG(!running_, "controller already started");
  running_ = true;
  periodic_ = sim_.schedule_periodic(config_.allocator.dt, [this] { tick(); });
}

void AdaptbfController::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel_periodic(periodic_);
}

void AdaptbfController::add_observer(WindowObserver observer) {
  ADAPTBF_CHECK(observer != nullptr);
  observers_.push_back(std::move(observer));
}

void AdaptbfController::tick() {
  // (1) System Stats Controller: collect this window's job stats.
  ost_.job_stats().window_snapshot(snapshot_);

  // (2) Token Allocation Algorithm over active jobs only. Both the
  // snapshot and nodes_by_job_ ascend by JobId.
  inputs_.clear();
  auto nodes = nodes_by_job_.begin();
  for (const auto& stats : snapshot_) {
    if (stats.rpcs == 0) continue;
    while (nodes != nodes_by_job_.end() && nodes->first < stats.job) ++nodes;
    JobWindowInput input;
    input.job = stats.job;
    input.nodes = nodes != nodes_by_job_.end() && nodes->first == stats.job
                      ? nodes->second
                      : 1;
    input.demand = static_cast<double>(stats.rpcs);
    inputs_.push_back(input);
  }
  ++windows_;
  WindowResult window = allocator_.allocate(inputs_, sim_.now());
  allocator_.collect_garbage(sim_.now());

  // (3) Rule Management Daemon applies the allocation, optionally after the
  // framework's own processing latency.
  if (config_.apply_latency > SimDuration(0)) {
    // Copy the window into the deferred application event.
    sim_.schedule_after(config_.apply_latency, [this, window] {
      daemon_.apply(window, sim_.now());
    });
  } else {
    daemon_.apply(window, sim_.now());
  }

  // (4) Notify observers, then (5) clear stats for the next window.
  for (const auto& observer : observers_) observer(window);
  ost_.job_stats().clear_window();
}

}  // namespace adaptbf
