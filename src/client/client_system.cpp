#include "client/client_system.h"

#include <algorithm>
#include <utility>

#include "support/check.h"

namespace adaptbf {

ClientSystem::ClientSystem(Simulator& sim, SimDuration response_latency)
    : sim_(sim), response_latency_(response_latency) {
  ADAPTBF_CHECK(response_latency >= SimDuration(0));
}

void ClientSystem::attach_ost(Ost& ost) {
  ost.add_completion_hook(
      [this](const RpcCompletion& completion) { route_completion(completion); });
}

ProcessStream& ClientSystem::add_process(Ost& ost,
                                         ProcessStream::Config config,
                                         std::unique_ptr<IoPattern> pattern) {
  const auto route = static_cast<std::uint32_t>(processes_.size());
  const std::uint32_t slot = job_slots_.insert(config.job);
  if (slot == last_of_job_.size()) last_of_job_.push_back(JobSlots::kNone);
  previous_of_job_.push_back(last_of_job_[slot]);
  last_of_job_[slot] = route;
  processes_.push_back(std::make_unique<ProcessStream>(
      sim_, ost, config, std::move(pattern), next_rpc_id_, route));
  return *processes_.back();
}

void ClientSystem::start_all() {
  for (auto& process : processes_) process->start();
}

bool ClientSystem::all_finished() const {
  for (const auto& process : processes_)
    if (!process->finished()) return false;
  return true;
}

template <typename Fn>
void ClientSystem::for_each_process_of(JobId job, Fn&& fn) const {
  const std::uint32_t slot = job_slots_.find(job);
  if (slot == JobSlots::kNone) return;
  for (std::uint32_t route = last_of_job_[slot]; route != JobSlots::kNone;
       route = previous_of_job_[route])
    fn(*processes_[route]);
}

bool ClientSystem::job_finished(JobId job) const {
  bool finished = true;
  for_each_process_of(job, [&](const ProcessStream& process) {
    finished = finished && process.finished();
  });
  return finished;
}

SimTime ClientSystem::job_finish_time(JobId job) const {
  SimTime latest = SimTime::zero();
  for_each_process_of(job, [&](const ProcessStream& process) {
    if (process.finished()) latest = std::max(latest, process.finish_time());
  });
  return latest;
}

void ClientSystem::route_completion(const RpcCompletion& completion) {
  ADAPTBF_CHECK_MSG(completion.rpc.route < processes_.size(),
                    "completion for unrouted RPC");
  ProcessStream* process = processes_[completion.rpc.route].get();
  if (response_latency_ > SimDuration(0)) {
    sim_.schedule_after(response_latency_, [process, completion] {
      process->on_completion(completion);
    });
  } else {
    process->on_completion(completion);
  }
}

}  // namespace adaptbf
