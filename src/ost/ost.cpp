#include "ost/ost.h"

#include <utility>

#include "support/check.h"

namespace adaptbf {

Ost::Ost(Simulator& sim, Config config,
         std::unique_ptr<RequestScheduler> scheduler)
    : sim_(sim),
      config_(config),
      disk_model_(config.disk),
      scheduler_(std::move(scheduler)),
      disk_(sim, config.disk.seq_bandwidth,
            [this](std::uint64_t thread) { on_disk_done(thread); }),
      in_service_(config.num_threads) {
  ADAPTBF_CHECK_MSG(config_.num_threads > 0, "OST needs at least one thread");
  ADAPTBF_CHECK_MSG(scheduler_ != nullptr, "OST needs a scheduler");
  // Idle threads pop from the back: thread 0 is taken first.
  for (std::uint32_t thread = config_.num_threads; thread-- > 0;)
    idle_threads_.push_back(thread);
}

void Ost::submit(const Rpc& rpc) {
  job_stats_.record_arrival(rpc);
  scheduler_->enqueue(rpc, sim_.now());
  pump();
}

void Ost::add_completion_hook(CompletionHook hook) {
  ADAPTBF_CHECK(hook != nullptr);
  hooks_.push_back(std::move(hook));
}

double Ost::max_token_rate(std::uint32_t rpc_size_bytes) const {
  return disk_model_.rpcs_per_second(rpc_size_bytes, Locality::kSequential);
}

void Ost::pump() {
  const SimTime now = sim_.now();
  while (!idle_threads_.empty()) {
    auto rpc = scheduler_->dequeue(now);
    if (!rpc.has_value()) break;
    const std::uint32_t thread = idle_threads_.back();
    idle_threads_.pop_back();
    in_service_[thread] = InService{*rpc, now};
    disk_.admit(thread, disk_model_.work_bytes(*rpc));
  }
  // If work remains queued but nothing was eligible (tokens pending) or all
  // threads are busy, arm a wakeup for the earliest time the scheduler could
  // release an RPC. Completions also call pump(), so thread-availability
  // wakeups are implicit.
  if (scheduler_->backlog() > 0 && !idle_threads_.empty()) {
    const SimTime ready = scheduler_->next_ready_time(now);
    if (ready < SimTime::max()) {
      if (sim_.pending(wakeup_) && wakeup_time_ <= ready) return;  // armed
      sim_.cancel(wakeup_);  // stale handles are ignored in O(1)
      wakeup_time_ = std::max(ready, now);
      wakeup_ = sim_.schedule_at(wakeup_time_, [this] { pump(); });
    }
  }
}

void Ost::on_disk_done(std::uint64_t thread) {
  ADAPTBF_CHECK(thread < in_service_.size());
  const InService& done = in_service_[thread];
  RpcCompletion completion{done.rpc, done.start_service, sim_.now()};
  idle_threads_.push_back(static_cast<std::uint32_t>(thread));
  ++completed_;
  completed_bytes_ += completion.rpc.size_bytes;
  job_stats_.record_completion(completion.rpc);
  for (const auto& hook : hooks_) hook(completion);
  pump();
}

}  // namespace adaptbf
