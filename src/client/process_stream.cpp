#include "client/process_stream.h"

#include <utility>

#include "support/check.h"

namespace adaptbf {

ProcessStream::ProcessStream(Simulator& sim, Ost& ost, Config config,
                             std::unique_ptr<IoPattern> pattern,
                             std::uint64_t& next_rpc_id, std::uint32_t route)
    : sim_(sim),
      ost_(ost),
      config_(config),
      pattern_(std::move(pattern)),
      next_rpc_id_(next_rpc_id),
      route_(route) {
  ADAPTBF_CHECK(pattern_ != nullptr);
  ADAPTBF_CHECK(config_.max_inflight > 0);
  ADAPTBF_CHECK(config_.rpc_size_bytes > 0);
  pattern_total_ = pattern_->total_rpcs();
}

void ProcessStream::start() { schedule_next_release(); }

void ProcessStream::schedule_next_release() {
  auto release = pattern_->next_release();
  if (!release.has_value()) return;
  const SimTime when = std::max(release->when, sim_.now());
  const std::uint64_t count = release->count;
  sim_.schedule_at(when, [this, count] {
    available_ += count;
    issue_available();
    schedule_next_release();
  });
}

void ProcessStream::issue_available() {
  while (available_ > 0 && inflight_ < config_.max_inflight) {
    Rpc rpc;
    rpc.id = next_rpc_id_++;
    rpc.job = config_.job;
    rpc.nid = config_.nid;
    rpc.opcode = config_.opcode;
    rpc.locality = config_.locality;
    rpc.size_bytes = config_.rpc_size_bytes;
    rpc.issue_time = sim_.now();
    rpc.process = config_.process_index;
    rpc.route = route_;
    --available_;
    ++issued_;
    ++inflight_;
    // issue_time stays the client-side issue instant, so completion
    // latency metrics include time on the wire.
    if (config_.network_latency > SimDuration(0)) {
      sim_.schedule_after(config_.network_latency,
                          [this, rpc] { ost_.submit(rpc); });
    } else {
      ost_.submit(rpc);
    }
  }
}

void ProcessStream::on_completion(const RpcCompletion& completion) {
  ADAPTBF_CHECK(completion.rpc.job == config_.job);
  ADAPTBF_CHECK(inflight_ > 0);
  --inflight_;
  ++completed_;
  if (completed_ == pattern_total_) finish_time_ = sim_.now();
  issue_available();
}

}  // namespace adaptbf
