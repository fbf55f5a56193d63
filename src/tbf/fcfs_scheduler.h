// First-Come First-Serve scheduler: the paper's "No BW" baseline.
//
// No classification, no token buckets — every RPC is eligible the moment it
// arrives, so the OST's I/O threads drain requests in arrival order. Under
// this policy a single I/O-heavy job can monopolize the server (the
// bandwidth-hogging problem that motivates the paper).
#pragma once

#include "support/ring_queue.h"
#include "tbf/scheduler.h"

namespace adaptbf {

class FcfsScheduler final : public RequestScheduler {
 public:
  void enqueue(const Rpc& rpc, SimTime now) override;
  std::optional<Rpc> dequeue(SimTime now) override;
  SimTime next_ready_time(SimTime now) override;
  [[nodiscard]] std::size_t backlog() const override { return queue_.size(); }

 private:
  RingQueue<Rpc> queue_;
};

}  // namespace adaptbf
