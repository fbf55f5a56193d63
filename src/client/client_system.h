// Client-side aggregate: owns all processes and routes completions.
//
// One ClientSystem per experiment. It assigns processes to client nodes
// (NIDs), provides the global RPC id counter, registers itself as a
// completion hook on every OST, and demultiplexes completions back to the
// issuing ProcessStream by the process index each RPC carries
// (Rpc::route): one array access, no per-RPC bookkeeping.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "client/process_stream.h"
#include "ost/ost.h"
#include "rpc/job_slots.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"

namespace adaptbf {

class ClientSystem {
 public:
  /// `response_latency` models the server -> client completion trip: a
  /// process learns of (and reacts to) a completion that much later.
  explicit ClientSystem(Simulator& sim,
                        SimDuration response_latency = SimDuration(0));

  /// Registers completion routing on an OST. Call once per OST, before any
  /// process targeting it is added.
  void attach_ost(Ost& ost);

  /// Creates a process issuing to `ost`. Returns a stable handle.
  ProcessStream& add_process(Ost& ost, ProcessStream::Config config,
                             std::unique_ptr<IoPattern> pattern);

  /// Starts every process's release schedule.
  void start_all();

  [[nodiscard]] std::size_t process_count() const { return processes_.size(); }
  [[nodiscard]] const std::vector<std::unique_ptr<ProcessStream>>& processes()
      const {
    return processes_;
  }

  /// True when every process has completed its pattern.
  [[nodiscard]] bool all_finished() const;

  /// True when every process of `job` has completed (vacuously for a job
  /// with no processes).
  [[nodiscard]] bool job_finished(JobId job) const;

  /// Latest finish time across processes of `job`; SimTime::zero() if the
  /// job has no finished process yet.
  [[nodiscard]] SimTime job_finish_time(JobId job) const;

 private:
  void route_completion(const RpcCompletion& completion);

  /// Calls fn(process) for every process of `job`; the per-job chains
  /// below make that O(processes of the job).
  template <typename Fn>
  void for_each_process_of(JobId job, Fn&& fn) const;

  Simulator& sim_;
  SimDuration response_latency_{0};
  std::vector<std::unique_ptr<ProcessStream>> processes_;  ///< By route.
  JobSlots job_slots_;
  /// By job slot: the job's most recently added process (its route).
  std::vector<std::uint32_t> last_of_job_;
  /// By route: the previously added process of the same job, or kNone.
  std::vector<std::uint32_t> previous_of_job_;
  std::uint64_t next_rpc_id_ = 1;
};

}  // namespace adaptbf
