// One application process issuing I/O to an OST in a closed loop.
//
// Filebench-style: each process writes its own file (file-per-process,
// §IV-D) as a stream of fixed-size bulk RPCs. The process keeps at most
// `max_inflight` RPCs outstanding — Lustre clients bound RPCs-in-flight per
// OSC — so throttling at the server back-pressures the client naturally,
// which is what makes TBF rate limits visible end-to-end.
#pragma once

#include <cstdint>
#include <memory>

#include "client/io_pattern.h"
#include "ost/ost.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"

namespace adaptbf {

class ProcessStream {
 public:
  struct Config {
    JobId job;
    Nid nid;                       ///< Client node this process runs on.
    std::uint32_t process_index = 0;
    std::uint32_t rpc_size_bytes = 1024 * 1024;  ///< 1 MiB bulk default.
    Opcode opcode = Opcode::kOstWrite;
    Locality locality = Locality::kSequential;
    std::uint32_t max_inflight = 8;  ///< Lustre default max_rpcs_in_flight.
    /// One-way client -> server network latency. An issued RPC reaches the
    /// OST this much later; the in-flight slot is held from issue time, so
    /// a small window over a long link caps throughput at the classic
    /// bandwidth-delay product.
    SimDuration network_latency{0};
  };

  /// `next_rpc_id` is the counter handing out globally unique RPC ids,
  /// shared by every process of one ClientSystem; `route` is stamped on
  /// every RPC this process issues (see Rpc::route).
  ProcessStream(Simulator& sim, Ost& ost, Config config,
                std::unique_ptr<IoPattern> pattern,
                std::uint64_t& next_rpc_id, std::uint32_t route);

  /// Starts the pattern's release schedule. Call once before sim runs.
  void start();

  /// Called by the owning ClientSystem when one of this process's RPCs
  /// completes at the server.
  void on_completion(const RpcCompletion& completion);

  [[nodiscard]] bool finished() const {
    return completed_ == pattern_total_;
  }
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t inflight() const { return inflight_; }
  [[nodiscard]] const Config& config() const { return config_; }
  /// Time the final completion arrived (valid once finished()).
  [[nodiscard]] SimTime finish_time() const { return finish_time_; }

 private:
  void schedule_next_release();
  void issue_available();

  Simulator& sim_;
  Ost& ost_;
  Config config_;
  std::unique_ptr<IoPattern> pattern_;
  std::uint64_t& next_rpc_id_;
  std::uint32_t route_;
  std::uint64_t pattern_total_ = 0;
  std::uint64_t available_ = 0;  ///< Released by the pattern, not yet issued.
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t inflight_ = 0;
  SimTime finish_time_;
};

}  // namespace adaptbf
