// Per-job I/O statistics tracker — the simulator's `lustre job_stats`.
//
// AdapTBF's System Stats Controller samples this every observation window to
// learn each job's I/O demand d (eq. 3: RPCs issued to the target during the
// window) and clears it afterwards (§III-B, steps 1 and 9 in Fig. 2).
// Cumulative counters are kept separately for end-of-run reporting.
//
// Both live in one flat array indexed by the job's dense slot, so an RPC
// costs one slot lookup and clearing a window zeroes counters in place
// instead of freeing entries the next window allocates again.
#pragma once

#include <cstdint>
#include <vector>

#include "rpc/job_slots.h"
#include "rpc/rpc.h"

namespace adaptbf {

struct JobWindowStats {
  JobId job;
  std::uint64_t rpcs = 0;   ///< RPCs issued during the window (demand d).
  std::uint64_t bytes = 0;  ///< Payload bytes issued during the window.
};

struct JobCumulativeStats {
  std::uint64_t rpcs_issued = 0;
  std::uint64_t rpcs_completed = 0;
  std::uint64_t bytes_issued = 0;
  std::uint64_t bytes_completed = 0;
};

class JobStatsTracker {
 public:
  /// Called by the OST on RPC arrival.
  void record_arrival(const Rpc& rpc);

  /// Called by the OST on RPC completion.
  void record_completion(const Rpc& rpc);

  /// Jobs active in the current window (>= 1 RPC arrival), in ascending
  /// JobId order for determinism. Does not clear.
  [[nodiscard]] std::vector<JobWindowStats> window_snapshot() const;
  /// The same, into `out` (cleared first), reusing its storage.
  void window_snapshot(std::vector<JobWindowStats>& out) const;

  /// Clears the window counters (the controller's step 9).
  void clear_window();

  [[nodiscard]] const JobCumulativeStats* cumulative(JobId job) const;
  [[nodiscard]] std::vector<JobId> jobs_ever_seen() const;

 private:
  struct Entry {
    JobWindowStats window;
    JobCumulativeStats cumulative;
  };
  Entry& entry(JobId job);

  JobSlots slots_;
  std::vector<Entry> entries_;  ///< By job slot.
};

}  // namespace adaptbf
