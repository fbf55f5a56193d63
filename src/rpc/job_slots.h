// Dense per-job slots: the index behind every per-job table on the RPC path.
//
// Hands out slots 0, 1, 2, ... to JobIds in first-seen order, so per-job
// state lives in plain vectors indexed by slot instead of node-based maps.
// The JobId -> slot lookup is one multiplicative hash into an
// open-addressing table (linear probing, at most half full), one load and
// one compare in the common case. Slots are never released; the tables
// grow to the number of distinct jobs a component has seen.
//
// Output that folds over jobs must not depend on first-seen order, so the
// slots are also kept in ascending JobId order (ascending()).
#pragma once

#include <cstdint>
#include <vector>

#include "rpc/rpc.h"

namespace adaptbf {

class JobSlots {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Slot of `job`, or kNone if it has none.
  [[nodiscard]] std::uint32_t find(JobId job) const {
    if (table_.empty()) return kNone;
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = bucket(job);; i = (i + 1) & mask) {
      const std::uint32_t entry = table_[i];
      if (entry == 0) return kNone;
      if (jobs_[entry - 1] == job) return entry - 1;
    }
  }

  /// Slot of `job`, assigning the next free one (== size() before the
  /// call) on first sight. The hit path is find() inline; only a job's
  /// first sight takes the out-of-line call.
  std::uint32_t insert(JobId job) {
    const std::uint32_t slot = find(job);
    return slot != kNone ? slot : insert_new(job);
  }

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] JobId job(std::uint32_t slot) const { return jobs_[slot]; }

  /// Every slot, in ascending JobId order.
  [[nodiscard]] const std::vector<std::uint32_t>& ascending() const {
    return ascending_;
  }

 private:
  [[nodiscard]] std::size_t bucket(JobId job) const {
    return static_cast<std::size_t>(
        (job.value() * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  /// insert() for a job find() did not see.
  std::uint32_t insert_new(JobId job);
  void rehash(std::size_t capacity);

  std::vector<std::uint32_t> table_;  ///< slot + 1; 0 = empty
  std::vector<JobId> jobs_;           ///< slot -> JobId
  std::vector<std::uint32_t> ascending_;
  unsigned shift_ = 64;
};

}  // namespace adaptbf
