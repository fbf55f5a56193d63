// Processor-sharing device engine.
//
// Models the OST's backing device as a single resource of fixed bandwidth
// shared equally among all in-service transfers (egalitarian processor
// sharing) — the standard fluid approximation for concurrent bulk I/O on a
// shared SSD. Progress is integrated lazily between events; one pending
// completion event is kept armed for the transfer that will finish first.
// Deterministic: ties complete in admission order.
//
// A completion event arms its successor once, after every callback of its
// completion cohort has run, not once per admission those callbacks make.
// It schedules under the sequence number the last per-admission arm would
// have taken (see Simulator::reserve_seq), so the dispatch stream is the
// same as re-arming on every admission.
//
// Active transfers sit in a flat array in admission order (the device holds
// at most one per I/O thread), and every completion goes to one sink given
// at construction, so admitting and completing a transfer allocates nothing
// once the arrays have reached the OST's thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"

namespace adaptbf {

class PsDisk {
 public:
  using DoneFn = std::function<void(std::uint64_t tag)>;

  /// `bandwidth` in work-bytes/second (see DiskModel::work_bytes); `done`
  /// is called with a transfer's tag when it completes.
  PsDisk(Simulator& sim, double bandwidth, DoneFn done);

  /// Admits a transfer of `work_bytes` (> 0). `tag` must be unique among
  /// active transfers.
  void admit(std::uint64_t tag, double work_bytes);

  [[nodiscard]] std::size_t active() const { return active_.size(); }
  [[nodiscard]] double bandwidth() const { return bandwidth_; }

  /// Total work-bytes completed since construction (monotonic).
  [[nodiscard]] double work_completed() const { return work_completed_; }

 private:
  struct Transfer {
    std::uint64_t tag;
    double remaining;
  };

  /// Integrates progress from last_update_ to now.
  void advance_to(SimTime now);
  /// Time until the earliest-finishing active transfer completes.
  [[nodiscard]] SimDuration completion_wait() const;
  void on_completion();

  Simulator& sim_;
  double bandwidth_;
  DoneFn done_;
  double work_completed_ = 0.0;
  std::vector<Transfer> active_;  ///< Admission order.
  /// Tags finishing in the current completion event (reused scratch).
  std::vector<std::uint64_t> finished_;
  SimTime last_update_;
  /// Armed completion event; stale (and safely cancellable) once fired.
  EventHandle pending_event_;
  /// True while on_completion() runs its callbacks: admissions then only
  /// reserve a sequence number, and the cohort arms once at the end.
  bool completing_ = false;
  /// Latest sequence number reserved during the current completion.
  std::uint64_t reserved_seq_ = 0;
};

}  // namespace adaptbf
