#include "ost/ps_disk.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/check.h"

namespace adaptbf {

namespace {
// Transfers within this many work-bytes of done are considered complete;
// absorbs float drift from repeated progress integration.
constexpr double kCompletionSlack = 1e-3;
}  // namespace

PsDisk::PsDisk(Simulator& sim, double bandwidth, DoneFn done)
    : sim_(sim),
      bandwidth_(bandwidth),
      done_(std::move(done)),
      last_update_(sim.now()) {
  ADAPTBF_CHECK_MSG(bandwidth > 0.0, "disk bandwidth must be positive");
  ADAPTBF_CHECK(done_ != nullptr);
}

void PsDisk::advance_to(SimTime now) {
  ADAPTBF_CHECK(now >= last_update_);
  if (!active_.empty() && now > last_update_) {
    const double share = bandwidth_ * (now - last_update_).to_seconds() /
                         static_cast<double>(active_.size());
    for (Transfer& transfer : active_) {
      const double progressed = std::min(transfer.remaining, share);
      transfer.remaining -= progressed;
      work_completed_ += progressed;
    }
  }
  last_update_ = now;
}

SimDuration PsDisk::completion_wait() const {
  double min_remaining = active_.front().remaining;
  for (const Transfer& transfer : active_)
    min_remaining = std::min(min_remaining, transfer.remaining);
  const double wait_sec = std::max(0.0, min_remaining) *
                          static_cast<double>(active_.size()) / bandwidth_;
  return SimDuration(static_cast<std::int64_t>(std::ceil(wait_sec * 1e9)));
}

void PsDisk::on_completion() {
  advance_to(sim_.now());
  // Collect everything done, in admission order (ties resolve that way),
  // and close the gaps they leave.
  finished_.clear();
  std::size_t kept = 0;
  for (const Transfer& transfer : active_) {
    if (transfer.remaining <= kCompletionSlack) {
      work_completed_ += transfer.remaining;  // count the slack
      finished_.push_back(transfer.tag);
    } else {
      active_[kept++] = transfer;
    }
  }
  active_.resize(kept);
  // Arm once for the whole cohort, after its callbacks. Reserve where a
  // re-arm per admission would have scheduled: here if work remains, and
  // in every admit() the callbacks make. The last reservation is the one
  // that arm would have kept; nothing is dispatched before the schedule
  // below and only admissions change active_, so the event gets exactly
  // that arm's (time, seq) key. Callbacks never complete transfers
  // synchronously, so finished_ is stable here.
  if (!active_.empty()) reserved_seq_ = sim_.reserve_seq();
  completing_ = true;
  for (std::uint64_t tag : finished_) done_(tag);
  completing_ = false;
  if (active_.empty()) return;
  pending_event_ = sim_.schedule_after_reserved(
      completion_wait(), reserved_seq_, [this] { on_completion(); });
}

void PsDisk::admit(std::uint64_t tag, double work_bytes) {
  ADAPTBF_CHECK_MSG(work_bytes > 0.0, "transfer work must be positive");
  ADAPTBF_CHECK_MSG(
      std::none_of(active_.begin(), active_.end(),
                   [tag](const Transfer& t) { return t.tag == tag; }),
      "duplicate active transfer tag");
  advance_to(sim_.now());
  active_.push_back(Transfer{tag, work_bytes});
  if (completing_) {
    reserved_seq_ = sim_.reserve_seq();
    return;
  }
  sim_.cancel(pending_event_);  // no-op when unarmed or already fired
  pending_event_ =
      sim_.schedule_after(completion_wait(), [this] { on_completion(); });
}

}  // namespace adaptbf
