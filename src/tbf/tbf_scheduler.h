// NRS-TBF: classful token-bucket-filter request scheduler.
//
// Faithful model of the Lustre Network Request Scheduler TBF policy
// (Qian et al., SC'17; Fig. 1 of the AdapTBF paper):
//
//  * An ordered rule list classifies arriving RPCs; the first matching rule
//    wins. Rules can be started, changed (re-rated) and stopped at runtime.
//  * Each (rule, classification-key) pair owns a queue with a token bucket.
//    RPCs within a queue are FCFS and dequeue only when a token is held.
//  * Queues carry a deadline — the time at which they will next hold a
//    token — and the scheduler serves the queue with the earliest deadline
//    (an indexed binary heap holding each non-empty queue once). Ties break
//    by rule rank (AdapTBF's priority hierarchy, §III-D), then by when the
//    deadline was last set.
//  * RPCs matching no rule land in the fallback queue, which has no token
//    limit and is served whenever no rule queue is eligible, so unclassified
//    jobs never starve (§III-D).
//
// Classification key: this reproduction keys queues by JobID (the paper sets
// `jobid_var=nodelocal`), so one queue exists per (rule, job) pair.
//
// Per-RPC cost does not grow with the number of jobs or rules (§IV-G's
// O(n)-in-jobs scaling): each job gets a dense slot on first sight, its
// class queue lives in a slab indexed by that slot, and rules whose
// matcher names JobIDs only are indexed by job. Classification reads the
// arriving job's index entry plus the short residual list of nid, opcode,
// mixed and wildcard rules. Rules are recycled by name: a stopped rule's
// storage (and its RuleId) is reused when the same name starts again.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/job_slots.h"
#include "support/ring_queue.h"
#include "tbf/rule.h"
#include "tbf/scheduler.h"
#include "tbf/token_bucket.h"

namespace adaptbf {

class TbfScheduler final : public RequestScheduler {
 public:
  struct Config {
    /// Bucket depth for queues whose rule does not override it.
    double default_depth = 3.0;
    /// New queues start with a full bucket (Lustre behaviour: the first
    /// burst up to `depth` RPCs passes immediately).
    bool start_full = true;
  };

  TbfScheduler() : TbfScheduler(Config{}) {}
  explicit TbfScheduler(Config config);

  // --- Rule management (what AdapTBF's Rule Management Daemon drives) ---

  /// Names a rule for the scheduler's lifetime: the id a name gets at its
  /// first start stays valid across stops and restarts of that name, so a
  /// caller that drives the same rules every window resolves each name
  /// once.
  using RuleId = std::uint32_t;
  static constexpr RuleId kNoRule = UINT32_MAX;

  /// Starts a rule. Name must be unique among active rules. Existing queued
  /// RPCs are NOT reclassified (matches Lustre: classification happens at
  /// arrival), but new arrivals see the rule immediately.
  RuleId start_rule(const RuleSpec& spec);

  /// Changes the token rate (and rank) of an active rule; all queues bound
  /// to it pick up the new rate at `now`, keeping their accrued tokens.
  /// Returns false if no such rule.
  bool change_rule(const std::string& name, double new_rate,
                   std::int32_t new_rank, SimTime now);
  bool change_rule(RuleId id, double new_rate, std::int32_t new_rank,
                   SimTime now);

  /// Stops a rule. Its queues drain without further token limits (they are
  /// folded into the fallback path), and new arrivals are reclassified.
  /// Returns false if no such rule.
  bool stop_rule(const std::string& name, SimTime now);
  bool stop_rule(RuleId id, SimTime now);

  /// Id of the rule named `name` (active or stopped), kNoRule if that name
  /// was never started.
  [[nodiscard]] RuleId find_rule(const std::string& name) const;
  [[nodiscard]] bool is_active(RuleId id) const {
    return id < rules_.size() && rules_[id].active;
  }
  [[nodiscard]] bool has_rule(const std::string& name) const {
    return is_active(find_rule(name));
  }
  [[nodiscard]] std::vector<std::string> active_rules() const;
  [[nodiscard]] const RuleStats* rule_stats(const std::string& name) const;

  // --- RequestScheduler interface ---

  void enqueue(const Rpc& rpc, SimTime now) override;
  std::optional<Rpc> dequeue(SimTime now) override;
  SimTime next_ready_time(SimTime now) override;
  [[nodiscard]] std::size_t backlog() const override { return backlog_; }

  /// RPCs waiting in the fallback (unclassified) queue.
  [[nodiscard]] std::size_t fallback_backlog() const {
    return fallback_.size();
  }

  /// Tokens currently held by job `job`'s queue (testing aid).
  [[nodiscard]] double queue_tokens(JobId job, SimTime now);

  /// RPCs waiting in job `job`'s rule-bound queue (0 if it has none).
  /// The rule daemon uses this to avoid stopping rules that still gate
  /// queued work — stopping such a rule would release the backlog
  /// unthrottled through the fallback path.
  [[nodiscard]] std::size_t queue_backlog(JobId job) const;

 private:
  using JobSlot = std::uint32_t;
  static constexpr std::uint32_t kNotInHeap = UINT32_MAX;

  struct Rule {
    RuleSpec spec;
    RuleStats stats;
    std::uint64_t start_seq = 0;  ///< Start order; breaks rank ties.
    bool active = false;
    /// Slots of the jobs whose queue is bound to this rule, in bind order.
    /// Rule changes and stops touch exactly these queues (O(bound) instead
    /// of a scan over every queue).
    std::vector<JobSlot> bound;
  };

  /// Everything the scheduler keeps per job slot.
  struct JobClass {
    /// Rule the job's queue is bound to; kNoRule = the job has no queue.
    RuleId rule = kNoRule;
    TokenBucket bucket{0.0, 1.0, SimTime::zero(), 0.0};
    RingQueue<Rpc> rpcs;
    std::int32_t rank = 0;
    /// Index of the queue's entry in heap_; kNotInHeap when it has none,
    /// which is exactly when the queue is empty.
    std::uint32_t heap_pos = kNotInHeap;
    /// Active job-only rules that list this job (the exact-job index).
    std::vector<RuleId> exact_rules;
  };

  struct HeapEntry {
    SimTime deadline;
    std::uint64_t arrival_seq;  ///< Unique: the order is total.
    std::int32_t rank;
    JobSlot slot;
    bool operator<(const HeapEntry& o) const {
      if (deadline != o.deadline) return deadline < o.deadline;
      if (rank != o.rank) return rank < o.rank;
      return arrival_seq < o.arrival_seq;
    }
  };

  /// Slot of `job`, creating its (queue-less) entry on first sight.
  JobSlot job_slot(JobId job);

  /// The active rule matching `rpc` with the lowest rank, the earliest
  /// started among equal ranks; kNoRule if none matches.
  RuleId classify(const Rpc& rpc, JobSlot slot) const;

  /// Recomputes the deadline of a non-empty queue and (re)positions its
  /// heap entry, with a fresh arrival sequence number.
  void push_deadline(JobSlot slot, SimTime now);
  /// Drops the queue's heap entry, if any.
  void remove_from_heap(JobSlot slot);
  /// Heap primitives; they keep JobClass::heap_pos in step.
  void replace(std::size_t pos, const HeapEntry& entry);
  void place(std::size_t pos, const HeapEntry& entry);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  Config config_;
  std::vector<Rule> rules_;  ///< By RuleId; a name keeps its id.
  std::unordered_map<std::string, RuleId> rules_by_name_;
  /// Active rules that are not job-only, in start order. Scanned on every
  /// arrival, so it stays short in AdapTBF's one-rule-per-job setting.
  std::vector<RuleId> residual_rules_;
  JobSlots slots_;
  std::vector<JobClass> classes_;  ///< By job slot.
  /// Unclassified RPCs, tagged with their arrival sequence. The fallback
  /// competes FIFO-fairly with *due* rule queues (older head first) rather
  /// than only running when every rule queue is token-blocked — matching
  /// Lustre, where the default/fallback queue participates in scheduling.
  /// Otherwise a saturated rule set (Σ rates ≈ device rate) would starve
  /// fallback RPCs forever, deadlocking closed-loop clients.
  RingQueue<std::pair<std::uint64_t, Rpc>> fallback_;
  std::vector<HeapEntry> heap_;  ///< Binary min-heap, one entry per queue.
  std::size_t backlog_ = 0;
  std::uint64_t arrival_counter_ = 0;
  std::uint64_t start_counter_ = 0;
};

}  // namespace adaptbf
