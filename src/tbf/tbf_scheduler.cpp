#include "tbf/tbf_scheduler.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/log.h"

namespace adaptbf {

TbfScheduler::TbfScheduler(Config config) : config_(config) {
  ADAPTBF_CHECK(config_.default_depth >= 1.0);
}

TbfScheduler::RuleId TbfScheduler::start_rule(const RuleSpec& spec) {
  ADAPTBF_CHECK_MSG(!spec.name.empty(), "rule name must be non-empty");
  const auto [named, first_start] = rules_by_name_.try_emplace(
      spec.name, static_cast<RuleId>(rules_.size()));
  const RuleId id = named->second;
  ADAPTBF_CHECK_MSG(first_start || !rules_[id].active, "duplicate rule name");
  ADAPTBF_CHECK_MSG(spec.rate >= 0.0, "rule rate must be non-negative");
  ADAPTBF_CHECK_MSG(spec.depth >= 1.0, "rule depth must admit one RPC");
  if (first_start) rules_.emplace_back();
  Rule& rule = rules_[id];
  rule.spec = spec;  // a restart reuses the stopped rule's storage
  rule.stats = RuleStats{};
  rule.start_seq = ++start_counter_;
  rule.active = true;
  if (spec.matcher.is_job_only()) {
    for (JobId job : spec.matcher.jobs()) {
      auto& index = classes_[job_slot(job)].exact_rules;
      if (std::find(index.begin(), index.end(), id) == index.end())
        index.push_back(id);
    }
  } else {
    residual_rules_.push_back(id);
  }
  if (log_level() <= LogLevel::kDebug) {
    ADAPTBF_LOG_DEBUG("tbf", "start rule '%s' (%s) rate=%.2f rank=%d",
                      spec.name.c_str(), spec.matcher.to_string().c_str(),
                      spec.rate, spec.rank);
  }
  return id;
}

TbfScheduler::RuleId TbfScheduler::find_rule(const std::string& name) const {
  auto it = rules_by_name_.find(name);
  return it == rules_by_name_.end() ? kNoRule : it->second;
}

bool TbfScheduler::change_rule(const std::string& name, double new_rate,
                               std::int32_t new_rank, SimTime now) {
  return change_rule(find_rule(name), new_rate, new_rank, now);
}

bool TbfScheduler::change_rule(RuleId id, double new_rate,
                               std::int32_t new_rank, SimTime now) {
  ADAPTBF_CHECK(new_rate >= 0.0);
  if (!is_active(id)) return false;
  Rule& rule = rules_[id];
  rule.spec.rate = new_rate;
  rule.spec.rank = new_rank;
  ++rule.stats.rate_changes;
  for (JobSlot slot : rule.bound) {
    JobClass& job = classes_[slot];
    job.bucket.set_rate(new_rate, now);
    job.rank = new_rank;
    if (!job.rpcs.empty()) push_deadline(slot, now);
  }
  return true;
}

bool TbfScheduler::stop_rule(const std::string& name, SimTime now) {
  return stop_rule(find_rule(name), now);
}

bool TbfScheduler::stop_rule(RuleId id, SimTime /*now*/) {
  if (!is_active(id)) return false;
  Rule& rule = rules_[id];
  // Queues bound to the stopped rule drain through the fallback path:
  // their pending RPCs keep FIFO order within each queue and are appended
  // in ascending JobId order across queues (deterministic).
  std::sort(rule.bound.begin(), rule.bound.end(),
            [this](JobSlot a, JobSlot b) {
              return slots_.job(a) < slots_.job(b);
            });
  for (JobSlot slot : rule.bound) {
    JobClass& job = classes_[slot];
    for (std::size_t i = 0; i < job.rpcs.size(); ++i)
      fallback_.push_back({arrival_counter_++, job.rpcs[i]});
    job.rpcs.clear();
    job.rule = kNoRule;
    remove_from_heap(slot);
  }
  rule.bound.clear();
  rule.active = false;
  if (rule.spec.matcher.is_job_only()) {
    for (JobId job : rule.spec.matcher.jobs())
      std::erase(classes_[slots_.find(job)].exact_rules, id);
  } else {
    std::erase(residual_rules_, id);
  }
  ADAPTBF_LOG_DEBUG("tbf", "stop rule '%s'", rule.spec.name.c_str());
  return true;
}

std::vector<std::string> TbfScheduler::active_rules() const {
  std::vector<const Rule*> active;
  for (const Rule& rule : rules_)
    if (rule.active) active.push_back(&rule);
  std::sort(active.begin(), active.end(), [](const Rule* a, const Rule* b) {
    return a->start_seq < b->start_seq;
  });
  std::vector<std::string> names;
  names.reserve(active.size());
  for (const Rule* rule : active) names.push_back(rule->spec.name);
  return names;
}

const RuleStats* TbfScheduler::rule_stats(const std::string& name) const {
  const RuleId id = find_rule(name);
  return is_active(id) ? &rules_[id].stats : nullptr;
}

TbfScheduler::JobSlot TbfScheduler::job_slot(JobId job) {
  const JobSlot slot = slots_.insert(job);
  if (slot == classes_.size()) classes_.emplace_back();
  return slot;
}

TbfScheduler::RuleId TbfScheduler::classify(const Rpc& rpc,
                                            JobSlot slot) const {
  // Same choice as scanning every active rule in start order and keeping
  // the first with the strictly lowest rank: the minimum (rank, start_seq)
  // over the matching rules, which are the job's indexed rules plus the
  // matching residual ones.
  RuleId best = kNoRule;
  auto consider = [&](RuleId id) {
    if (best != kNoRule) {
      const Rule& a = rules_[id];
      const Rule& b = rules_[best];
      if (a.spec.rank > b.spec.rank ||
          (a.spec.rank == b.spec.rank && a.start_seq > b.start_seq))
        return;
    }
    best = id;
  };
  for (RuleId id : classes_[slot].exact_rules) consider(id);
  for (RuleId id : residual_rules_)
    if (rules_[id].spec.matcher.matches(rpc)) consider(id);
  return best;
}

void TbfScheduler::push_deadline(JobSlot slot, SimTime now) {
  JobClass& job = classes_[slot];
  const HeapEntry entry{job.bucket.time_for_tokens(1.0, now),
                        arrival_counter_++, job.rank, slot};
  if (job.heap_pos == kNotInHeap) {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  } else {
    // Re-keying in place equals dropping the old entry and pushing this
    // one: the order is total, so the heap's minimum is the same.
    replace(job.heap_pos, entry);
  }
}

void TbfScheduler::remove_from_heap(JobSlot slot) {
  const std::uint32_t pos = classes_[slot].heap_pos;
  if (pos == kNotInHeap) return;
  classes_[slot].heap_pos = kNotInHeap;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) replace(pos, last);
}

void TbfScheduler::replace(std::size_t pos, const HeapEntry& entry) {
  const bool earlier = entry < heap_[pos];
  place(pos, entry);
  if (earlier) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void TbfScheduler::place(std::size_t pos, const HeapEntry& entry) {
  heap_[pos] = entry;
  classes_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void TbfScheduler::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(entry < heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void TbfScheduler::sift_down(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::size_t size = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < entry)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, entry);
}

void TbfScheduler::enqueue(const Rpc& rpc, SimTime now) {
  const JobSlot slot = job_slot(rpc.job);
  const RuleId id = classify(rpc, slot);
  if (id == kNoRule) {
    fallback_.push_back({arrival_counter_++, rpc});
    ++backlog_;
    return;
  }
  Rule& rule = rules_[id];
  ++rule.stats.arrived;
  JobClass& job = classes_[slot];
  bool reschedule = job.rpcs.empty();
  if (job.rule != id) {
    if (job.rule != kNoRule) {
      // The job's best-matching rule changed (rule stopped+restarted, or a
      // higher-rank rule now matches). Rebind: keep pending RPCs, adopt the
      // new rule's rate/rank with a fresh bucket.
      std::erase(rules_[job.rule].bound, slot);
      reschedule = true;
    }
    rule.bound.push_back(slot);
    job.rule = id;
    job.rank = rule.spec.rank;
    job.bucket = TokenBucket(rule.spec.rate, rule.spec.depth, now,
                             config_.start_full ? rule.spec.depth : 0.0);
  }
  job.rpcs.push_back(rpc);
  ++backlog_;
  if (reschedule) push_deadline(slot, now);
}

std::optional<Rpc> TbfScheduler::dequeue(SimTime now) {
  while (true) {
    const bool rule_due = !heap_.empty() && heap_.front().deadline <= now;
    // Fallback competes with due rule queues in arrival order; it wins
    // outright when no rule queue is due.
    if (!fallback_.empty() &&
        (!rule_due || fallback_.front().first < heap_.front().arrival_seq)) {
      Rpc rpc = fallback_.front().second;
      fallback_.pop_front();
      --backlog_;
      return rpc;
    }
    if (!rule_due) return std::nullopt;
    const JobSlot slot = heap_.front().slot;
    JobClass& job = classes_[slot];
    ADAPTBF_CHECK(!job.rpcs.empty());
    if (job.bucket.try_consume(1.0, now)) {
      Rpc rpc = job.rpcs.front();
      job.rpcs.pop_front();
      --backlog_;
      ++rules_[job.rule].stats.served;
      if (!job.rpcs.empty()) {
        push_deadline(slot, now);
      } else {
        remove_from_heap(slot);  // no entry while the queue is empty
      }
      return rpc;
    }
    // Deadline was computed under an older (higher) rate; recompute. The
    // new deadline is strictly in the future, so this cannot loop.
    push_deadline(slot, now);
  }
}

SimTime TbfScheduler::next_ready_time(SimTime now) {
  if (!fallback_.empty()) return now;
  return heap_.empty() ? SimTime::max() : std::max(now, heap_.front().deadline);
}

double TbfScheduler::queue_tokens(JobId job, SimTime now) {
  const JobSlot slot = slots_.find(job);
  if (slot == JobSlots::kNone || classes_[slot].rule == kNoRule) return 0.0;
  return classes_[slot].bucket.tokens(now);
}

std::size_t TbfScheduler::queue_backlog(JobId job) const {
  const JobSlot slot = slots_.find(job);
  return slot == JobSlots::kNone ? 0 : classes_[slot].rpcs.size();
}

}  // namespace adaptbf
