#include "adaptbf/rule_daemon.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"
#include "support/log.h"

namespace adaptbf {

RuleDaemon::RuleDaemon(TbfScheduler& scheduler, RuleDaemonConfig config)
    : scheduler_(scheduler), config_(std::move(config)) {
  ADAPTBF_CHECK(config_.min_rate >= 0.0);
  ADAPTBF_CHECK(config_.depth >= 1.0);
}

std::string RuleDaemon::rule_name(JobId job) const {
  return config_.rule_prefix + std::to_string(job.value());
}

namespace {
/// Lower rank = served preferentially on deadline ties. Priority in (0,1].
std::int32_t rank_from_priority(double priority) {
  return -static_cast<std::int32_t>(std::llround(priority * 1'000'000.0));
}
}  // namespace

RuleDaemon::JobRule& RuleDaemon::job_rule(JobId job) {
  const std::uint32_t slot = slots_.insert(job);
  if (slot == rules_.size()) {
    JobRule& rule = rules_.emplace_back();
    rule.spec.name = rule_name(job);
    rule.spec.matcher = RpcMatcher::for_job(job);
    rule.spec.depth = config_.depth;
  }
  return rules_[slot];
}

void RuleDaemon::apply(const WindowResult& window, SimTime now) {
  ++window_;
  for (const auto& j : window.jobs) job_rule(j.job).desired_window = window_;

  // Stop rules for jobs absent from this window's active set.
  std::size_t kept = 0;
  for (const std::uint32_t slot : owned_) {
    JobRule& rule = rules_[slot];
    if (!scheduler_.is_active(rule.id)) {  // stopped by someone else
      rule.owned = false;
      continue;
    }
    // A job with no arrivals this window but RPCs still queued is merely
    // throttled, not gone: stopping its rule would release the backlog
    // unthrottled through the fallback path and invert the priorities the
    // rule exists to enforce. Keep the rule (at its last rate) until the
    // queue drains.
    if (rule.desired_window == window_ ||
        scheduler_.queue_backlog(slots_.job(slot)) > 0) {
      owned_[kept++] = slot;
      continue;
    }
    scheduler_.stop_rule(rule.id, now);
    rule.owned = false;
    ++stopped_;
    ADAPTBF_LOG_INFO("rule-daemon", "stopped %s (job inactive)",
                     rule.spec.name.c_str());
  }
  owned_.resize(kept);

  // Start or re-rate a rule per active job.
  for (const auto& j : window.jobs) {
    const std::uint32_t slot = slots_.find(j.job);
    JobRule& rule = rules_[slot];
    const double rate = std::max(config_.min_rate, j.rate);
    const std::int32_t rank = rank_from_priority(j.priority);
    // A rule of this name may exist without this daemon having started it.
    if (rule.id == TbfScheduler::kNoRule)
      rule.id = scheduler_.find_rule(rule.spec.name);
    if (scheduler_.is_active(rule.id)) {
      scheduler_.change_rule(rule.id, rate, rank, now);
      ++changed_;
    } else {
      rule.spec.rate = rate;
      rule.spec.rank = rank;
      rule.id = scheduler_.start_rule(rule.spec);
      if (!rule.owned) {
        rule.owned = true;
        owned_.push_back(slot);
      }
      ++started_;
      ADAPTBF_LOG_INFO("rule-daemon", "started %s rate=%.1f rank=%d",
                       rule.spec.name.c_str(), rate, rank);
    }
  }
}

}  // namespace adaptbf
