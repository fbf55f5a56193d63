#include "adaptbf/token_allocator.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace adaptbf {

TokenAllocator::TokenAllocator(AllocatorConfig config) : config_(config) {
  ADAPTBF_CHECK_MSG(config_.total_rate > 0.0, "T_i must be positive");
  ADAPTBF_CHECK_MSG(config_.dt > SimDuration(0), "Δt must be positive");
  ADAPTBF_CHECK(config_.deficit_saturation > 1.0);
  ADAPTBF_CHECK_MSG(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0,
                    "ewma_alpha must be in (0, 1]");
}

void TokenAllocator::bind_states() {
  // Both sides ascend by JobId. New jobs' states are appended and merged
  // into place (which allocates only when new jobs arrive), then one walk
  // pairs every input with its state.
  auto by_job = [](const JobState& a, const JobState& b) {
    return a.job < b.job;
  };
  const std::size_t tracked = state_.size();
  std::size_t s = 0;
  for (const auto& input : inputs_) {
    while (s < tracked && state_[s].job < input.job) ++s;
    if (s == tracked || state_[s].job != input.job) {
      JobState fresh;
      fresh.job = input.job;
      state_.push_back(fresh);
    }
  }
  std::inplace_merge(state_.begin(),
                     state_.begin() + static_cast<std::ptrdiff_t>(tracked),
                     state_.end(), by_job);
  input_state_.clear();
  s = 0;
  for (const auto& input : inputs_) {
    while (state_[s].job < input.job) ++s;
    input_state_.push_back(s);
  }
}

const TokenAllocator::JobState* TokenAllocator::find_state(JobId job) const {
  auto it = std::lower_bound(
      state_.begin(), state_.end(), job,
      [](const JobState& st, JobId key) { return st.job < key; });
  return it == state_.end() || it->job != job ? nullptr : &*it;
}

WindowResult TokenAllocator::allocate(std::span<const JobWindowInput> active,
                                      SimTime now) {
  WindowResult result;
  result.when = now;
  result.total_tokens = config_.total_rate * config_.dt.to_seconds();
  if (active.empty()) return result;

  // Sort by JobId and validate inputs.
  inputs_.assign(active.begin(), active.end());
  std::sort(inputs_.begin(), inputs_.end(),
            [](const auto& a, const auto& b) { return a.job < b.job; });
  std::uint64_t sum_nodes = 0;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const auto& input = inputs_[i];
    ADAPTBF_CHECK_MSG(input.nodes > 0, "job must hold >= 1 compute node");
    ADAPTBF_CHECK_MSG(input.demand >= 0.0, "demand must be non-negative");
    ADAPTBF_CHECK_MSG(i == 0 || inputs_[i - 1].job != input.job,
                      "duplicate JobId in window input");
    sum_nodes += input.nodes;
  }
  bind_states();

  const double dt_sec = config_.dt.to_seconds();
  const std::size_t n = inputs_.size();
  result.jobs.resize(n);
  auto state_of = [this](std::size_t i) -> JobState& {
    return state_[input_state_[i]];
  };

  // ---- Step 1: priority-based initial allocation (eqs. 1-2) ----
  for (std::size_t i = 0; i < n; ++i) {
    const auto& input = inputs_[i];
    JobAllocation& out = result.jobs[i];
    out.job = input.job;
    out.demand = input.demand;
    out.priority = static_cast<double>(input.nodes) /
                   static_cast<double>(sum_nodes);
    out.initial = result.total_tokens * out.priority;

    JobState& st = state_of(i);
    st.last_active = now;
    // Update the future-demand estimate d̄ (eq. 11). Under kLastWindow this
    // is exactly the paper's d̄ = d assumption.
    if (config_.demand_estimator == DemandEstimator::kEwma &&
        st.demand_estimate >= 0.0) {
      st.demand_estimate = config_.ewma_alpha * input.demand +
                           (1.0 - config_.ewma_alpha) * st.demand_estimate;
    } else {
      st.demand_estimate = input.demand;
    }
    // Utilization u = d / α_{t-1} (eq. 3), with the utilization guard of
    // docs/architecture.md "Model deviations": a job never allocated
    // before is neutral (u = 1); a job that had a zero allocation but still
    // shows demand is an unbounded deficit.
    if (st.prev_alloc < 0.0) {
      out.utilization = 1.0;
    } else if (st.prev_alloc == 0.0) {
      out.utilization = input.demand > 0.0 ? config_.deficit_saturation : 0.0;
    } else {
      out.utilization = input.demand / st.prev_alloc;
    }
  }

  // Distribution factor DF (eq. 6), shared by steps 2 and 3 (eq. 18).
  auto distribution_factor = [](const JobAllocation& j) {
    return j.utilization > 1.0 ? j.utilization + j.utilization * j.priority
                               : j.utilization * j.priority;
  };

  // ---- Step 2: redistribution of surplus tokens (eqs. 4-8) ----
  if (config_.enable_redistribution) {
    double surplus_total = 0.0;
    for (auto& j : result.jobs) {
      j.surplus = std::max(0.0, j.initial - j.demand);
      surplus_total += j.surplus;
    }
    double df_sum = 0.0;
    for (const auto& j : result.jobs) df_sum += distribution_factor(j);
    if (surplus_total > 0.0 && df_sum > 0.0) {
      result.surplus_total = surplus_total;
      for (std::size_t i = 0; i < n; ++i) {
        JobAllocation& j = result.jobs[i];
        const double share =
            distribution_factor(j) / df_sum * surplus_total;
        j.after_redistribution = j.initial - j.surplus + share;
        j.record_after_redistribution = state_of(i).record + j.surplus - share;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        JobAllocation& j = result.jobs[i];
        j.surplus = 0.0;
        j.after_redistribution = j.initial;
        j.record_after_redistribution = state_of(i).record;
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      JobAllocation& j = result.jobs[i];
      j.after_redistribution = j.initial;
      j.record_after_redistribution = state_of(i).record;
    }
  }

  // ---- Step 3: re-compensation for borrowed tokens (eqs. 9-20) ----
  for (auto& j : result.jobs) j.after_recompensation = j.after_redistribution;
  if (config_.enable_recompensation) {
    // Membership (eqs. 9-10): sign must agree before AND after
    // redistribution, so a job that flipped sides this window sits out.
    lenders_.clear();    // J_+
    borrowers_.clear();  // J_-
    for (std::size_t i = 0; i < n; ++i) {
      const double r_before = state_of(i).record;
      const double r_rd = result.jobs[i].record_after_redistribution;
      if (r_before > 0.0 && r_rd > 0.0) lenders_.push_back(i);
      if (r_before < 0.0 && r_rd < 0.0) borrowers_.push_back(i);
    }
    if (!lenders_.empty() && !borrowers_.empty()) {
      // Reclaim coefficient C (eq. 13): one scalar for the window, built
      // from the lenders' current/estimated-future utilization and
      // priority, clamped to [0, 1].
      double coefficient = 0.0;
      for (std::size_t i : lenders_) {
        const JobAllocation& j = result.jobs[i];
        const double estimated = state_of(i).demand_estimate;
        const double future_util =  // ū (eqs. 11-12)
            j.after_redistribution > 0.0
                ? estimated / j.after_redistribution
                : config_.deficit_saturation;
        coefficient += (j.priority * std::max(1.0, j.utilization) +
                        std::max(0.0, 1.0 - future_util)) /
                       2.0;
      }
      coefficient = std::clamp(coefficient, 0.0, 1.0);
      result.reclaim_coefficient = coefficient;

      // Reclaim from borrowers (eqs. 14-16), bounded by |r_RD| and by the
      // post-redistribution allocation itself.
      double reclaim_total = 0.0;
      for (std::size_t i : borrowers_) {
        JobAllocation& j = result.jobs[i];
        const double bound = std::abs(j.record_after_redistribution);
        j.reclaimed = std::min(
            bound,
            std::max(0.0, coefficient * j.after_redistribution));
        j.after_recompensation = j.after_redistribution - j.reclaimed;
        reclaim_total += j.reclaimed;
      }
      result.reclaim_total = reclaim_total;

      // Grant to lenders by DF share (eqs. 18-20); if every lender has a
      // zero factor (all fully idle), fall back to equal shares.
      if (reclaim_total > 0.0) {
        double df_sum = 0.0;
        for (std::size_t i : lenders_)
          df_sum += distribution_factor(result.jobs[i]);
        for (std::size_t i : lenders_) {
          JobAllocation& j = result.jobs[i];
          const double weight =
              df_sum > 0.0 ? distribution_factor(j) / df_sum
                           : 1.0 / static_cast<double>(lenders_.size());
          j.compensated = weight * reclaim_total;
          j.after_recompensation = j.after_redistribution + j.compensated;
        }
      }
    }
  }

  // ---- Step 4: integerization with remainders (eqs. 21-25) ----
  if (config_.enable_remainders) {
    // Window token budget as an integer, carrying its own fraction.
    double budget_exact = 0.0;
    for (const auto& j : result.jobs) budget_exact += j.after_recompensation;
    const double budget_with_carry = budget_exact + budget_carry_;
    const auto target = static_cast<std::int64_t>(std::floor(
        budget_with_carry + 1e-9));
    budget_carry_ = budget_with_carry - static_cast<double>(target);

    std::int64_t allocated = 0;
    for (std::size_t i = 0; i < n; ++i) {
      JobAllocation& j = result.jobs[i];
      const double raw = j.after_recompensation + state_of(i).remainder;
      j.tokens = static_cast<std::int64_t>(std::floor(raw + 1e-9));
      if (j.tokens < 0) j.tokens = 0;  // remainders cannot drive negative
      j.remainder_after = raw - static_cast<double>(j.tokens);
      allocated += j.tokens;
    }
    // Largest-remainder repair: leftover -> +1 to the largest remainders;
    // excess -> -1 from the smallest remainders with tokens to give. Each
    // pass sorts once and walks the order, granting/taking at most one
    // token per job, so a window costs O(n log n) regardless of how many
    // tokens are off (the paper's O(n)-per-job claim holds: the mismatch
    // is bounded by the remainder pool, itself bounded by n).
    order_.clear();
    for (auto& j : result.jobs) order_.push_back(&j);
    while (allocated < target) {
      std::sort(order_.begin(), order_.end(),
                [](const auto* a, const auto* b) {
                  if (a->remainder_after != b->remainder_after)
                    return a->remainder_after > b->remainder_after;
                  return a->job < b->job;
                });
      for (auto* pick : order_) {
        if (allocated >= target) break;
        pick->tokens += 1;
        pick->remainder_after -= 1.0;
        ++allocated;
      }
    }
    while (allocated > target) {
      std::sort(order_.begin(), order_.end(),
                [](const auto* a, const auto* b) {
                  if (a->remainder_after != b->remainder_after)
                    return a->remainder_after < b->remainder_after;
                  return a->job < b->job;
                });
      bool took_any = false;
      for (auto* pick : order_) {
        if (allocated <= target) break;
        if (pick->tokens == 0) continue;
        pick->tokens -= 1;
        pick->remainder_after += 1.0;
        --allocated;
        took_any = true;
      }
      if (!took_any) break;  // nothing left to take
    }
  } else {
    for (auto& j : result.jobs) {
      j.tokens = static_cast<std::int64_t>(std::floor(
          j.after_recompensation + 1e-9));
      if (j.tokens < 0) j.tokens = 0;
      j.remainder_after = 0.0;
    }
  }

  // ---- Commit state and derive rates ----
  for (std::size_t i = 0; i < n; ++i) {
    JobAllocation& j = result.jobs[i];
    JobState& st = state_of(i);
    // Record after the window: redistribution delta plus re-compensation
    // delta (eqs. 8, 16, 20).
    j.record_after = j.record_after_redistribution + j.reclaimed -
                     j.compensated;
    st.record = j.record_after;
    st.remainder = j.remainder_after;
    st.prev_alloc = static_cast<double>(j.tokens);
    j.rate = static_cast<double>(j.tokens) / dt_sec;
  }
  return result;
}

void TokenAllocator::collect_garbage(SimTime now) {
  std::erase_if(state_, [&](const JobState& st) {
    return now - st.last_active > config_.record_gc_horizon;
  });
}

double TokenAllocator::record(JobId job) const {
  const JobState* st = find_state(job);
  return st == nullptr ? 0.0 : st->record;
}

double TokenAllocator::remainder(JobId job) const {
  const JobState* st = find_state(job);
  return st == nullptr ? 0.0 : st->remainder;
}

double TokenAllocator::estimated_demand(JobId job) const {
  const JobState* st = find_state(job);
  return st == nullptr || st->demand_estimate < 0.0 ? 0.0
                                                    : st->demand_estimate;
}

}  // namespace adaptbf
