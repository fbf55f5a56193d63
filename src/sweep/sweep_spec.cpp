#include "sweep/sweep_spec.h"

#include <cstdio>

#include "support/check.h"
#include "support/random.h"

namespace adaptbf {

namespace {

/// Applies one set of grid coordinates to a copy of the base spec.
ScenarioSpec materialize(const SweepScenario& scenario, BwControl policy,
                         const std::uint32_t* num_osts,
                         const double* token_rate, std::uint64_t seed,
                         SimDuration start_jitter,
                         SimDuration duration_override) {
  ScenarioSpec spec = scenario.spec;
  spec.name = scenario.label;
  spec.control = policy;
  if (num_osts != nullptr) spec.num_osts = *num_osts;
  if (token_rate != nullptr) spec.max_token_rate = *token_rate;
  if (duration_override > SimDuration(0)) spec.duration = duration_override;

  // Per-trial RNG streams: every stochastic input of the materialized spec
  // is reseeded from the trial's private stream so (a) no two trials share
  // generator state and (b) the same repetition draws the same randomness
  // under every policy.
  std::uint64_t stream = 0;
  Xoshiro256 rng(seed);
  for (auto& job : spec.jobs) {
    for (auto& process : job.processes) {
      if (process.kind == ProcessPattern::Kind::kPoisson)
        process.seed = derive_stream_seed(seed, ++stream);
      if (start_jitter > SimDuration(0)) {
        const auto jitter_ns = static_cast<std::int64_t>(
            rng.next_double() * static_cast<double>(start_jitter.ns()));
        process.start_delay += SimDuration(jitter_ns);
      }
    }
  }
  return spec;
}

}  // namespace

std::string TrialSpec::cell_id() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "|%s|%u|%.6g",
                std::string(to_string(policy)).c_str(), num_osts,
                max_token_rate);
  return scenario + buf;
}

std::size_t SweepSpec::trial_count() const {
  const std::size_t axes[] = {scenarios.size(), policies.size(),
                              ost_counts.empty() ? 1 : ost_counts.size(),
                              token_rates.empty() ? 1 : token_rates.size(),
                              repetitions};
  for (const std::size_t axis : axes)
    if (axis == 0) return 0;
  std::size_t count = 1;
  for (const std::size_t axis : axes) {
    if (count > SIZE_MAX / axis) return SIZE_MAX;
    count *= axis;
  }
  return count;
}

std::vector<TrialSpec> SweepSpec::expand() const {
  ADAPTBF_CHECK_MSG(!scenarios.empty(), "sweep needs at least one scenario");
  ADAPTBF_CHECK_MSG(!policies.empty(), "sweep needs at least one policy");
  ADAPTBF_CHECK_MSG(repetitions > 0, "sweep needs repetitions >= 1");

  std::vector<TrialSpec> trials;
  trials.reserve(trial_count());
  for (const auto& scenario : scenarios) {
    for (const BwControl policy : policies) {
      const std::size_t osts = ost_counts.empty() ? 1 : ost_counts.size();
      const std::size_t rates = token_rates.empty() ? 1 : token_rates.size();
      for (std::size_t o = 0; o < osts; ++o) {
        for (std::size_t r = 0; r < rates; ++r) {
          for (std::uint32_t rep = 0; rep < repetitions; ++rep) {
            TrialSpec trial;
            trial.index = trials.size();
            trial.scenario = scenario.label;
            trial.policy = policy;
            trial.repetition = rep;
            trial.seed = derive_stream_seed(base_seed, rep);
            const std::uint32_t* ost_override =
                ost_counts.empty() ? nullptr : &ost_counts[o];
            const double* rate_override =
                token_rates.empty() ? nullptr : &token_rates[r];
            trial.spec = materialize(scenario, policy, ost_override,
                                     rate_override, trial.seed, start_jitter,
                                     duration_override);
            trial.num_osts = trial.spec.num_osts;
            trial.max_token_rate = trial.spec.max_token_rate;
            trials.push_back(std::move(trial));
          }
        }
      }
    }
  }
  return trials;
}

}  // namespace adaptbf
