#include "sweep/sweep_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "workload/scenario_io.h"

namespace adaptbf {
namespace {

constexpr const char* kMinimal = R"(
[sweep]
policies = static, adaptive
scenario = token_allocation
)";

TEST(SweepIo, MinimalSweepParses) {
  const auto loaded = load_sweep(kMinimal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const SweepSpec& spec = *loaded.spec;
  EXPECT_EQ(spec.name, "sweep");  // Default.
  ASSERT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.policies[0], BwControl::kStatic);
  EXPECT_EQ(spec.policies[1], BwControl::kAdaptive);
  ASSERT_EQ(spec.scenarios.size(), 1u);
  EXPECT_EQ(spec.scenarios[0].label, "token_allocation");
  EXPECT_FALSE(spec.scenarios[0].spec.jobs.empty());
  EXPECT_EQ(spec.repetitions, 1u);
  EXPECT_TRUE(loaded.csv_path.empty());
}

TEST(SweepIo, FullSweepParses) {
  const auto loaded = load_sweep(R"(
[sweep]
name = campaign
policies = none, gift
scenario = token_allocation
scenario = redistribution
scenario = recompensation
repetitions = 4
base_seed = 42
start_jitter_ms = 250
duration_s = 30

[grid]
osts = 1, 2, 4
token_rate = 1200, 1600

[output]
csv = out.csv
json = out.json
)");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const SweepSpec& spec = *loaded.spec;
  EXPECT_EQ(spec.name, "campaign");
  EXPECT_EQ(spec.scenarios.size(), 3u);
  EXPECT_EQ(spec.repetitions, 4u);
  EXPECT_EQ(spec.base_seed, 42u);
  EXPECT_EQ(spec.start_jitter, SimDuration::millis(250));
  EXPECT_EQ(spec.duration_override, SimDuration::seconds(30));
  ASSERT_EQ(spec.ost_counts.size(), 3u);
  EXPECT_EQ(spec.ost_counts[2], 4u);
  ASSERT_EQ(spec.token_rates.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.token_rates[1], 1600.0);
  EXPECT_EQ(loaded.csv_path, "out.csv");
  EXPECT_EQ(loaded.json_path, "out.json");
  // 3 scenarios x 2 policies x 3 osts x 2 rates x 4 reps.
  EXPECT_EQ(spec.trial_count(), 144u);
}

TEST(SweepIo, MissingPoliciesFails) {
  const auto loaded = load_sweep("[sweep]\nscenario = token_allocation\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("policies"), std::string::npos);
}

TEST(SweepIo, MissingScenarioFails) {
  const auto loaded = load_sweep("[sweep]\npolicies = none\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("scenario"), std::string::npos);
}

TEST(SweepIo, BadPolicyNameFails) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none, bogus\nscenario = token_allocation\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("bogus"), std::string::npos);
}

TEST(SweepIo, UnknownKeyFails) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = token_allocation\ntypo = 1\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("typo"), std::string::npos);
}

TEST(SweepIo, UnknownSectionFails) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = token_allocation\n[extra]\nx = "
      "1\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("extra"), std::string::npos);
}

TEST(SweepIo, ZeroRepetitionsFails) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = token_allocation\nrepetitions = "
      "0\n");
  EXPECT_FALSE(loaded.ok());
}

TEST(SweepIo, RepetitionsAndGridOstsMustFitTheirFields) {
  const std::string head =
      "[sweep]\npolicies = none\nscenario = token_allocation\n";
  // 4294967297 once loaded as 1 repetition.
  const auto reps = load_sweep(head + "repetitions = 4294967297\n");
  ASSERT_FALSE(reps.ok());
  EXPECT_NE(reps.error.find(kValueOutOfRangeError), std::string::npos)
      << reps.error;
  EXPECT_NE(reps.error.find("repetitions"), std::string::npos) << reps.error;

  const auto max_osts = load_sweep(head + "[grid]\nosts = 1, 4294967295\n");
  ASSERT_TRUE(max_osts.ok()) << max_osts.error;
  EXPECT_EQ(max_osts.spec->ost_counts.back(), UINT32_MAX);
  const auto osts = load_sweep(head + "[grid]\nosts = 1, 4294967296\n");
  ASSERT_FALSE(osts.ok());
  EXPECT_NE(osts.error.find(kValueOutOfRangeError), std::string::npos)
      << osts.error;
}

TEST(SweepIo, CapsTrialsInTheGrid) {
  // The cap is on the whole grid: 4 policies x repetitions here.
  const std::string head =
      "[sweep]\npolicies = none, static, adaptive, gift\n"
      "scenario = token_allocation\n";
  const auto at_cap = load_sweep(
      head + "repetitions = " + std::to_string(kMaxSweepTrials / 4) + "\n");
  ASSERT_TRUE(at_cap.ok()) << at_cap.error;
  EXPECT_EQ(at_cap.spec->trial_count(), kMaxSweepTrials);

  const auto over = load_sweep(
      head + "repetitions = " + std::to_string(kMaxSweepTrials / 4 + 1) +
      "\n");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error.find(kTooManyTrialsError), 0u) << over.error;

  // One policy: the largest accepted repetitions is the cap itself.
  const std::string one =
      "[sweep]\npolicies = none\nscenario = token_allocation\n";
  EXPECT_TRUE(load_sweep(one + "repetitions = " +
                         std::to_string(kMaxSweepTrials) + "\n")
                  .ok());
  EXPECT_FALSE(load_sweep(one + "repetitions = " +
                          std::to_string(kMaxSweepTrials + 1) + "\n")
                   .ok());
}

TEST(SweepIo, TrialCapHoldsWhenTheGridProductPassesSixtyFourBits) {
  // 4 x 2^15 x 2^16 x 2^31 = 2^64 trials: a wrapping product reads 0.
  std::string text =
      "[sweep]\npolicies = none, static, adaptive, gift\n"
      "scenario = token_allocation\nrepetitions = 2147483648\n"
      "[grid]\nosts = 1";
  for (int i = 1; i < (1 << 15); ++i) text += ", 1";
  text += "\ntoken_rate = 1";
  for (int i = 1; i < (1 << 16); ++i) text += ", 1";
  text += "\n";
  const auto loaded = load_sweep(text);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error.find(kTooManyTrialsError), 0u) << loaded.error;
}

TEST(SweepIo, BadGridValueFails) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = token_allocation\n[grid]\nosts = "
      "1, zero\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("zero"), std::string::npos);
}

TEST(SweepIo, EmptyScenarioValueFails) {
  const auto loaded = load_sweep("[sweep]\npolicies = none\nscenario =\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("empty scenario"), std::string::npos);
}

TEST(SweepIo, MissingScenarioFileReportsPath) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = does/not/exist.ini\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("does/not/exist.ini"), std::string::npos);
}

TEST(SweepIo, LoadSweepFileMissingFails) {
  const auto loaded = load_sweep_file("/nonexistent/sweep.ini");
  EXPECT_FALSE(loaded.ok());
}

TEST(SweepIo, JsonlOutputKeyParses) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = token_allocation\n"
      "[output]\njsonl = campaign.jsonl\n");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.jsonl_path, "campaign.jsonl");
  EXPECT_TRUE(loaded.csv_path.empty());
}

TEST(SweepIo, NonFiniteTokenRateFails) {
  // Regression: strtod-based parsing accepted nan/inf/hex token rates,
  // which then flowed into trial specs and exports.
  for (const char* bad : {"nan", "inf", "-inf", "0x1p4", "1e999"}) {
    const auto loaded = load_sweep(
        std::string("[sweep]\npolicies = none\nscenario = token_allocation\n"
                    "[grid]\ntoken_rate = ") +
        bad + "\n");
    EXPECT_FALSE(loaded.ok()) << "accepted token_rate = " << bad;
  }
}

TEST(SweepIo, SearchSectionEntriesForwardedInFileOrder) {
  // [search] keys are not interpreted here — they are forwarded verbatim
  // and positionally to search/search_io.h, duplicates included (the
  // search loader owns rejecting them, with a key-specific message).
  const auto loaded = load_sweep(R"(
[sweep]
policies = adaptive
scenario = token_allocation

[search]
controller = bisect
ladder = 400, 800
controller = golden
)");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_TRUE(loaded.has_search());
  ASSERT_EQ(loaded.search_entries.size(), 3u);
  EXPECT_EQ(loaded.search_entries[0],
            (std::pair<std::string, std::string>{"controller", "bisect"}));
  EXPECT_EQ(loaded.search_entries[1],
            (std::pair<std::string, std::string>{"ladder", "400, 800"}));
  EXPECT_EQ(loaded.search_entries[2],
            (std::pair<std::string, std::string>{"controller", "golden"}));
}

TEST(SweepIo, EmptySearchSectionStillMarksTheSweepAsASearch) {
  // The CLI routes on has_search(): an empty [search] heading must still
  // steer the file to `sweep_cli search` (where the loader will demand
  // its required keys), not silently run as a plain sweep.
  const auto loaded = load_sweep(
      "[sweep]\npolicies = adaptive\nscenario = token_allocation\n"
      "[search]\n");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_TRUE(loaded.has_search());
  EXPECT_TRUE(loaded.search_entries.empty());
}

TEST(SweepIo, SweepWithoutSearchSectionHasNoSearch) {
  const auto loaded = load_sweep(kMinimal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_FALSE(loaded.has_search());
}

}  // namespace
}  // namespace adaptbf
