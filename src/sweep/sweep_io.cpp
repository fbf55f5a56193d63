#include "sweep/sweep_io.h"

#include <fstream>
#include <sstream>
#include <unordered_set>  // adaptbf-lint: allow(unordered-output)

#include "support/ini.h"
#include "workload/scenario_io.h"
#include "workload/scenarios_paper.h"

namespace adaptbf {

namespace {

SweepLoadResult fail(std::string message) {
  SweepLoadResult result;
  result.error = std::move(message);
  return result;
}

/// Splits a comma-separated value list, trimming each element.
std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string_view raw =
        text.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                           : comma - start);
    const std::string_view item = trim(raw);
    if (!item.empty()) items.emplace_back(item);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return items;
}

/// Builtin paper scenarios by short name. The control baked in here is a
/// placeholder: expand() re-applies the policy axis per trial.
std::optional<SweepScenario> builtin_scenario(std::string_view name) {
  if (name == "token_allocation")
    return SweepScenario{"token_allocation",
                         scenario_token_allocation(BwControl::kNone)};
  if (name == "redistribution")
    return SweepScenario{"redistribution",
                         scenario_token_redistribution(BwControl::kNone)};
  if (name == "recompensation")
    return SweepScenario{"recompensation",
                         scenario_token_recompensation(BwControl::kNone)};
  return std::nullopt;
}

/// Error for a `key` whose value does not fit its 32-bit field.
std::string out_of_range(const std::string& key) {
  return key + ": " + std::string(kValueOutOfRangeError) + " (max " +
         std::to_string(UINT32_MAX) + ")";
}

/// Path stem ("dir/noisy.ini" -> "noisy") as the scenario label fallback.
std::string path_stem(std::string_view path) {
  const std::size_t slash = path.find_last_of('/');
  std::string_view name =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string_view::npos && dot > 0) name = name.substr(0, dot);
  return std::string(name);
}

}  // namespace

SweepLoadResult load_sweep(std::string_view text, const std::string& base_dir) {
  std::string parse_error;
  const auto ini = IniFile::parse(text, &parse_error);
  if (!ini.has_value()) return fail("ini: " + parse_error);

  // Known-key sets are membership tests only (never iterated), so hash
  // order cannot reach any output byte.
  static const std::unordered_set<std::string> known_sweep_keys{  // adaptbf-lint: allow(unordered-output)
      "name",      "policies",        "scenario", "repetitions",
      "base_seed", "start_jitter_ms", "duration_s"};
  static const std::unordered_set<std::string> known_grid_keys{  // adaptbf-lint: allow(unordered-output)
      "osts", "token_rate"};
  static const std::unordered_set<std::string> known_output_keys{  // adaptbf-lint: allow(unordered-output)
      "csv", "json", "jsonl"};
  for (const auto& section : ini->sections()) {
    const std::unordered_set<std::string>* known = nullptr;  // adaptbf-lint: allow(unordered-output)
    if (section == "sweep") known = &known_sweep_keys;
    else if (section == "grid") known = &known_grid_keys;
    else if (section == "output") known = &known_output_keys;
    else if (section == "search") continue;  // search_io.h owns its grammar.
    else return fail("unknown section [" + section + "]");
    for (const auto& key : ini->keys(section))
      if (!known->contains(key))
        return fail("unknown key '" + key + "' in [" + section + "]");
  }

  SweepSpec spec;
  if (auto name = ini->get("sweep", "name")) spec.name = *name;

  const auto policy_list = ini->get("sweep", "policies");
  if (!policy_list.has_value())
    return fail("[sweep] needs policies = <comma list>");
  for (const auto& name : split_list(*policy_list)) {
    const auto policy = bw_control_from_name(name);
    if (!policy.has_value())
      return fail("bad policy '" + name + "' (none|static|adaptive|gift)");
    spec.policies.push_back(*policy);
  }
  if (spec.policies.empty()) return fail("policies list is empty");

  const auto scenario_values = ini->get_all("sweep", "scenario");
  if (scenario_values.empty())
    return fail("[sweep] needs at least one scenario = line");
  for (const auto& value : scenario_values) {
    if (value.empty())
      return fail("empty scenario = value (builtin name or file path)");
    if (auto builtin = builtin_scenario(value)) {
      spec.scenarios.push_back(std::move(*builtin));
      continue;
    }
    std::string path = value;
    if (!base_dir.empty() && path.front() != '/')
      path = base_dir + "/" + path;
    const ScenarioLoadResult loaded = load_scenario_file(path);
    if (!loaded.ok())
      return fail("scenario '" + value + "': " + loaded.error);
    SweepScenario scenario;
    scenario.label =
        loaded.spec->name.empty() ? path_stem(value) : loaded.spec->name;
    scenario.spec = std::move(*loaded.spec);
    spec.scenarios.push_back(std::move(scenario));
  }

  if (auto reps = ini->get("sweep", "repetitions")) {
    std::uint64_t value = 0;
    if (!parse_u64(*reps, value) || value == 0)
      return fail("repetitions must be a positive integer");
    if (value > UINT32_MAX) return fail(out_of_range("repetitions"));
    spec.repetitions = static_cast<std::uint32_t>(value);
  }
  if (auto seed = ini->get("sweep", "base_seed")) {
    std::uint64_t value = 0;
    if (!parse_u64(*seed, value)) return fail("bad base_seed");
    spec.base_seed = value;
  }
  if (auto jitter = ini->get_double("sweep", "start_jitter_ms")) {
    if (*jitter < 0.0) return fail("start_jitter_ms must be >= 0");
    spec.start_jitter = SimDuration::from_seconds(*jitter / 1e3);
  } else if (ini->get("sweep", "start_jitter_ms")) {
    return fail("bad start_jitter_ms");
  }
  if (auto duration = ini->get_double("sweep", "duration_s")) {
    if (*duration <= 0.0) return fail("duration_s must be positive");
    spec.duration_override = SimDuration::from_seconds(*duration);
  } else if (ini->get("sweep", "duration_s")) {
    return fail("bad duration_s");
  }

  if (auto osts = ini->get("grid", "osts")) {
    for (const auto& item : split_list(*osts)) {
      std::uint64_t value = 0;
      if (!parse_u64(item, value) || value == 0)
        return fail("bad osts value '" + item + "'");
      if (value > UINT32_MAX) return fail(out_of_range("osts"));
      spec.ost_counts.push_back(static_cast<std::uint32_t>(value));
    }
  }
  if (auto rates = ini->get("grid", "token_rate")) {
    for (const auto& item : split_list(*rates)) {
      double value = 0.0;
      if (!parse_double(item, value) || value <= 0.0)
        return fail("bad token_rate value '" + item + "'");
      spec.token_rates.push_back(value);
    }
  }

  if (spec.trial_count() > kMaxSweepTrials) {
    return fail(std::string(kTooManyTrialsError) + " (over " +
                std::to_string(kMaxSweepTrials) + " in the grid)");
  }

  SweepLoadResult result;
  if (ini->has_section("search")) {
    // Forward the raw entries in file order (duplicate keys included —
    // the search layer rejects them by name).
    result.search_section = true;
    const std::vector<std::string> search_keys = ini->keys("search");
    for (std::size_t i = 0; i < search_keys.size(); ++i) {
      const std::string& key = search_keys[i];
      std::size_t occurrence = 0;
      for (std::size_t j = 0; j < i; ++j)
        if (search_keys[j] == key) ++occurrence;
      result.search_entries.emplace_back(
          key, ini->get_all("search", key)[occurrence]);
    }
  }
  if (auto csv = ini->get("output", "csv")) result.csv_path = *csv;
  if (auto json = ini->get("output", "json")) result.json_path = *json;
  if (auto jsonl = ini->get("output", "jsonl")) result.jsonl_path = *jsonl;
  result.spec = std::move(spec);
  return result;
}

SweepLoadResult load_sweep_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return fail("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::size_t slash = path.find_last_of('/');
  const std::string base_dir =
      slash == std::string::npos ? "" : path.substr(0, slash);
  return load_sweep(buffer.str(), base_dir);
}

}  // namespace adaptbf
