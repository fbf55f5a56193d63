#include "workload/scenario_io.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "support/ini.h"

namespace adaptbf {

namespace {

ScenarioLoadResult fail(std::string message) {
  ScenarioLoadResult result;
  result.error = std::move(message);
  return result;
}

/// Parses "key=value key=value ..." word lists (the process = lines).
bool parse_kv_words(std::string_view text,
                    std::unordered_map<std::string, std::string>& out,
                    std::string& first_word, std::string& error) {
  std::istringstream stream{std::string(text)};
  std::string token;
  bool first = true;
  while (stream >> token) {
    if (first) {
      first = false;
      first_word = token;
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      error = "expected key=value, got '" + token + "'";
      return false;
    }
    out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  if (first) {
    error = "empty process description";
    return false;
  }
  return true;
}

/// Parses one `process =` value into a pattern plus replication count.
bool parse_process(std::string_view text, ProcessPattern& pattern,
                   std::uint64_t& count, std::string& error) {
  std::unordered_map<std::string, std::string> kv;
  std::string kind;
  if (!parse_kv_words(text, kv, kind, error)) return false;

  count = 1;
  pattern = ProcessPattern{};
  static const std::unordered_set<std::string> known{
      "total", "burst", "period_s", "period_ms", "delay_s", "delay_ms",
      "count", "random", "rate", "seed"};
  for (const auto& [key, value] : kv) {
    if (!known.contains(key)) {
      error = "unknown process key '" + key + "'";
      return false;
    }
  }
  auto take_u64 = [&](const char* key, std::uint64_t& out) {
    auto it = kv.find(key);
    if (it == kv.end()) return true;
    if (!parse_u64(it->second, out)) {
      error = std::string("bad number for '") + key + "'";
      return false;
    }
    return true;
  };
  auto take_duration = [&](const char* sec_key, const char* ms_key,
                           SimDuration& out) {
    if (auto it = kv.find(sec_key); it != kv.end()) {
      double seconds = 0.0;
      if (!parse_double(it->second, seconds) || seconds < 0.0) {
        error = std::string("bad duration for '") + sec_key + "'";
        return false;
      }
      out = SimDuration::from_seconds(seconds);
    }
    if (auto it = kv.find(ms_key); it != kv.end()) {
      double ms = 0.0;
      if (!parse_double(it->second, ms) || ms < 0.0) {
        error = std::string("bad duration for '") + ms_key + "'";
        return false;
      }
      out = SimDuration::from_seconds(ms / 1e3);
    }
    return true;
  };

  if (!take_u64("total", pattern.total_rpcs)) return false;
  if (!take_u64("count", count)) return false;
  if (count == 0) {
    error = "count must be >= 1";
    return false;
  }
  if (!take_duration("delay_s", "delay_ms", pattern.start_delay)) return false;
  if (auto it = kv.find("random"); it != kv.end()) {
    if (it->second == "true") {
      pattern.locality = Locality::kRandom;
    } else if (it->second == "false") {
      pattern.locality = Locality::kSequential;
    } else {
      error = "random= must be true or false";
      return false;
    }
  }

  if (kind == "continuous") {
    pattern.kind = ProcessPattern::Kind::kContinuous;
    if (kv.contains("burst") || kv.contains("period_s") ||
        kv.contains("period_ms") || kv.contains("rate")) {
      error = "continuous process cannot have burst/period/rate";
      return false;
    }
    return true;
  }
  if (kind == "poisson") {
    pattern.kind = ProcessPattern::Kind::kPoisson;
    if (auto it = kv.find("rate"); it != kv.end()) {
      if (!parse_double(it->second, pattern.poisson_rate) ||
          pattern.poisson_rate <= 0.0) {
        error = "poisson process needs rate=N > 0";
        return false;
      }
    } else {
      error = "poisson process needs rate=N";
      return false;
    }
    if (!take_u64("seed", pattern.seed)) return false;
    if (kv.contains("burst") || kv.contains("period_s") ||
        kv.contains("period_ms")) {
      error = "poisson process cannot have burst/period";
      return false;
    }
    return true;
  }
  if (kind == "burst") {
    pattern.kind = ProcessPattern::Kind::kPeriodicBurst;
    if (!take_u64("burst", pattern.burst_rpcs)) return false;
    if (pattern.burst_rpcs == 0) {
      error = "burst process needs burst=N";
      return false;
    }
    if (!take_duration("period_s", "period_ms", pattern.period)) return false;
    if (pattern.period <= SimDuration(0)) {
      error = "burst process needs period_s/period_ms > 0";
      return false;
    }
    return true;
  }
  error = "unknown process kind '" + kind + "' (continuous|burst|poisson)";
  return false;
}

/// Reads the integer `key` of `section` into a 32-bit field, within
/// [1, max]; an absent key leaves `out` as it is. Returns the error, empty
/// if none.
std::string read_count(const IniFile& ini, const std::string& section,
                       const std::string& key, std::uint32_t max,
                       std::uint32_t& out) {
  if (!ini.get(section, key)) return "";
  const auto value = ini.get_int(section, key);
  if (!value) return "bad " + key;
  if (*value < 1) return key + " must be >= 1";
  if (static_cast<std::uint64_t>(*value) > max) {
    return key + ": " + std::string(kValueOutOfRangeError) + " (max " +
           std::to_string(max) + ")";
  }
  out = static_cast<std::uint32_t>(*value);
  return "";
}

}  // namespace

ScenarioLoadResult load_scenario(std::string_view text) {
  std::string parse_error;
  const auto ini = IniFile::parse(text, &parse_error);
  if (!ini.has_value()) return fail("ini: " + parse_error);

  static const std::unordered_set<std::string> known_scenario_keys{
      "name", "control", "duration_s", "observation_ms", "apply_latency_ms",
      "stop_when_idle", "timeline_bin_ms", "max_token_rate",
      "redistribution", "recompensation", "remainders", "bucket_depth",
      "ewma_estimator", "ewma_alpha"};
  static const std::unordered_set<std::string> known_server_keys{
      "osts", "threads", "seq_bandwidth_mibps", "rand_bandwidth_mibps",
      "overhead_us"};
  static const std::unordered_set<std::string> known_client_keys{
      "rpc_size_kib", "max_inflight", "network_latency_us"};
  static const std::unordered_set<std::string> known_job_keys{
      "name", "nodes", "process"};

  ScenarioSpec spec;
  for (const auto& section : ini->sections()) {
    if (section == "scenario") {
      for (const auto& key : ini->keys(section))
        if (!known_scenario_keys.contains(key))
          return fail("unknown key '" + key + "' in [scenario]");
    } else if (section == "server") {
      for (const auto& key : ini->keys(section))
        if (!known_server_keys.contains(key))
          return fail("unknown key '" + key + "' in [server]");
    } else if (section == "client") {
      for (const auto& key : ini->keys(section))
        if (!known_client_keys.contains(key))
          return fail("unknown key '" + key + "' in [client]");
    } else if (section.rfind("job.", 0) == 0) {
      for (const auto& key : ini->keys(section))
        if (!known_job_keys.contains(key))
          return fail("unknown key '" + key + "' in [" + section + "]");
    } else {
      return fail("unknown section [" + section + "]");
    }
  }

  // [scenario]
  if (auto name = ini->get("scenario", "name")) spec.name = *name;
  if (auto control = ini->get("scenario", "control")) {
    const auto parsed = bw_control_from_name(*control);
    if (!parsed.has_value())
      return fail("bad control '" + *control +
                  "' (none|static|adaptive|gift)");
    spec.control = *parsed;
  }
  if (auto duration = ini->get_double("scenario", "duration_s")) {
    if (*duration <= 0.0) return fail("duration_s must be positive");
    spec.duration = SimDuration::from_seconds(*duration);
  } else if (ini->get("scenario", "duration_s")) {
    return fail("bad duration_s");
  }
  if (auto period = ini->get_double("scenario", "observation_ms")) {
    if (*period <= 0.0) return fail("observation_ms must be positive");
    spec.observation_period = SimDuration::from_seconds(*period / 1e3);
  }
  if (auto latency = ini->get_double("scenario", "apply_latency_ms"))
    spec.controller_apply_latency = SimDuration::from_seconds(*latency / 1e3);
  if (auto stop = ini->get_bool("scenario", "stop_when_idle"))
    spec.stop_when_idle = *stop;
  if (auto bin = ini->get_double("scenario", "timeline_bin_ms"))
    spec.timeline_bin = SimDuration::from_seconds(*bin / 1e3);
  if (auto rate = ini->get_double("scenario", "max_token_rate"))
    spec.max_token_rate = *rate;
  if (auto flag = ini->get_bool("scenario", "redistribution"))
    spec.enable_redistribution = *flag;
  if (auto flag = ini->get_bool("scenario", "recompensation"))
    spec.enable_recompensation = *flag;
  if (auto flag = ini->get_bool("scenario", "remainders"))
    spec.enable_remainders = *flag;
  if (auto depth = ini->get_double("scenario", "bucket_depth")) {
    if (*depth < 1.0) return fail("bucket_depth must be >= 1");
    spec.bucket_depth = *depth;
  }
  if (auto flag = ini->get_bool("scenario", "ewma_estimator"))
    spec.use_ewma_estimator = *flag;
  if (auto alpha = ini->get_double("scenario", "ewma_alpha")) {
    if (*alpha <= 0.0 || *alpha > 1.0)
      return fail("ewma_alpha must be in (0, 1]");
    spec.ewma_alpha = *alpha;
  }

  // [server]
  if (auto error =
          read_count(*ini, "server", "osts", UINT32_MAX, spec.num_osts);
      !error.empty())
    return fail(error);
  if (auto error =
          read_count(*ini, "server", "threads", UINT32_MAX, spec.num_threads);
      !error.empty())
    return fail(error);
  if (auto bw = ini->get_double("server", "seq_bandwidth_mibps")) {
    if (*bw <= 0.0) return fail("seq_bandwidth_mibps must be positive");
    spec.disk.seq_bandwidth = *bw * 1024 * 1024;
  }
  if (auto bw = ini->get_double("server", "rand_bandwidth_mibps")) {
    if (*bw <= 0.0) return fail("rand_bandwidth_mibps must be positive");
    spec.disk.rand_bandwidth = *bw * 1024 * 1024;
  }
  if (auto overhead = ini->get_double("server", "overhead_us")) {
    if (*overhead < 0.0) return fail("overhead_us must be non-negative");
    spec.disk.per_rpc_overhead = SimDuration::from_seconds(*overhead / 1e6);
  }

  // [client]
  std::uint32_t rpc_size_kib = 0;
  if (auto error = read_count(*ini, "client", "rpc_size_kib", kMaxRpcSizeKib,
                              rpc_size_kib);
      !error.empty())
    return fail(error);
  if (rpc_size_kib != 0) spec.rpc_size_bytes = rpc_size_kib * 1024;
  if (auto error = read_count(*ini, "client", "max_inflight", UINT32_MAX,
                              spec.max_inflight_per_process);
      !error.empty())
    return fail(error);
  if (auto latency = ini->get_double("client", "network_latency_us")) {
    if (*latency < 0.0) return fail("network_latency_us must be >= 0");
    spec.network_latency = SimDuration::from_seconds(*latency / 1e6);
  }

  // [job.N]
  std::uint64_t total_processes = 0;
  for (const auto& section : ini->sections()) {
    if (section.rfind("job.", 0) != 0) continue;
    const std::string id_text = section.substr(4);
    std::uint64_t id = 0;
    if (!parse_u64(id_text, id) || id == 0 || id >= JobId::kInvalid)
      return fail("bad job id in [" + section + "]");
    JobSpec job;
    job.id = JobId(static_cast<std::uint32_t>(id));
    job.name = ini->get(section, "name").value_or("Job" + id_text);
    if (auto error = read_count(*ini, section, "nodes", UINT32_MAX,
                                job.nodes);
        !error.empty())
      return fail(error + " in [" + section + "]");
    for (const auto& process_text : ini->get_all(section, "process")) {
      ProcessPattern pattern;
      std::uint64_t count = 1;
      std::string error;
      if (!parse_process(process_text, pattern, count, error))
        return fail("[" + section + "] process: " + error);
      if (count > kMaxScenarioProcesses - total_processes) {
        return fail("[" + section + "] process: " +
                    std::string(kTooManyProcessesError) + " (over " +
                    std::to_string(kMaxScenarioProcesses) +
                    " in the scenario)");
      }
      total_processes += count;
      for (std::uint64_t i = 0; i < count; ++i)
        job.processes.push_back(pattern);
    }
    if (job.processes.empty())
      return fail("[" + section + "] has no process lines");
    spec.jobs.push_back(std::move(job));
  }
  if (spec.jobs.empty()) return fail("scenario has no [job.N] sections");

  ScenarioLoadResult result;
  result.spec = std::move(spec);
  return result;
}

ScenarioLoadResult load_scenario_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return fail("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return load_scenario(buffer.str());
}

std::string scenario_to_ini(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "[scenario]\n";
  out << "name = " << spec.name << "\n";
  out << "control = ";
  switch (spec.control) {
    case BwControl::kNone: out << "none"; break;
    case BwControl::kStatic: out << "static"; break;
    case BwControl::kAdaptive: out << "adaptive"; break;
    case BwControl::kGift: out << "gift"; break;
  }
  out << "\n";
  out << "duration_s = " << spec.duration.to_seconds() << "\n";
  out << "observation_ms = " << spec.observation_period.to_seconds() * 1e3
      << "\n";
  out << "apply_latency_ms = "
      << spec.controller_apply_latency.to_seconds() * 1e3 << "\n";
  out << "stop_when_idle = " << (spec.stop_when_idle ? "true" : "false")
      << "\n";
  out << "timeline_bin_ms = " << spec.timeline_bin.to_seconds() * 1e3 << "\n";
  if (spec.max_token_rate > 0.0)
    out << "max_token_rate = " << spec.max_token_rate << "\n";
  out << "redistribution = " << (spec.enable_redistribution ? "true" : "false")
      << "\n";
  out << "recompensation = " << (spec.enable_recompensation ? "true" : "false")
      << "\n";
  out << "remainders = " << (spec.enable_remainders ? "true" : "false")
      << "\n";
  out << "bucket_depth = " << spec.bucket_depth << "\n";
  out << "ewma_estimator = " << (spec.use_ewma_estimator ? "true" : "false")
      << "\n";
  out << "ewma_alpha = " << spec.ewma_alpha << "\n";
  out << "\n[server]\n";
  out << "osts = " << spec.num_osts << "\n";
  out << "threads = " << spec.num_threads << "\n";
  out << "seq_bandwidth_mibps = " << spec.disk.seq_bandwidth / (1024 * 1024)
      << "\n";
  out << "rand_bandwidth_mibps = " << spec.disk.rand_bandwidth / (1024 * 1024)
      << "\n";
  out << "overhead_us = " << spec.disk.per_rpc_overhead.to_seconds() * 1e6
      << "\n";
  out << "\n[client]\n";
  out << "rpc_size_kib = " << spec.rpc_size_bytes / 1024 << "\n";
  out << "max_inflight = " << spec.max_inflight_per_process << "\n";
  out << "network_latency_us = "
      << spec.network_latency.to_seconds() * 1e6 << "\n";
  for (const auto& job : spec.jobs) {
    out << "\n[job." << job.id.value() << "]\n";
    out << "name = " << job.name << "\n";
    out << "nodes = " << job.nodes << "\n";
    for (const auto& process : job.processes) {
      if (process.kind == ProcessPattern::Kind::kContinuous) {
        out << "process = continuous total=" << process.total_rpcs;
      } else if (process.kind == ProcessPattern::Kind::kPoisson) {
        out << "process = poisson total=" << process.total_rpcs
            << " rate=" << process.poisson_rate
            << " seed=" << process.seed;
      } else {
        out << "process = burst total=" << process.total_rpcs
            << " burst=" << process.burst_rpcs
            << " period_ms=" << process.period.to_seconds() * 1e3;
      }
      out << " delay_ms=" << process.start_delay.to_seconds() * 1e3;
      if (process.locality == Locality::kRandom) out << " random=true";
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace adaptbf
