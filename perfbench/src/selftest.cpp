// Self-tests of the benchmark's own machinery:
//   - the traced wiring (forwarding scheduler, spans) and the timed sink
//     change no trial digest and no journal byte on a tiny scenario;
//   - many_tenant_scenario() yields 512 jobs and 65,536 RPCs;
//   - a corrupted reference digest makes a run report failure.
//
//   perfbench_selftest REFERENCE_FILE WORK_DIR
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "bench.h"
#include "cluster/experiment.h"
#include "sweep/sweep_runner.h"
#include "traced_trial.h"
#include "workloads.h"

namespace {

using namespace adaptbf;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

ScenarioSpec tiny_scenario(BwControl control) {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.control = control;
  spec.duration = SimDuration::seconds(5);
  for (std::uint32_t j = 0; j < 3; ++j) {
    JobSpec job;
    job.id = JobId(j + 1);
    job.name = "Job" + std::to_string(j + 1);
    job.nodes = 1 + 2 * j;
    job.processes.push_back(continuous_pattern(48));
    job.processes.push_back(burst_pattern(64, 16, SimDuration::millis(300),
                                          SimDuration::millis(100 * j)));
    spec.jobs.push_back(std::move(job));
  }
  return spec;
}

SweepSpec tiny_sweep() {
  SweepSpec sweep;
  sweep.name = "tiny";
  sweep.scenarios.push_back({"tiny", tiny_scenario(BwControl::kNone)});
  sweep.policies = {BwControl::kNone, BwControl::kStatic,
                    BwControl::kAdaptive, BwControl::kGift};
  sweep.repetitions = 2;
  sweep.start_jitter = SimDuration::millis(50);
  return sweep;
}

void traced_wiring_keeps_digests() {
  perfbench::Tracer tracer;
  perfbench::TraceCounts counts;
  Simulator sim;
  for (const TrialSpec& trial : tiny_sweep().expand()) {
    const std::uint64_t plain = perfbench::trial_digest(summarize_trial(
        trial, run_experiment(trial.spec, ExperimentOptions::without_trace())));
    const std::uint64_t traced = perfbench::trial_digest(summarize_trial(
        trial, perfbench::run_traced_trial(trial.spec, sim, tracer, counts)));
    expect(plain == traced, "traced wiring keeps the digest of " +
                                trial.cell_id() + " rep " +
                                std::to_string(trial.repetition));
  }
  expect(counts.scheduler_calls > 0 && counts.windows > 0,
         "traced wiring counted scheduler calls and controller windows");
  expect(tracer.tick_ns().size() == counts.windows,
         "one controller-window span per AdapTBF window");
}

std::string run_journal(const std::string& path, bool timed) {
  const std::vector<TrialSpec> trials = tiny_sweep().expand();
  CampaignHeader header;
  header.sweep = "tiny";
  header.trials = trials.size();
  JsonlSinkOptions options;
  options.fsync = false;
  auto opened = JsonlTrialSink::open_fresh(path, header, options);
  if (!opened.ok()) return "open failed: " + opened.error;
  perfbench::TimedSink wrapper(*opened.sink);
  SweepRunner::Options runner;
  runner.threads = 1;
  runner.sink = timed ? static_cast<TrialSink*>(&wrapper) : opened.sink.get();
  (void)SweepRunner(runner).run(trials);
  if (timed) {
    expect(wrapper.append_us().size() == trials.size(),
           "timed sink saw every append");
  }
  opened.sink.reset();
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void timed_sink_keeps_journal(const std::string& work_dir) {
  const std::string plain = run_journal(work_dir + "/plain.jsonl", false);
  const std::string timed = run_journal(work_dir + "/timed.jsonl", true);
  expect(!plain.empty() && plain == timed,
         "timed sink writes a byte-identical journal");
}

void many_tenant_shape() {
  const ScenarioSpec spec = perfbench::many_tenant_scenario();
  std::uint64_t rpcs = 0, processes = 0;
  bool nodes_ok = true;
  for (const auto& job : spec.jobs) {
    processes += job.processes.size();
    nodes_ok = nodes_ok && job.nodes >= 1 && job.nodes <= 8;
    for (const auto& process : job.processes) rpcs += process.total_rpcs;
  }
  expect(spec.jobs.size() == 512, "many_tenant has 512 jobs");
  expect(processes == 512, "many_tenant jobs are single-process");
  expect(rpcs == 65536, "many_tenant sends 65,536 RPCs");
  expect(nodes_ok, "many_tenant jobs have 1-8 nodes");
}

void corrupted_reference_fails(const std::string& reference_path,
                               const std::string& work_dir) {
  perfbench::References references;
  std::string error;
  const bool loaded = perfbench::load_references(reference_path, "paper_fcfs",
                                                 references, error);
  expect(loaded, "reference digests load: " + error);
  if (!loaded) return;
  perfbench::RunConfig config;
  config.workload = "paper_fcfs";
  config.seed = perfbench::kReferenceSeed;
  config.seconds = 1.0;
  config.work_dir = work_dir;
  const perfbench::RunReport good = perfbench::run_benchmark(config, references);
  expect(good.correct && good.failed == 0,
         "recorded references pass at the default seed");
  references.begin()->second ^= 1;
  const perfbench::RunReport bad = perfbench::run_benchmark(config, references);
  expect(!bad.correct && bad.failed > 0,
         "a corrupted reference digest fails the run");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s REFERENCE_FILE WORK_DIR\n", argv[0]);
    return 2;
  }
  std::filesystem::create_directories(argv[2]);
  traced_wiring_keeps_digests();
  timed_sink_keeps_journal(argv[2]);
  many_tenant_shape();
  corrupted_reference_fails(argv[1], argv[2]);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
