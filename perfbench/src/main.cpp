// Trial and campaign benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --references FILE [--work-dir DIR]
//   perfbench --print-references        # default-seed digests, every workload
//
// Prints human-readable lines, then one JSON result line as the last line
// of standard output. Exit status 0 only when every trial's output matched.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--references FILE [--work-dir DIR]\n"
               "       %s --print-references\n"
               "workloads:",
               argv0, argv0);
  for (const auto& name : perfbench::workload_names())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.process_start = perfbench::Clock::now();
  config.work_dir = "perfbench_work";
  std::string references_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-references" && argc == 2) {
      std::printf("# <workload> <trial index> <digest>: trial digests at the "
                  "default seed (perfbench --print-references)\n");
      for (const auto& name : perfbench::workload_names()) {
        std::printf("%s", perfbench::format_references(
                              name, perfbench::cold_digests(
                                        name, perfbench::kReferenceSeed))
                              .c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      config.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, number) && number > 0 &&
               number <= 3600) {
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && parse_u64(value, number) && number <= 1) {
      config.trace = number == 1;
      have_trace = true;
    } else if (flag == "--references") {
      references_path = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || references_path.empty() ||
      !perfbench::build_workload(config.workload, config.seed))
    return usage(argv[0]);

  perfbench::References references;
  std::string error;
  if (!perfbench::load_references(references_path, config.workload,
                                  references, error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 config.work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  const perfbench::RunReport report =
      perfbench::run_benchmark(config, references);
  for (const auto& note : report.notes) std::printf("# %s\n", note.c_str());
  for (const auto& metric : report.metrics)
    std::printf("# %-36s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  std::printf("%s\n", perfbench::report_json(report).c_str());
  return report.correct ? 0 : 1;
}
