// perfbench — PSF benchmark program.
//
//   psf_perfbench --workload stencil_sweep|reduction_sweep|serve_open
//                 --seed N --seconds S --trace 0|1
//
// Prints notes, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end set, with --trace 1 the per-layer metrics the workload measures.
// BENCHMARK.json is the list of both: perfbench/run.py checks the names and
// units against it and fills the per-layer metrics of layers the workload
// does not exercise with 0.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: psf_perfbench --workload stencil_sweep|reduction_sweep|"
               "serve_open --seed N --seconds S --trace 0|1\n");
  return 2;
}

void print(const Report& report) {
  for (const auto& note : report.notes) std::printf("# %s\n", note.c_str());
  std::string line = "{\"correct\": ";
  line += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : report.metrics) {
    std::snprintf(number, sizeof(number), "%.17g", metric.first);
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            metric.second + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto start = Clock::now();
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return usage();

  Report report;
  try {
    if (options.workload == "stencil_sweep" ||
        options.workload == "reduction_sweep") {
      run_sweep(options, start, report);
    } else if (options.workload == "serve_open") {
      run_serve_open(options, start, report);
    } else {
      return usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "psf_perfbench: %s\n", error.what());
    return 1;
  }
  print(report);
  return 0;
}
