// The repository benchmark: one process drives api::Engine through one of
// three workloads and prints its result as one JSON object on the last line
// of standard output.
//
//   perfbench --workload adhoc_compile|closure_eval|view_serve
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the single-client traced pass and reports the per-layer metrics. Both
// check the workload's outputs and the paper's headline fact counts. The exit
// code is 0 when the run completed (its correctness is in the JSON), 2 on a
// usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "paper.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "adhoc_compile|closure_eval|view_serve --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--workdir") == 0) {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0 || options.workdir.empty()) {
    return Usage();
  }

  perfbench::Report report;
  if (options.workload == "adhoc_compile") {
    perfbench::RunAdhocCompile(options, &report);
  } else if (options.workload == "closure_eval") {
    perfbench::RunClosureEval(options, &report);
  } else if (options.workload == "view_serve") {
    perfbench::RunViewServe(options, &report);
  } else {
    return Usage();
  }
  perfbench::CheckPaperHeadline(options.trace, &report);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
