// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench gen   --workload W --seed N --dir D
//       Generates the workload's dataset from the seed and writes it as CSV.
//   perfbench run   --workload W --seed N --seconds S --dir D
//       Runs the untraced closed loop on the CSVs in D for S seconds, checks
//       the outputs and prints the end-to-end metrics.
//   perfbench trace --workload W --seed N --seconds S --dir D
//                   --serve-dir D2 --trace-out F
//       Replays each layer's public calls on the same inputs inside spans,
//       writes them to F as Chrome-trace JSON and prints per-layer metrics.
//
// The last line on stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Exit status: 0 when every check passed, 1 when one
// failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run|trace --workload W --seed N "
               "[--seconds S] --dir D [--serve-dir D2] [--trace-out F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  RunOptions options;
  std::string workload;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--dir") {
      options.dir = value;
    } else if (flag == "--serve-dir") {
      options.serve_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 0 || !ParseWorkload(workload, &options.workload) ||
      options.dir.empty()) {
    return Usage();
  }

  if (mode == "gen") {
    GenerateInputs(options.workload, options.seed, options.dir);
    return 0;
  }
  if (mode != "run" && mode != "trace") return Usage();
  if (mode == "trace" &&
      (options.serve_dir.empty() || options.trace_out.empty())) {
    return Usage();
  }

  Report report;
  try {
    if (mode == "run") {
      RunWorkload(options, &report);
    } else {
      RunLayers(options, &report);
    }
  } catch (const std::exception& e) {
    report.Attempt(false, std::string("exception: ") + e.what());
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
