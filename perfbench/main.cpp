// perfbench: the dnnperf benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints human-readable notes, then as its last line one JSON object with
// exactly correct/attempted/failed/metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exit 0 after a result
// line; 2 on bad arguments or when the workload cannot run.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\nworkloads:";
  for (const auto& name : perfbench::workload_names()) std::cerr << ' ' << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      std::size_t used = 0;
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value, &used);
        if (!(options.seconds > 0.0 && options.seconds <= 600.0))
          return usage("--seconds must be in (0, 600]");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
      if (used != 0 && used != value.size()) return usage("malformed value for " + flag);
    }
  } catch (const std::exception&) {
    return usage("malformed numeric value");
  }
  if (!have_workload) return usage("--workload is required");

  try {
    const perfbench::RunResult r = perfbench::run_workload(options);
    std::cout << "workload " << options.workload << " seed " << options.seed << " seconds "
              << options.seconds << (options.trace ? " (traced)" : "") << "\n";
    for (const auto& note : r.notes) std::cout << "  " << note << "\n";
    for (const auto& m : r.metrics) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      std::cout << buf;
    }
    std::cout << perfbench::result_json(r.correct, r.attempted, r.failed, r.metrics) << std::endl;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
