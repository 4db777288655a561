// The four workloads. Each runs closed-loop in this process: set up several
// times (median = setup_s), measure for the requested seconds, then check
// outputs. With trace on, the run is split into an untraced and a traced
// half and reports per-layer metrics instead of end-to-end ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace of the traced half ("" = none)
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed before the result
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument on an unknown name.
RunResult run_workload(const RunOptions& options);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Pool width of every AdvisorService the benchmark builds.
inline constexpr int kPoolWidth = 4;

}  // namespace perfbench
