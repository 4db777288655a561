// F-family lint of fault scenarios and the elastic protocol verification
// (verify_config_elastic). Both operate on the schedule a TrainConfig
// carries, so the same checks gate Experiment measurements, the advisor's
// survivability() query, and `dnnperf_lint --scenario=<file>` — every
// scenario is linted and its crash/rejoin protocol path model-checked before
// a single simulated step runs.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "analysis/verify/model_checker.hpp"
#include "dnn/models.hpp"

namespace dnnperf::analysis {

namespace {

std::string rank_field(int rank) { return "rank " + std::to_string(rank); }

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Mirror of TimelineSim's membership rule: the latest crash/rejoin event at
/// or before `step` wins (ties go to the rejoin, which F002 rejects anyway).
bool alive_at(const hvd::FaultSchedule& faults, int rank, int step) {
  int last_crash = -1, last_rejoin = -1;
  for (const auto& c : faults.crashes)
    if (c.rank == rank && c.step <= step) last_crash = std::max(last_crash, c.step);
  for (const auto& r : faults.rejoins)
    if (r.rank == rank && r.step <= step) last_rejoin = std::max(last_rejoin, r.step);
  return last_crash < 0 || last_rejoin >= last_crash;
}

}  // namespace

util::Diagnostics lint_faults(const train::TrainConfig& cfg) {
  util::Diagnostics diags;
  const std::string object = config_label(cfg);
  const int world = cfg.nodes * cfg.ppn;
  const auto& faults = cfg.faults;

  // F001: every event must name a real rank and carry sane values.
  const auto check_rank = [&](int rank, const char* what) {
    if (rank >= 0 && rank < world) return true;
    diags.error("F001", object, rank_field(rank),
                std::string(what) + " references rank " + std::to_string(rank) +
                    " outside the world of " + std::to_string(world) + " ranks",
                "scenario ranks are global MPI ranks in [0, nodes*ppn)");
    return false;
  };
  for (const auto& s : faults.slowdowns) {
    check_rank(s.rank, "slowdown");
    if (!(s.factor > 0.0 && s.factor <= hvd::RankSlowdown::kMaxFactor))
      diags.error("F001", object, rank_field(s.rank),
                  "slowdown factor " + num(s.factor) + " is not in (0, " +
                      num(hvd::RankSlowdown::kMaxFactor) + "]",
                  "a straggler factor multiplies compute time; 1.5 means 50% slower, and "
                  "a rank slower than the bound is better modeled as a crash");
    if (s.from_step < 0 || (s.to_step >= 0 && s.to_step <= s.from_step))
      diags.error("F001", object, rank_field(s.rank),
                  "slowdown step range [" + std::to_string(s.from_step) + ", " +
                      std::to_string(s.to_step) + ") is empty or negative",
                  "use to_step = -1 for 'rest of the run'");
  }
  for (const auto& c : faults.crashes) {
    check_rank(c.rank, "crash");
    if (c.step < 0)
      diags.error("F001", object, rank_field(c.rank), "crash at negative step", "steps are >= 0");
  }
  for (const auto& r : faults.rejoins) {
    check_rank(r.rank, "rejoin");
    if (r.step < 0)
      diags.error("F001", object, rank_field(r.rank), "rejoin at negative step", "steps are >= 0");
  }

  // F002: a rejoin needs a strictly earlier crash of the same rank.
  for (const auto& r : faults.rejoins) {
    const bool crashed_before = std::any_of(
        faults.crashes.begin(), faults.crashes.end(),
        [&](const hvd::CrashEvent& c) { return c.rank == r.rank && c.step < r.step; });
    if (!crashed_before)
      diags.error("F002", object, rank_field(r.rank),
                  "rejoin at step " + std::to_string(r.step) +
                      " has no earlier crash of the same rank",
                  "a rank can only regrow into a ring it left; schedule the crash first");
  }

  // F003: the operator's fault budget caps crash events, and the schedule
  // must keep at least one rank alive at every step it covers.
  if (static_cast<int>(faults.crashes.size()) > faults.fault_budget)
    diags.error("F003", object, "crashes",
                std::to_string(faults.crashes.size()) + " crash events exceed the fault budget of " +
                    std::to_string(faults.fault_budget),
                "raise the scenario's fault_budget or split the schedule");
  if (!diags.has_code("F001") && !faults.crashes.empty() && world >= 1) {
    for (int step = 0; step < cfg.iterations; ++step) {
      int alive = 0;
      for (int rank = 0; rank < world; ++rank) alive += alive_at(faults, rank, step);
      if (alive == 0) {
        diags.error("F003", object, "crashes",
                    "crash schedule leaves no rank alive at step " + std::to_string(step),
                    "keep min_alive >= 1: stagger the crashes or schedule a rejoin earlier");
        break;
      }
    }
  }

  // F004: every degraded level must exist in the topology this run builds.
  const int numa = cfg.cluster.node.cpu.numa_domains();
  const bool numa_stage = cfg.device == train::DeviceKind::Cpu &&
                          cfg.hierarchy == train::CommHierarchy::ThreeLevel && numa > 1 &&
                          cfg.ppn % numa == 0;
  for (const auto& d : cfg.link_degrades) {
    const std::string field = "link level " + std::to_string(d.level);
    if (d.bandwidth_factor <= 0.0 || d.latency_factor <= 0.0) {
      diags.error("F004", object, field, "link degrade factors must be positive",
                  "bandwidth_factor scales bandwidth (0.5 halves it); latency_factor "
                  "scales latency and per-message overhead");
      continue;
    }
    const char* missing = nullptr;
    if (d.level < 0 || d.level > 2)
      missing = "levels are 0 = inter-node, 1 = intra-node, 2 = intra-NUMA";
    else if (d.level == 0 && cfg.nodes <= 1)
      missing = "a single-node run has no inter-node link";
    else if (d.level == 1 && cfg.ppn <= 1)
      missing = "one rank per node never exchanges over the intra-node link";
    else if (d.level == 2 && !numa_stage)
      missing = "the intra-NUMA level only exists under --hierarchy=three on a "
                "multi-NUMA CPU with ppn divisible by the domain count";
    if (missing != nullptr)
      diags.error("F004", object, field,
                  "degraded link level " + std::to_string(d.level) +
                      " is not in this run's topology",
                  missing);
  }
  return diags;
}

util::Diagnostics verify_config_elastic(const train::TrainConfig& cfg) {
  util::Diagnostics diags;
  const std::string object = config_label(cfg);

  // Same small-scope sampling rule as verify_config_engine: the extreme
  // gradient tensor sizes against the config's fusion capacity, at up to 3
  // ranks — plus a budget of 2 fault events interleaved everywhere, which is
  // what makes the crash/rejoin handling part of the verified surface.
  std::vector<double> grad_bytes = dnn::build_model(cfg.model).gradient_tensor_bytes();
  if (grad_bytes.empty()) return diags;
  std::sort(grad_bytes.begin(), grad_bytes.end(), std::greater<>());
  std::vector<std::size_t> elements;
  const std::size_t n = grad_bytes.size();
  for (std::size_t i : n <= 4 ? std::vector<std::size_t>{0, 1, 2, 3}
                              : std::vector<std::size_t>{0, 1, n - 2, n - 1})
    if (i < n) elements.push_back(static_cast<std::size_t>(grad_bytes[i] / sizeof(float)));

  const int world = cfg.nodes * cfg.ppn;
  const int ranks = std::clamp(world, 2, 3);
  const auto capacity = static_cast<std::size_t>(
      std::max(1.0, cfg.policy.fusion_threshold_bytes / sizeof(float)));

  for (int pattern = 0; pattern < 2; ++pattern) {
    hvd::ProtocolSpec spec = hvd::ProtocolSpec::uniform(ranks, elements, capacity,
                                                        /*rotate_by_rank=*/pattern == 1);
    spec.max_fault_events = 2;
    spec.min_alive = 1;
    static const char* kPatternNames[] = {"in-order", "rotated"};
    spec.name = object + " [elastic, " + kPatternNames[pattern] + " submission]";
    diags.merge(check_protocol(spec).diags);
  }
  return diags;
}

}  // namespace dnnperf::analysis
