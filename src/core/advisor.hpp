// ConfigAdvisor: mechanizes the paper's Section IX guidance by searching the
// (ppn, intra-op, inter-op, batch) space for a platform + model + framework
// and reporting the best configuration found. Tests check that the search
// rediscovers the paper's rules (best ppn per architecture, intra-op =
// cores/ppn - 1, inter-op = 2 under SMT, PyTorch ppn = cores).
//
// advise() is a thin wrapper over core::AdvisorService (advisor_service.hpp)
// sharing the process-wide service: repeated or overlapping sweeps are
// answered from its content-addressed cache, and cold sweeps evaluate in
// parallel on its pool. Use the service directly for batched queries,
// objectives other than throughput, and query-economics stats.
#pragma once

#include <optional>

#include "core/figures.hpp"
#include "train/trainer.hpp"

namespace dnnperf::core {

struct AdvisorOptions {
  /// Candidate per-rank batch sizes. The paper keeps batches modest for
  /// convergence (Section V-A); the default caps at 128. An empty list is an
  /// A001 diagnostic (std::invalid_argument), not a silent empty search.
  std::vector<int> batch_candidates{16, 32, 64, 128};
  /// Candidate ppn values; empty = divisors of the core count up to cores.
  std::vector<int> ppn_candidates;
  /// Must be in [1, cluster.max_nodes]; anything else is an A002 diagnostic.
  int nodes = 1;
};

struct Recommendation {
  train::TrainConfig best;
  double images_per_sec = 0.0;
  /// Every evaluated configuration. Populated by advise(); the service only
  /// builds it when AdvisorRequest::want_table is set, and leaves it empty
  /// otherwise.
  std::optional<util::TextTable> search_table;
};

Recommendation advise(const hw::ClusterModel& cluster, dnn::ModelId model,
                      exec::Framework framework, const AdvisorOptions& options = {});

}  // namespace dnnperf::core
