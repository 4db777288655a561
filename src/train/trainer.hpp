// Trainer: composes the DNN graph, execution model, Horovod engine timeline,
// and collective cost model into one simulated training run — the equivalent
// of launching tf_cnn_benchmarks / pytorch_synthetic_benchmark under mpirun
// on one of the paper's clusters.
//
// Configurations mirror the paper's experiment types:
//   SP  — nodes=1, ppn=1, use_horovod=false, intra = all cores (or a sweep);
//   MP  — nodes=1, ppn>1 via Horovod;
//   MN  — nodes>1.
#pragma once

#include <cstdint>
#include <vector>

#include "dnn/models.hpp"
#include "exec/config.hpp"
#include "hvd/policy.hpp"
#include "hvd/timeline.hpp"
#include "hw/node.hpp"

namespace dnnperf::train {

enum class DeviceKind { Cpu, Gpu };

/// Data-allreduce hierarchy priced by the cost model (the --hierarchy knob).
enum class CommHierarchy {
  Flat,        ///< legacy MPI Auto policy (min of leader-hierarchical and RD)
  TwoLevel,    ///< staged intra-node ring/tree + inter-node allreduce
  ThreeLevel,  ///< staged intra-NUMA -> intra-node -> inter-node
};

/// Scenario link degradation: scales one topology level's link parameters
/// before the cost model is built (congestion, a flaky cable, a saturated
/// switch). Levels follow net::Topology: 0 = inter-node, 1 = intra-node,
/// 2 = intra-NUMA (F004 lints levels absent from the run's topology).
struct LinkDegrade {
  int level = 0;
  double bandwidth_factor = 1.0;  ///< multiplies link bandwidth (< 1 degrades)
  double latency_factor = 1.0;    ///< multiplies latency + per-message overhead

  bool operator==(const LinkDegrade&) const = default;
};

struct TrainConfig {
  hw::ClusterModel cluster;
  dnn::ModelId model = dnn::ModelId::ResNet50;
  exec::Framework framework = exec::Framework::TensorFlow;
  DeviceKind device = DeviceKind::Cpu;

  int nodes = 1;
  /// Processes per node (CPU) or GPUs used per node (GPU).
  int ppn = 1;
  /// 0 = auto: cores/ppn minus one when a Horovod thread runs (the paper's
  /// intra-op rule), all cores for plain SP; PyTorch uses cores/ppn.
  int intra_threads = 0;
  /// 0 = auto: 2 on SMT-enabled CPUs (the paper's tuned value), else 1;
  /// PyTorch (eager) always runs 1.
  int inter_threads = 0;
  int batch_per_rank = 64;

  hvd::FusionPolicy policy;
  /// False = plain single-process run without the Horovod engine.
  bool use_horovod = true;
  int iterations = 3;
  /// Per-rank compute jitter (coefficient of variation) feeding the
  /// expected-max straggler model.
  double jitter_cv = 0.02;
  /// When true, reject configurations whose conservative training footprint
  /// (dnn::training_memory) exceeds device/node memory. Off by default: the
  /// footprint model assumes no buffer reuse, which real frameworks do.
  bool validate_memory = false;
  /// Simulate every rank explicitly (per-rank jitter drawn from jitter_cv,
  /// per-rank faults) instead of folding the world into one representative
  /// rank with an expected-max straggler factor. Drawing the factors costs
  /// O(ranks) per iteration; the event calendar follows only the slowest
  /// alive rank, so its size does not grow with the rank count.
  bool per_rank_sim = false;
  /// Collective hierarchy for pricing data allreduces.
  CommHierarchy hierarchy = CommHierarchy::Flat;
  /// Graph-optimizer level applied before execution (src/opt): 0 = run the
  /// model graph as built, 1 = elimination passes (dead code, identities),
  /// 2 = elimination + conv/BN/activation fusion. Every enabled pass is
  /// verified by the equivalence checker; an unsound rewrite throws instead
  /// of reaching a measurement.
  int opt_level = 0;
  /// Bitmask of opt::PassId restricting which passes of the level run
  /// (default: all). Hashed into the eval-cache key alongside opt_level.
  std::uint32_t opt_pass_mask = 0xffffffffu;
  /// Fault scenario driving the run (crash/rejoin/slowdown at step
  /// granularity). Non-empty forces per-rank simulation and requires a
  /// multi-rank Horovod run; the F-family lint passes validate it and the
  /// elastic model checker verifies the crash/rejoin protocol path before a
  /// gated measurement runs. Hashed into the eval-cache key, so scenario
  /// measurements never alias healthy ones.
  hvd::FaultSchedule faults;
  /// Scenario link degradations applied to the topology the cost model is
  /// built from. Also hashed into the eval-cache key.
  std::vector<LinkDegrade> link_degrades;
};

struct TrainResult {
  double images_per_sec = 0.0;  ///< aggregate across all ranks
  double per_iteration_s = 0.0;
  double fwd_s = 0.0;           ///< per-rank forward compute
  double bwd_s = 0.0;
  double optimizer_s = 0.0;
  double comm_exposed_fraction = 0.0;
  /// Engine busy seconds per iteration (negotiation + data allreduces);
  /// together with the exposed fraction this yields the compute-comm overlap
  /// the profiler's verdict classification uses.
  double comm_busy_per_iteration_s = 0.0;
  /// Compute inflation of the slowest rank: the closed-form expected max
  /// applied in representative mode; in per-rank mode, where jitter and
  /// slowdowns are drawn explicitly, the mean over iterations of the slowest
  /// alive rank's factor.
  double straggler_stretch = 1.0;
  hvd::CommStats comm;
  int world_size = 1;
  int effective_batch = 0;      ///< global batch = world * batch_per_rank
  int resolved_intra = 0;
  int resolved_inter = 0;
  /// Ranks simulated explicitly (1 in representative mode) and the DES
  /// calendar totals behind this run — the scale-sweep bench gauges.
  int sim_ranks = 1;
  std::uint64_t sim_events = 0;
  std::uint64_t sim_pool_slots = 0;
  /// Per-iteration wall times of the run (virtual seconds, step order) —
  /// what crash-recovery asserts and survivability replies read.
  std::vector<double> iteration_seconds;
  /// Mean fraction of the world contributing per step (1.0 on a healthy
  /// run); images_per_sec already accounts for it — crashed ranks train no
  /// images.
  double alive_rank_fraction = 1.0;
  /// Elastic membership changes the run paid a ring re-form for.
  std::uint64_t membership_changes = 0;
};

/// The intra-op/inter-op thread counts a config resolves to (0 = auto
/// replaced by the paper's rules). Used by run_training and by the
/// schedule lint passes, so both see identical placement.
struct ThreadConfig {
  int intra = 1;
  int inter = 1;
};
ThreadConfig resolve_thread_config(const TrainConfig& config);

/// Runs one simulated training experiment. Deterministic.
TrainResult run_training(const TrainConfig& config);

/// Throughput ratio vs the same config at nodes=1 (the paper's speedup
/// metric for the multi-node figures).
double speedup_vs_single_node(const TrainConfig& config);

}  // namespace dnnperf::train
