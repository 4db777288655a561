#include "train/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "dnn/report.hpp"
#include "exec/cpu_model.hpp"
#include "opt/passes.hpp"
#include "util/diag.hpp"
#include "exec/gpu_model.hpp"
#include "exec/placement.hpp"
#include "mpi/cost.hpp"
#include "net/topology.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"

namespace dnnperf::train {

ThreadConfig resolve_thread_config(const TrainConfig& cfg) {
  const auto& cpu = cfg.cluster.node.cpu;
  const int cores_per_rank = std::max(1, cpu.total_cores() / std::max(1, cfg.ppn));
  int intra = cfg.intra_threads;
  int inter = cfg.inter_threads;
  if (intra == 0) {
    if (cfg.framework == exec::Framework::PyTorch) {
      intra = cores_per_rank;  // PyTorch's default pool spans its cores
    } else if (cfg.use_horovod && cfg.nodes * cfg.ppn > 1) {
      intra = std::max(1, cores_per_rank - 1);  // leave a core for Horovod
    } else {
      intra = cores_per_rank;
    }
  }
  if (inter == 0) {
    if (cfg.framework == exec::Framework::PyTorch)
      inter = 1;  // eager execution schedules one op at a time
    else
      inter = cpu.threads_per_core > 1 ? 2 : 1;  // the paper's tuned value
  }
  return {intra, inter};
}

namespace {

void validate(const TrainConfig& cfg) {
  cfg.cluster.validate();
  cfg.policy.validate();
  if (cfg.nodes <= 0 || cfg.ppn <= 0) throw std::invalid_argument("TrainConfig: bad nodes/ppn");
  if (cfg.nodes > cfg.cluster.max_nodes)
    throw std::invalid_argument("TrainConfig: nodes exceeds cluster size");
  if (cfg.batch_per_rank <= 0) throw std::invalid_argument("TrainConfig: bad batch");
  if (cfg.device == DeviceKind::Gpu) {
    if (!cfg.cluster.node.has_gpu())
      throw std::invalid_argument("TrainConfig: GPU run on a CPU-only cluster");
    if (cfg.ppn > cfg.cluster.node.gpu->devices_per_node)
      throw std::invalid_argument("TrainConfig: ppn exceeds GPUs per node");
  }
  if (cfg.jitter_cv < 0.0) throw std::invalid_argument("TrainConfig: negative jitter");
  if (cfg.opt_level < 0 || cfg.opt_level > 2)
    throw std::invalid_argument("TrainConfig: opt_level outside [0, 2]");
  if (!cfg.faults.empty() && (!cfg.use_horovod || cfg.nodes * cfg.ppn <= 1))
    throw std::invalid_argument("TrainConfig: fault schedule requires a multi-rank Horovod run");
  for (const auto& d : cfg.link_degrades)
    if (d.level < 0 || d.level > 2 || d.bandwidth_factor <= 0.0 || d.latency_factor <= 0.0)
      throw std::invalid_argument("TrainConfig: malformed link degrade");
}

/// Builds the graph the run executes: the model as defined, rewritten by
/// the enabled optimizer passes. Every stage is verified by the equivalence
/// checker; an unsound rewrite can never reach a measurement.
dnn::Graph build_executed_graph(const TrainConfig& cfg) {
  dnn::Graph graph = dnn::build_model(cfg.model);
  if (cfg.opt_level <= 0) return graph;
  opt::OptOptions oo;
  oo.level = cfg.opt_level;
  oo.pass_mask = cfg.opt_pass_mask;
  opt::OptResult result = opt::optimize(graph, oo);
  if (!result.ok())
    throw std::runtime_error("graph optimizer produced an unsound rewrite:\n" +
                             util::render_text(result.diags));
  return std::move(result.graph);
}

}  // namespace

TrainResult run_training(const TrainConfig& cfg) {
  validate(cfg);
  const dnn::Graph graph = build_executed_graph(cfg);
  if (cfg.validate_memory) {
    const double footprint = dnn::training_memory(graph, cfg.batch_per_rank).total();
    const double budget = cfg.device == DeviceKind::Gpu
                              ? cfg.cluster.node.gpu->memory_gib * 1024.0 * 1024.0 * 1024.0
                              : cfg.cluster.node.memory_gib * 1024.0 * 1024.0 * 1024.0 / cfg.ppn;
    if (footprint > budget) {
      const int max_bs = dnn::max_batch_for_memory(graph, budget);
      throw std::invalid_argument(
          "TrainConfig: batch " + std::to_string(cfg.batch_per_rank) +
          " does not fit in memory (max feasible per-rank batch: " + std::to_string(max_bs) +
          ")");
    }
  }
  const int world = cfg.nodes * cfg.ppn;
  const bool horovod_active = cfg.use_horovod && world > 1;
  if (world > 1 && !cfg.use_horovod)
    throw std::invalid_argument("TrainConfig: multi-rank run requires Horovod");

  // A fault scenario needs every rank simulated explicitly — membership is
  // per-rank state — so it forces per-rank mode.
  const bool per_rank = (cfg.per_rank_sim || !cfg.faults.empty()) && horovod_active;

  hvd::TimelineInput tl;
  tl.policy = cfg.policy;
  tl.iterations = cfg.iterations;
  // Per-rank mode draws jitter explicitly, so the closed-form expected-max
  // straggler factor must not double-count it.
  tl.straggler_factor =
      world > 1 && !per_rank
          ? util::expected_max_normal(1.0, cfg.jitter_cv, static_cast<std::size_t>(world))
          : 1.0;
  if (per_rank) {
    tl.sim_ranks = world;
    tl.per_rank_jitter_cv = cfg.jitter_cv;
    tl.faults = cfg.faults;
  }
  tl.hierarchical_allreduce = horovod_active && cfg.hierarchy != CommHierarchy::Flat;

  TrainResult result;
  result.world_size = world;
  result.effective_batch = world * cfg.batch_per_rank;

  std::optional<mpi::CollectiveCostModel> cost;

  if (cfg.device == DeviceKind::Cpu) {
    const auto threads = resolve_thread_config(cfg);
    result.resolved_intra = threads.intra;
    result.resolved_inter = threads.inter;

    exec::ExecConfig ec;
    ec.framework = cfg.framework;
    ec.intra_threads = threads.intra;
    ec.inter_threads = threads.inter;
    ec.batch = cfg.batch_per_rank;
    ec.horovod_thread = horovod_active;

    const exec::Placement placement =
        exec::place_rank(cfg.cluster.node.cpu, cfg.ppn, threads.intra);
    const exec::CpuExecModel model(cfg.cluster.node.cpu);

    const auto fwd = model.forward(graph, ec, placement);
    const auto bwd = model.backward(graph, ec, placement);
    tl.fwd_time = fwd.duration;
    tl.bwd_time = bwd.duration;
    tl.grad_events = bwd.grad_events;
    tl.optimizer_time = model.optimizer_time(graph, placement);
    tl.iteration_fixed = model.iteration_fixed_overhead(cfg.framework);
    tl.comm_thread_shares_core = horovod_active && threads.intra >= placement.cores;
    tl.cores_per_rank = placement.cores;

    if (horovod_active) {
      // ThreeLevel adds the NUMA stage when the CPU exposes one and ranks
      // split evenly across domains; otherwise it degrades to TwoLevel.
      const int numa = cfg.cluster.node.cpu.numa_domains();
      const int numa_per_node =
          cfg.hierarchy == CommHierarchy::ThreeLevel && numa > 1 && cfg.ppn % numa == 0
              ? numa
              : 1;
      net::Topology topo(
          cfg.nodes, cfg.ppn, cfg.cluster.fabric, net::shared_memory_params(), numa_per_node,
          numa_per_node > 1 ? net::numa_local_params() : net::shared_memory_params());
      for (const auto& d : cfg.link_degrades)
        topo.degrade(d.level, d.bandwidth_factor, d.latency_factor);
      cost.emplace(std::move(topo));
    }
  } else {
    result.resolved_intra = 1;
    result.resolved_inter = 1;
    const exec::GpuExecModel model(*cfg.cluster.node.gpu);
    const auto fwd = model.forward(graph, cfg.framework, cfg.batch_per_rank);
    const auto bwd = model.backward(graph, cfg.framework, cfg.batch_per_rank);
    tl.fwd_time = fwd.duration;
    tl.bwd_time = bwd.duration;
    tl.grad_events = bwd.grad_events;
    tl.optimizer_time = model.optimizer_time(graph);
    tl.iteration_fixed = model.iteration_fixed_overhead(cfg.framework);
    tl.comm_thread_shares_core = false;  // host cores are idle during GPU runs

    if (horovod_active) {
      net::Topology topo(cfg.nodes, cfg.ppn, cfg.cluster.fabric, net::pcie3_x16_params());
      for (const auto& d : cfg.link_degrades)
        topo.degrade(d.level, d.bandwidth_factor, d.latency_factor);
      cost.emplace(std::move(topo));
    }
  }

  tl.cost = cost ? &*cost : nullptr;

  const hvd::TimelineResult sim = hvd::simulate_training(tl);
  result.per_iteration_s = sim.per_iteration;
  // Crashed ranks train no images: throughput counts only alive ranks'
  // batches. On a healthy run every step contributes the full world and the
  // fraction is exactly 1.
  if (per_rank && !sim.iteration_alive_ranks.empty()) {
    double alive_sum = 0.0;
    for (int alive : sim.iteration_alive_ranks) alive_sum += alive;
    result.alive_rank_fraction =
        alive_sum / (static_cast<double>(sim.iteration_alive_ranks.size()) * world);
  }
  result.images_per_sec = static_cast<double>(result.effective_batch) *
                          result.alive_rank_fraction / sim.per_iteration;
  result.iteration_seconds = sim.iteration_seconds;
  result.membership_changes = sim.membership_changes;
  result.fwd_s = tl.fwd_time;
  result.bwd_s = tl.bwd_time;
  result.optimizer_s = tl.optimizer_time;
  result.comm = sim.stats;
  result.comm_exposed_fraction = sim.comm_exposed_fraction;
  result.comm_busy_per_iteration_s = sim.comm_busy_total / cfg.iterations;
  result.straggler_stretch = per_rank ? sim.mean_max_rank_factor : tl.straggler_factor;
  result.sim_ranks = tl.sim_ranks;
  result.sim_events = sim.events_processed;
  result.sim_pool_slots = sim.pool_slots;

  // Modeled-run outcome gauges (virtual time, not wall time): each measured
  // config's values land in its Experiment scorecard via snapshot deltas.
  static const auto rate_gauge = util::metrics::gauge(
      "sim_images_per_sec", "Modeled throughput of the most recent simulated config");
  static const auto iter_gauge = util::metrics::gauge(
      "sim_iteration_seconds", "Modeled per-iteration time of the most recent simulated config");
  static const auto exposed_gauge = util::metrics::gauge(
      "sim_comm_exposed_fraction", "Modeled fraction of run time exposed to communication");
  rate_gauge.set(result.images_per_sec);
  iter_gauge.set(result.per_iteration_s);
  exposed_gauge.set(result.comm_exposed_fraction);
  return result;
}

double speedup_vs_single_node(const TrainConfig& cfg) {
  TrainConfig base = cfg;
  base.nodes = 1;
  const double single = run_training(base).images_per_sec;
  const double multi = run_training(cfg).images_per_sec;
  return multi / single;
}

}  // namespace dnnperf::train
