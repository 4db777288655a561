#include "analysis/registry.hpp"

#include <stdexcept>
#include <unordered_map>

namespace dnnperf::analysis {

const std::vector<PassInfo>& pass_registry() {
  using util::Severity;
  static const std::vector<PassInfo> table = {
      // ---- graph passes ----------------------------------------------------
      {"G001", Severity::Error, "graph",
       "op output shape inconsistent with its inputs (shape inference re-check)"},
      {"G002", Severity::Error, "graph",
       "malformed dataflow: empty graph, non-Input op without inputs, Input with inputs, "
       "or input ids out of range / not topological"},
      {"G003", Severity::Warn, "graph",
       "dead op: output never consumed and not the terminal op"},
      {"G004", Severity::Error, "graph", "op unreachable from the graph input"},
      {"G005", Severity::Error, "graph",
       "non-finite or negative FLOP/parameter/byte counts, or parameters on an op kind "
       "that cannot carry them"},
      {"G006", Severity::Error, "graph",
       "gradient tensor list inconsistent with the graph's parameter totals"},
      {"G007", Severity::Warn, "graph", "duplicate op name"},
      {"G008", Severity::Error, "graph",
       "op id does not match its position in the op vector (Graph::from_ops contract; "
       "every id-indexed lookup would read the wrong op)"},
      // ---- platform passes -------------------------------------------------
      {"P001", Severity::Error, "platform",
       "non-positive socket, core, NUMA-domain, or hardware-thread count"},
      {"P002", Severity::Error, "platform",
       "cores per socket not divisible by NUMA domains per socket"},
      {"P003", Severity::Error, "platform", "threads per core not in {1, 2, 4}"},
      {"P004", Severity::Error, "platform",
       "SMT speedup fraction outside [0, 1] or set while SMT is off"},
      {"P005", Severity::Warn, "platform", "core clock outside the sane range [0.8, 5.0] GHz"},
      {"P006", Severity::Warn, "platform",
       "per-socket memory bandwidth outside the sane range [10, 600] GB/s"},
      {"P007", Severity::Warn, "platform",
       "fp32 FLOPs per cycle per core outside the sane range [1, 256]"},
      {"P008", Severity::Error, "platform",
       "cluster invariant violated: max_nodes <= 0 or node memory <= 0"},
      {"P009", Severity::Error, "platform",
       "GPU model invalid: non-positive rates, memory, fraction, or devices per node"},
      // ---- network passes --------------------------------------------------
      {"N001", Severity::Error, "network",
       "link parameters invalid: negative latency/overhead or non-positive bandwidth"},
      {"N002", Severity::Error, "network",
       "rank pair unreachable or node/local-rank mapping inconsistent"},
      {"N003", Severity::Warn, "network",
       "latency inversion: intra-node latency exceeds inter-node latency"},
      {"N004", Severity::Advice, "network",
       "intra-node bandwidth below inter-node bandwidth; shared-memory staging can "
       "bottleneck hierarchical collectives"},
      {"N005", Severity::Warn, "network",
       "bandwidth or latency outside sane physical ranges"},
      // ---- Horovod policy passes -------------------------------------------
      {"H001", Severity::Error, "policy", "cycle time non-positive or non-finite"},
      {"H002", Severity::Error, "policy", "fusion threshold non-positive or non-finite"},
      {"H003", Severity::Advice, "policy",
       "cycle time mismatched to the fabric: shorter than a negotiation round trip, or so "
       "long that ready gradients stall"},
      {"H004", Severity::Warn, "policy",
       "largest gradient tensor exceeds the fusion threshold and is always sent unfused"},
      {"H005", Severity::Advice, "policy",
       "fusion threshold is over 4x the model's total gradient bytes (possible unit "
       "error; fusion tuning has no effect)"},
      // ---- schedule / run-configuration passes -----------------------------
      {"S001", Severity::Error, "schedule",
       "non-positive nodes, ppn, or batch size, or optimizer level outside [0, 2]"},
      {"S002", Severity::Error, "schedule", "nodes exceed the cluster's size"},
      {"S003", Severity::Error, "schedule", "ppn exceeds the node's physical cores (CPU run)"},
      {"S004", Severity::Error, "schedule",
       "ppn x intra-op threads exceed the node's hardware threads (hard oversubscription)"},
      {"S005", Severity::Warn, "schedule",
       "ppn x intra-op threads exceed physical cores (Warn when SMT is off, Advice when "
       "SMT absorbs the extra threads)"},
      {"S006", Severity::Error, "schedule", "multi-rank run without Horovod enabled"},
      {"S007", Severity::Error, "schedule",
       "GPU run on a CPU-only cluster, or ppn exceeds GPUs per node"},
      {"S008", Severity::Warn, "schedule",
       "tensor-lifetime memory plan (weights + gradients + optimizer state + planned "
       "activation slab) exceeds the per-rank memory budget"},
      {"S009", Severity::Advice, "schedule",
       "no spare core for the Horovod progress thread (paper rule: intra-op = cores/ppn "
       "- 1)"},
      {"S010", Severity::Advice, "schedule",
       "ppn misaligned with NUMA domains; ranks span domains and pay remote-memory "
       "penalties"},
      {"S011", Severity::Advice, "schedule",
       "per-rank batch not a multiple of 8; SIMD and cache blocking run partially empty"},
      {"S012", Severity::Advice, "schedule",
       "TensorFlow inter-op threads off the paper's tuned rule (2 with SMT, 1 without)"},
      {"S013", Severity::Warn, "schedule",
       "reuse-optimistic footprint estimate diverges from the tensor-lifetime plan by "
       "more than 2x (one of the two memory models is mis-stating this graph)"},
      // ---- advisor-request validation (core::AdvisorService) ---------------
      {"A001", Severity::Error, "advisor",
       "candidate grid is empty: no batch sizes to search (a silent empty search "
       "would return a zero-throughput Recommendation)"},
      {"A002", Severity::Error, "advisor",
       "requested node count outside [1, cluster max_nodes]"},
      {"A003", Severity::Error, "advisor",
       "infeasible candidate value: non-positive batch/ppn, ppn above the GPUs per "
       "node, or a GPU search on a CPU-only cluster"},
      // ---- graph-optimizer equivalence checker (src/opt) --------------------
      {"O001", Severity::Error, "optimizer",
       "rewritten graph fails structure or shape re-inference: broken ids/topology, "
       "lost inputs, or op accounting inconsistent with its shape"},
      {"O002", Severity::Error, "optimizer",
       "declared RewriteLog deltas disagree with the actual change in graph totals "
       "(params / FLOPs / activation bytes)"},
      {"O003", Severity::Error, "optimizer",
       "folded conv+BN weights diverge from the reference BN affine transform beyond "
       "tolerance (unsound fusion; hint carries the minimal rewrite trace)"},
      {"O004", Severity::Error, "optimizer",
       "rewrite changed the model's observable interface (terminal output shape or "
       "Input op count/shapes)"},
      // ---- metrics-registry passes -----------------------------------------
      {"M001", Severity::Error, "metrics",
       "metric name registered under more than one kind (duplicate registration)"},
      {"M002", Severity::Error, "metrics",
       "metric name outside the Prometheus charset [a-zA-Z_:][a-zA-Z0-9_:]*"},
      {"M003", Severity::Error, "metrics",
       "non-finite metric value (NaN/Inf gauge or histogram statistic), typically a "
       "ratio or rate computed before its denominator ever ticked"},
      // ---- protocol model-checker verdicts (verify_engine) -----------------
      {"V001", Severity::Error, "verify-engine",
       "deadlock: a reachable state where no rank can submit and the engine cycle "
       "packs nothing, with tensors incomplete"},
      {"V002", Severity::Error, "verify-engine",
       "starvation: a tensor no interleaving can complete (e.g. larger than a "
       "strict-capacity fusion buffer)"},
      {"V003", Severity::Error, "verify-engine",
       "accounting: a cycle re-issues a completed tensor, so engine-issued "
       "allreduces exceed framework requests"},
      {"V004", Severity::Error, "verify-engine",
       "overflow: a planned fusion buffer exceeds the capacity bound"},
      {"V005", Severity::Error, "verify-engine",
       "readiness: a data allreduce ships a tensor some rank never submitted"},
      {"V006", Severity::Warn, "verify-engine",
       "exploration truncated at the state bound; verification incomplete"},
      // ---- happens-before trace verdicts (verify_trace) --------------------
      {"V101", Severity::Error, "verify-trace",
       "malformed trace document: unparseable JSON or events missing required fields"},
      {"V102", Severity::Error, "verify-trace",
       "span nesting violation: complete events on one track partially overlap"},
      {"V103", Severity::Error, "verify-trace",
       "cross-rank mismatch: engine cycles or per-cycle data-allreduce sequences "
       "differ between rank tracks"},
      {"V104", Severity::Error, "verify-trace",
       "cycle monotonicity violation: a rank's engine cycles overlap in time"},
      // ---- elastic model-checker verdicts (verify_config_elastic) ----------
      {"V201", Severity::Error, "verify-elastic",
       "deadlock-on-crash: the survivors' negotiation still waits on a crashed rank "
       "(readiness Min-reduce never re-formed over the shrunk membership set)"},
      {"V202", Severity::Error, "verify-elastic",
       "lost gradient: crash handling marks a submitted tensor completed without a "
       "data allreduce, silently dropping it from the sum"},
      {"V203", Severity::Error, "verify-elastic",
       "ghost contribution: a crashed rank's stale readiness bits are still counted "
       "after the shrink — a tensor ships that no alive rank submitted"},
      {"V204", Severity::Error, "verify-elastic",
       "double count: a rejoin replays completed tensors past the completion mask "
       "into a second data allreduce"},
      {"V205", Severity::Error, "verify-elastic",
       "non-convergent regrow: a rejoin admission never completes; membership never "
       "re-stabilizes and data cycles stay suspended"},
      // ---- profiler verdicts (src/prof) -------------------------------------
      {"T001", Severity::Warn, "profile",
       "phase accounting gap: more than the threshold fraction of step time falls "
       "outside the input/forward/backward/exchange/optimizer scopes"},
      {"T002", Severity::Advice, "profile",
       "compute-communication overlap below half the fusion policy's achievable bound "
       "(1 - cycle_time / backward_time)"},
      {"T003", Severity::Warn, "profile",
       "straggler skew: inter-rank backward completion spread exceeds the threshold "
       "fraction of step time (synchronous SGD runs at the slowest rank's pace)"},
      {"T004", Severity::Advice, "profile",
       "allreduce efficiency: a tensor-size bucket achieves under half the collective "
       "cost model's bandwidth"},
      {"T005", Severity::Error, "profile",
       "no profilable step structure: no track in the trace carries 'step' spans"},
      // ---- fault-scenario passes (lint_faults) ------------------------------
      {"F001", Severity::Error, "scenario",
       "scenario references a nonexistent rank, or carries malformed event values "
       "(slowdown factor outside (0, 1e9] or not finite, negative step, empty step range)"},
      {"F002", Severity::Error, "scenario",
       "rejoin scheduled at or before the rank's crash (or with no crash at all); "
       "a rank cannot regrow into a ring it never left"},
      {"F003", Severity::Error, "scenario",
       "crash schedule exceeds the fault budget, or leaves no rank alive at some step"},
      {"F004", Severity::Error, "scenario",
       "degraded link level absent from the run's topology (inter-node on one node, "
       "intra-node at ppn=1, intra-NUMA without a NUMA stage), or non-positive factors"},
  };
  return table;
}

const PassInfo& pass_info(const std::string& code) {
  // Built once: lint_config alone performs dozens of lookups per run, and a
  // linear scan per lookup made registry access quadratic in pass count.
  static const std::unordered_map<std::string, std::size_t> index = [] {
    std::unordered_map<std::string, std::size_t> m;
    const auto& table = pass_registry();
    m.reserve(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) m.emplace(table[i].code, i);
    return m;
  }();
  const auto it = index.find(code);
  if (it == index.end()) throw std::out_of_range("unknown pass code: " + code);
  return pass_registry()[it->second];
}

}  // namespace dnnperf::analysis
