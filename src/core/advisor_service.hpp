// AdvisorService: the paper's Section IX advisor ("given model M on platform
// P with N nodes, which (ppn, intra-op, inter-op, batch) config?") as a
// high-throughput in-process query service (§6.6).
//
// A query is an AdvisorRequest; the planner enumerates its candidate grid
// (the same enumeration the serial core::advise() used), the evaluator fans
// the uncached grid points out across a ref::ThreadPool with grain-aware
// chunking, and every per-config Measurement lands in a sharded
// content-addressed EvalCache — repeated and overlapping sweeps reuse
// sub-results instead of re-simulating. ask_many() batches queries:
// grid points shared by the requests in one batch are deduplicated before
// dispatch, so ten clients asking about the same platform cost one sweep.
//
// Throughput model: a warm query is pure hash lookups (shard-striped, no
// global lock) and runs concurrently with anything; a cold sweep serializes
// on the pool dispatch (ThreadPool::parallel_for has one external caller at
// a time) but its evaluations run on all pool threads. qps, cache hit/miss
// counters, and the advisor_query_seconds p50/p99 histogram are published on
// the util::metrics registry; bench/advisor_load is the closed-loop load
// generator and ci/check.sh smoke-tests hit rate and qps.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/advisor.hpp"
#include "core/eval_cache.hpp"
#include "core/scenario.hpp"
#include "prof/profile.hpp"
#include "ref/threadpool.hpp"

namespace dnnperf::core {

/// What the query optimizes for over the candidate grid.
enum class Objective {
  MaxImagesPerSec,  ///< highest aggregate throughput (the paper's metric)
  MinStepTime,      ///< lowest per-iteration latency (interactive tuning)
};

const char* to_string(Objective objective);

/// One what-if query: model M on platform P (fabric/topology ride along in
/// the ClusterModel) with N nodes under a framework and an objective.
struct AdvisorRequest {
  hw::ClusterModel cluster;
  dnn::ModelId model = dnn::ModelId::ResNet50;
  exec::Framework framework = exec::Framework::TensorFlow;
  train::DeviceKind device = train::DeviceKind::Cpu;
  int nodes = 1;
  Objective objective = Objective::MaxImagesPerSec;

  /// Candidate per-rank batch sizes (paper Section V-A keeps batches modest).
  std::vector<int> batch_candidates{16, 32, 64, 128};
  /// Candidate ppn values; empty = power-of-two divisors of the core count
  /// (CPU) or of the GPUs per node (GPU), plus the full count.
  std::vector<int> ppn_candidates;
  /// Graph-optimizer levels to sweep as a grid dimension (each must be in
  /// [0, 2], A003). Default probes only the as-built graph; add 1/2 to ask
  /// "what does verified fusion buy on this platform?" alongside the thread
  /// and batch knobs.
  std::vector<int> opt_levels{0};
  /// Horovod tuning applied to every grid point.
  hvd::FusionPolicy policy;
  /// Build the full search TextTable in the reply. Off by default: rendering
  /// a few hundred rows costs more than answering a warm query.
  bool want_table = false;
};

/// The answer: best config under the objective plus query-economics stats.
struct AdvisorReply {
  Recommendation recommendation;
  double objective_value = 0.0;  ///< img/s or seconds, per the objective
  std::size_t grid_points = 0;   ///< configs the planner enumerated
  std::size_t cache_hits = 0;    ///< grid points served from the cache
  std::size_t deduplicated = 0;  ///< points shared with earlier queries in the batch
  std::size_t evaluated = 0;     ///< fresh simulations this query triggered
  /// What bounds the recommended config's step time (prof verdict rule), so
  /// the recommendation says not just "fastest" but "fastest, and here is
  /// where its remaining time goes".
  prof::Verdict verdict = prof::Verdict::ComputeBound;
  double overlap_fraction = 0.0;  ///< comm busy time overlapped with compute
  std::string verdict_reason;
};

/// One fixed per-node geometry swept across node counts — the paper's
/// Fig. 13–17 scaling curves as a service query, priced up to 16k ranks
/// (raise cluster.max_nodes for the large sweeps; a per-rank pooled DES
/// point at 4k ranks still answers in seconds).
struct ScalingRequest {
  hw::ClusterModel cluster;
  dnn::ModelId model = dnn::ModelId::ResNet50;
  exec::Framework framework = exec::Framework::TensorFlow;
  train::DeviceKind device = train::DeviceKind::Cpu;
  /// Node counts to sweep; each must be in [1, cluster.max_nodes] (A002).
  std::vector<int> node_counts{1, 2, 4, 8};
  int ppn = 1;
  int batch_per_rank = 64;
  int intra_threads = 0;  ///< 0 = the paper's auto rule
  int inter_threads = 0;
  hvd::FusionPolicy policy;
  /// Collective hierarchy priced at every point (the --hierarchy knob).
  train::CommHierarchy hierarchy = train::CommHierarchy::Flat;
  /// Graph-optimizer level applied at every point (0-2, A003).
  int opt_level = 0;
  /// Simulate every rank explicitly through the pooled event engine, which
  /// also fills the sim_events/sim_pool_slots fields of each point.
  bool per_rank_sim = false;
};

/// One point of a scaling curve, plus the derived speedup/efficiency the
/// paper's figures plot.
struct ScalingPoint {
  train::TrainConfig config;
  int nodes = 0;
  int ranks = 0;
  double images_per_sec = 0.0;
  double per_iteration_s = 0.0;
  double speedup = 0.0;     ///< vs the smallest swept node count
  double efficiency = 0.0;  ///< speedup / (ranks / base ranks)
  std::uint64_t sim_events = 0;
  std::uint64_t sim_pool_slots = 0;
  /// Bottleneck attribution for this point: why the curve bends here
  /// (exposed comm, straggler skew, ...), plus the overlap achieved.
  prof::Verdict verdict = prof::Verdict::ComputeBound;
  double overlap_fraction = 0.0;
};

/// One survivability query: how much throughput does `config` retain when
/// `scenario` plays out? ("1 rank crashes at step 10 and rejoins at step
/// 30" as a service question.)
struct SurvivabilityRequest {
  train::TrainConfig config;
  Scenario scenario;
};

/// The answer: the healthy and faulted measurements side by side, plus the
/// retention figure the operator actually wants.
struct SurvivabilityReply {
  double healthy_images_per_sec = 0.0;
  double scenario_images_per_sec = 0.0;
  /// scenario / healthy throughput; 1.0 = the fault cost nothing.
  double throughput_retention = 0.0;
  /// Mean alive-rank fraction over the faulted run's iterations.
  double alive_rank_fraction = 1.0;
  std::uint64_t membership_changes = 0;
  /// Per-iteration times of the faulted run (the recovery curve); empty for
  /// an empty scenario, which has nothing to recover from.
  std::vector<double> iteration_seconds;
  std::size_t cache_hits = 0;  ///< of the two measurements, served warm
  std::size_t evaluated = 0;   ///< fresh simulations this query triggered
  /// Bottleneck attribution of the faulted run.
  prof::Verdict verdict = prof::Verdict::ComputeBound;
  std::string verdict_reason;
};

struct AdvisorServiceOptions {
  /// Evaluation pool width; 0 = std::thread::hardware_concurrency (min 2).
  int threads = 0;
  /// EvalCache capacity (measurements) and shard count.
  std::size_t cache_capacity = 1 << 16;
  int cache_shards = 16;
  /// Measurement protocol per grid point. noise_cv = 0 keeps grid values
  /// exactly equal to the deterministic simulation (and to the old serial
  /// advise()); raise it to exercise the paper's repeat-and-average protocol.
  int repeats = 1;
  double noise_cv = 0.0;
  std::uint64_t seed = 2019;
  /// Lint every grid point through the memoized gate. Off by default —
  /// advisor sweeps are deliberate what-if exploration over configs the
  /// schedule lint may reject, exactly the Experiment::set_lint(false) case.
  bool lint = false;
  /// Minimum grid points per pool chunk; evaluations are ~0.1–1 ms each, so
  /// a small grain amortizes dispatch without starving the pool.
  std::size_t min_grain = 2;
};

/// Batched, cached, parallel what-if query engine. Thread-safe: any number
/// of threads may call ask()/ask_many() concurrently; warm queries only
/// touch the sharded cache, cold sweeps serialize on the internal pool.
class AdvisorService {
 public:
  explicit AdvisorService(AdvisorServiceOptions options = {});

  /// Answers one query. Equivalent to ask_many({request})[0].
  AdvisorReply ask(const AdvisorRequest& request);

  /// Answers a batch: candidate grids are planned per request, deduplicated
  /// across the whole batch by config content hash, probed against the
  /// cache, and only the remaining unique points are simulated (in parallel
  /// on the pool). Replies come back in request order. Throws
  /// std::invalid_argument (with rendered A-code diagnostics) if any request
  /// is malformed — nothing is evaluated in that case.
  std::vector<AdvisorReply> ask_many(const std::vector<AdvisorRequest>& requests);

  /// Sweeps one fixed per-node geometry across request.node_counts and
  /// returns the points in ascending node order with speedup/efficiency
  /// relative to the smallest count. Points share the eval cache with
  /// ask()/ask_many() — a curve overlapping an earlier sweep only simulates
  /// the new node counts. Throws std::invalid_argument (A-code diagnostics)
  /// on malformed requests.
  std::vector<ScalingPoint> scaling_curve(const ScalingRequest& request);

  /// Prices one fault scenario against the same config run healthy. Both
  /// sides go through the memoized lint gate regardless of options.lint —
  /// the faulted config's verdict includes the F-family scenario lint and
  /// the elastic crash/rejoin model check, so every survivability answer is
  /// lint-gated and model-checked by construction; Error findings throw
  /// std::invalid_argument with the rendered diagnostics. Both measurements
  /// land in (and are served from) the shared eval cache — the scenario is
  /// content-hashed into the config key, so a faulted run can never alias
  /// the healthy entry.
  SurvivabilityReply survivability(const SurvivabilityRequest& request);

  /// Grid enumeration, exposed for tests and the load generator. Validates
  /// the request (A001 empty candidate grid, A002 bad node count, A003 bad
  /// candidate value) and throws std::invalid_argument on Error findings.
  static std::vector<train::TrainConfig> plan_grid(const AdvisorRequest& request);

  const EvalCache& cache() const { return cache_; }
  EvalCache& cache() { return cache_; }
  int threads() const { return pool_.threads(); }
  std::uint64_t queries_answered() const;

 private:
  /// Measures one config (pool worker side), compacts the result and
  /// caches it. Thread-safe.
  EvalRecord evaluate(const train::TrainConfig& config, std::uint64_t key);

  AdvisorServiceOptions options_;
  Experiment experiment_;
  EvalCache cache_;
  ref::ThreadPool pool_;
  /// ThreadPool::parallel_for admits one external caller at a time; cold
  /// sweeps from concurrent queries take turns on the pool (warm queries
  /// never touch it).
  std::mutex dispatch_mutex_;

  mutable std::mutex stats_mutex_;
  std::uint64_t queries_ = 0;
  double first_query_time_ = -1.0;  ///< seconds on a steady clock, -1 = none
};

/// Process-wide service instance backing core::advise(): one shared cache,
/// one shared pool, so every advise() caller (figures, benches, tests)
/// benefits from every other caller's sweeps.
AdvisorService& default_advisor_service();

}  // namespace dnnperf::core
