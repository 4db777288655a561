#include "core/advisor_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "prof/profile.hpp"
#include "util/diag.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"

namespace dnnperf::core {

namespace {

/// Bottleneck attribution of one cached evaluation, via the profiler's
/// analytic classification (prof::classify_sim_point), which reads compute
/// only as the forward + backward + optimizer sum the record stores. The
/// stretch is at least the closed-form expected max over the world (what
/// representative mode applies), so a per-rank point never reads less skew
/// than its representative twin.
prof::SimPointVerdict classify_record(const train::TrainConfig& cfg, const EvalRecord& r) {
  prof::SimPointInputs in;
  in.step_s = r.per_iteration_s;
  in.forward_s = r.compute_s;
  in.comm_exposed_fraction = r.comm_exposed_fraction;
  in.comm_busy_s = r.comm_busy_per_iteration_s;
  const std::size_t ranks = static_cast<std::size_t>(cfg.nodes) * cfg.ppn;
  in.straggler_stretch =
      ranks > 1 ? std::max(r.straggler_stretch,
                           util::expected_max_normal(1.0, cfg.jitter_cv, ranks))
                : 1.0;
  return prof::classify_sim_point(in);
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Registry handles for the service-level metrics; cache hit/miss/eviction
/// counters live in EvalCache, the lint-memo counters in core/eval_cache.
struct ServiceMetrics {
  util::metrics::Counter queries = util::metrics::counter(
      "advisor_queries_total", "What-if queries answered by the advisor service");
  util::metrics::Counter batches = util::metrics::counter(
      "advisor_batches_total", "ask_many() batches dispatched");
  util::metrics::Counter grid_points = util::metrics::counter(
      "advisor_grid_points_total", "Candidate grid points enumerated across all queries");
  util::metrics::Counter deduplicated = util::metrics::counter(
      "advisor_points_deduped_total",
      "Grid points shared with an earlier query in the same batch (not re-probed)");
  util::metrics::Counter evaluations = util::metrics::counter(
      "advisor_evaluations_total", "Fresh simulations dispatched to the evaluation pool");
  util::metrics::Histogram query_seconds = util::metrics::histogram(
      "advisor_query_seconds", "Wall time to answer one advisor query, seconds");
  util::metrics::Gauge qps = util::metrics::gauge(
      "advisor_queries_per_sec", "Cumulative advisor query throughput since first query");
  util::metrics::Gauge hit_ratio = util::metrics::gauge(
      "advisor_cache_hit_ratio", "Eval-cache hit fraction over the service lifetime");
};

const ServiceMetrics& service_metrics() {
  static const ServiceMetrics m;
  return m;
}

std::vector<int> default_ppn_candidates(int units) {
  std::vector<int> out;
  for (int p = 1; p <= units; p *= 2)
    if (units % p == 0) out.push_back(p);
  if (std::find(out.begin(), out.end(), units) == out.end()) out.push_back(units);
  return out;
}

std::string request_label(const AdvisorRequest& req) {
  std::string label = dnn::to_string(req.model);
  label += "@";
  label += req.cluster.name.empty() ? "cluster" : req.cluster.name;
  label += " n" + std::to_string(req.nodes);
  label += " (";
  label += exec::to_string(req.framework);
  if (req.device == train::DeviceKind::Gpu) label += "/GPU";
  label += ")";
  return label;
}

/// A001/A002/A003 request validation. Collects every problem, then throws
/// std::invalid_argument with the rendered diagnostics if any is an Error —
/// the old advise() silently searched nothing over an empty grid and
/// returned a zero-throughput Recommendation.
void validate_request(const AdvisorRequest& req) {
  util::Diagnostics diags;
  const std::string object = request_label(req);
  if (req.nodes <= 0) {
    diags.error("A002", object, "nodes",
                "node count " + std::to_string(req.nodes) + " is not positive",
                "ask for at least one node");
  } else if (req.nodes > req.cluster.max_nodes) {
    diags.error("A002", object, "nodes",
                "node count " + std::to_string(req.nodes) + " exceeds the cluster's " +
                    std::to_string(req.cluster.max_nodes) + " nodes",
                "lower nodes or raise ClusterModel::max_nodes");
  }
  if (req.batch_candidates.empty()) {
    diags.error("A001", object, "batch_candidates",
                "candidate grid is empty: no batch sizes to search",
                "provide at least one per-rank batch size");
  }
  for (const int bs : req.batch_candidates)
    if (bs <= 0)
      diags.error("A003", object, "batch_candidates",
                  "batch candidate " + std::to_string(bs) + " is not positive");
  for (const int ppn : req.ppn_candidates)
    if (ppn <= 0)
      diags.error("A003", object, "ppn_candidates",
                  "ppn candidate " + std::to_string(ppn) + " is not positive");
  if (req.opt_levels.empty())
    diags.error("A001", object, "opt_levels",
                "candidate grid is empty: no optimizer levels to search",
                "the default {0} probes the as-built graph only");
  for (const int level : req.opt_levels)
    if (level < 0 || level > 2)
      diags.error("A003", object, "opt_levels",
                  "optimizer level " + std::to_string(level) + " outside [0, 2]");
  if (req.device == train::DeviceKind::Gpu) {
    if (!req.cluster.node.has_gpu()) {
      diags.error("A003", object, "device", "GPU search on a CPU-only cluster",
                  "pick a GPU platform or device = Cpu");
    } else {
      for (const int ppn : req.ppn_candidates)
        if (ppn > req.cluster.node.gpu->devices_per_node)
          diags.error("A003", object, "ppn_candidates",
                      "ppn candidate " + std::to_string(ppn) + " exceeds the " +
                          std::to_string(req.cluster.node.gpu->devices_per_node) +
                          " GPUs per node");
    }
  }
  if (diags.has_errors())
    throw std::invalid_argument("AdvisorService: invalid request\n" + util::render_text(diags));
}

}  // namespace

const char* to_string(Objective objective) {
  switch (objective) {
    case Objective::MaxImagesPerSec: return "max-images-per-sec";
    case Objective::MinStepTime: return "min-step-time";
  }
  return "?";
}

std::vector<train::TrainConfig> AdvisorService::plan_grid(const AdvisorRequest& req) {
  validate_request(req);
  std::vector<train::TrainConfig> grid;

  const bool gpu = req.device == train::DeviceKind::Gpu;
  const int cores = req.cluster.node.cpu.total_cores();
  const bool smt = req.cluster.node.cpu.threads_per_core > 1;
  const std::vector<int> ppns =
      !req.ppn_candidates.empty()
          ? req.ppn_candidates
          : default_ppn_candidates(gpu ? req.cluster.node.gpu->devices_per_node : cores);

  for (const int ppn : ppns) {
    // Thread candidates around the paper's intra-op rule: all of the rank's
    // cores, one fewer (spare core for the Horovod thread), and — on wide
    // ranks — one more (oversubscription probe). GPUs ignore host threads.
    std::vector<int> intras{1};
    std::vector<int> inters{1};
    if (!gpu) {
      const int cores_per_rank = std::max(1, cores / ppn);
      intras = {cores_per_rank};
      if (cores_per_rank > 1) intras.push_back(cores_per_rank - 1);
      if (cores_per_rank > 4) intras.push_back(cores_per_rank + 1);
      if (req.framework != exec::Framework::PyTorch && smt) inters = {1, 2};
    }
    for (const int intra : intras) {
      for (const int inter : inters) {
        for (const int bs : req.batch_candidates) {
          for (const int level : req.opt_levels) {
            train::TrainConfig cfg;
            cfg.cluster = req.cluster;
            cfg.model = req.model;
            cfg.framework = req.framework;
            cfg.device = req.device;
            cfg.nodes = req.nodes;
            cfg.ppn = ppn;
            cfg.intra_threads = intra;
            cfg.inter_threads = inter;
            cfg.batch_per_rank = bs;
            cfg.policy = req.policy;
            cfg.use_horovod = req.nodes * ppn > 1;
            cfg.opt_level = level;
            grid.push_back(std::move(cfg));
          }
        }
      }
    }
  }
  return grid;
}

AdvisorService::AdvisorService(AdvisorServiceOptions options)
    : options_(options),
      experiment_(options.repeats, options.noise_cv, options.seed),
      cache_(options.cache_capacity, options.cache_shards),
      pool_(options.threads > 0
                ? options.threads
                : std::max(2, static_cast<int>(std::thread::hardware_concurrency()))) {
  experiment_.set_lint(options_.lint);
  // Register the service metrics now, not lazily at the first query: a
  // snapshot of an idle service must carry the qps/hit-ratio gauges as
  // finite zeros (lint pass M003), not omit them or divide 0 by 0.
  (void)service_metrics();
}

AdvisorReply AdvisorService::ask(const AdvisorRequest& request) {
  return ask_many({request}).front();
}

std::vector<AdvisorReply> AdvisorService::ask_many(const std::vector<AdvisorRequest>& requests) {
  if (requests.empty()) return {};
  const double t0 = now_seconds();
  const ServiceMetrics& metrics = service_metrics();

  // Plan every grid first: a malformed request throws before anything runs.
  enum class Origin { CacheHit, Deduplicated, Evaluated };
  struct Point {
    train::TrainConfig config;
    std::uint64_t key = 0;
    Origin origin = Origin::CacheHit;
  };
  std::vector<std::vector<Point>> grids;
  grids.reserve(requests.size());
  for (const AdvisorRequest& req : requests) {
    std::vector<train::TrainConfig> configs = plan_grid(req);
    std::vector<Point> grid;
    grid.reserve(configs.size());
    for (auto& cfg : configs) {
      Point p;
      p.key = config_key(cfg);
      p.config = std::move(cfg);
      grid.push_back(std::move(p));
    }
    grids.push_back(std::move(grid));
  }

  // Classify: the first occurrence of a key in the batch probes the cache;
  // repeats are batch-level dedup and cost nothing. Records are kept in
  // a batch-local map so eviction during this very batch cannot lose them.
  std::unordered_map<std::uint64_t, EvalRecord> results;
  std::vector<Point*> to_eval;
  std::unordered_set<std::uint64_t> seen;
  for (auto& grid : grids) {
    for (auto& point : grid) {
      if (!seen.insert(point.key).second) {
        point.origin = Origin::Deduplicated;
        continue;
      }
      if (auto cached = cache_.lookup(point.key)) {
        point.origin = Origin::CacheHit;
        results.emplace(point.key, std::move(*cached));
      } else {
        point.origin = Origin::Evaluated;
        to_eval.push_back(&point);
      }
    }
  }

  // Fan the fresh points out across the pool. Completed evaluations are
  // compacted and go into the cache from inside the worker, so a lint
  // failure part-way through a batch (lint mode) does not discard sibling
  // results.
  if (!to_eval.empty()) {
    std::vector<EvalRecord> fresh(to_eval.size());
    {
      std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
      pool_.parallel_for(to_eval.size(), options_.min_grain,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i)
                             fresh[i] = evaluate(to_eval[i]->config, to_eval[i]->key);
                         });
    }
    for (std::size_t i = 0; i < to_eval.size(); ++i)
      results.emplace(to_eval[i]->key, std::move(fresh[i]));
  }

  // Assemble replies in request order; winner selection walks the grid in
  // plan order with strict improvement, matching the serial advise() loop.
  std::vector<AdvisorReply> replies;
  replies.reserve(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const AdvisorRequest& req = requests[r];
    AdvisorReply reply;
    std::optional<util::TextTable>& table = reply.recommendation.search_table;
    if (req.want_table)
      table.emplace(std::vector<std::string>{"ppn", "intra", "inter", "BS/rank", "img/s"});
    reply.grid_points = grids[r].size();
    bool have_best = false;
    const Point* best_point = nullptr;
    const EvalRecord* best_record = nullptr;
    for (const Point& point : grids[r]) {
      switch (point.origin) {
        case Origin::CacheHit: ++reply.cache_hits; break;
        case Origin::Deduplicated: ++reply.deduplicated; break;
        case Origin::Evaluated: ++reply.evaluated; break;
      }
      const EvalRecord& m = results.at(point.key);
      if (table)
        table->add_row({std::to_string(point.config.ppn),
                        std::to_string(point.config.intra_threads),
                        std::to_string(point.config.inter_threads),
                        std::to_string(point.config.batch_per_rank),
                        util::TextTable::num(m.images_per_sec, 1)});
      const double value = req.objective == Objective::MinStepTime
                               ? m.per_iteration_s
                               : m.images_per_sec;
      const bool better = !have_best || (req.objective == Objective::MinStepTime
                                             ? value < reply.objective_value
                                             : value > reply.objective_value);
      if (better) {
        have_best = true;
        reply.objective_value = value;
        reply.recommendation.best = point.config;
        reply.recommendation.images_per_sec = m.images_per_sec;
        best_point = &point;
        best_record = &m;
      }
    }
    if (best_point != nullptr) {
      const prof::SimPointVerdict v = classify_record(best_point->config, *best_record);
      reply.verdict = v.verdict;
      reply.overlap_fraction = v.overlap_fraction;
      reply.verdict_reason = v.reason;
    }
    replies.push_back(std::move(reply));

    metrics.grid_points.inc(grids[r].size());
  }

  // Publish query economics.
  const double elapsed = now_seconds() - t0;
  metrics.batches.inc();
  metrics.queries.inc(requests.size());
  std::size_t deduped = 0;
  for (const auto& reply : replies) deduped += reply.deduplicated;
  metrics.deduplicated.inc(deduped);
  metrics.evaluations.inc(to_eval.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    metrics.query_seconds.observe(std::max(elapsed, 1e-9));
  metrics.hit_ratio.set(cache_.stats().hit_ratio());
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (first_query_time_ < 0.0) first_query_time_ = t0;
    queries_ += requests.size();
    const double span = now_seconds() - first_query_time_;
    if (span > 0.0) metrics.qps.set(static_cast<double>(queries_) / span);
  }
  return replies;
}

std::vector<ScalingPoint> AdvisorService::scaling_curve(const ScalingRequest& req) {
  util::Diagnostics diags;
  const std::string object = dnn::to_string(req.model) + std::string("@") +
                             (req.cluster.name.empty() ? "cluster" : req.cluster.name) +
                             " scaling";
  if (req.node_counts.empty())
    diags.error("A001", object, "node_counts", "scaling sweep has no node counts",
                "provide at least one node count");
  for (const int n : req.node_counts) {
    if (n <= 0)
      diags.error("A002", object, "node_counts",
                  "node count " + std::to_string(n) + " is not positive");
    else if (n > req.cluster.max_nodes)
      diags.error("A002", object, "node_counts",
                  "node count " + std::to_string(n) + " exceeds the cluster's " +
                      std::to_string(req.cluster.max_nodes) + " nodes",
                  "raise ClusterModel::max_nodes for what-if sweeps past the real machine");
  }
  if (req.ppn <= 0)
    diags.error("A003", object, "ppn", "ppn " + std::to_string(req.ppn) + " is not positive");
  if (req.batch_per_rank <= 0)
    diags.error("A003", object, "batch_per_rank",
                "batch " + std::to_string(req.batch_per_rank) + " is not positive");
  if (req.opt_level < 0 || req.opt_level > 2)
    diags.error("A003", object, "opt_level",
                "optimizer level " + std::to_string(req.opt_level) + " outside [0, 2]");
  if (diags.has_errors())
    throw std::invalid_argument("AdvisorService: invalid scaling request\n" +
                                util::render_text(diags));

  std::vector<int> nodes = req.node_counts;
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  std::vector<ScalingPoint> curve(nodes.size());
  std::vector<std::uint64_t> keys(nodes.size());
  std::vector<std::size_t> to_eval;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    train::TrainConfig cfg;
    cfg.cluster = req.cluster;
    cfg.model = req.model;
    cfg.framework = req.framework;
    cfg.device = req.device;
    cfg.nodes = nodes[i];
    cfg.ppn = req.ppn;
    cfg.intra_threads = req.intra_threads;
    cfg.inter_threads = req.inter_threads;
    cfg.batch_per_rank = req.batch_per_rank;
    cfg.policy = req.policy;
    cfg.use_horovod = nodes[i] * req.ppn > 1;
    cfg.hierarchy = req.hierarchy;
    cfg.per_rank_sim = req.per_rank_sim;
    cfg.opt_level = req.opt_level;
    curve[i].config = std::move(cfg);
    curve[i].nodes = nodes[i];
    curve[i].ranks = nodes[i] * req.ppn;
    keys[i] = config_key(curve[i].config);
  }

  std::unordered_map<std::uint64_t, EvalRecord> results;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (results.contains(keys[i])) continue;
    if (auto cached = cache_.lookup(keys[i]))
      results.emplace(keys[i], std::move(*cached));
    else
      to_eval.push_back(i);
  }
  if (!to_eval.empty()) {
    std::vector<EvalRecord> fresh(to_eval.size());
    {
      std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
      pool_.parallel_for(to_eval.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          fresh[i] = evaluate(curve[to_eval[i]].config, keys[to_eval[i]]);
      });
    }
    for (std::size_t i = 0; i < to_eval.size(); ++i)
      results.emplace(keys[to_eval[i]], std::move(fresh[i]));
  }

  const EvalRecord& base = results.at(keys.front());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const EvalRecord& m = results.at(keys[i]);
    curve[i].images_per_sec = m.images_per_sec;
    curve[i].per_iteration_s = m.per_iteration_s;
    curve[i].sim_events = m.sim_events;
    curve[i].sim_pool_slots = m.sim_pool_slots;
    const prof::SimPointVerdict v = classify_record(curve[i].config, m);
    curve[i].verdict = v.verdict;
    curve[i].overlap_fraction = v.overlap_fraction;
    if (base.images_per_sec > 0.0) {
      curve[i].speedup = m.images_per_sec / base.images_per_sec;
      const double rank_ratio =
          static_cast<double>(curve[i].ranks) / static_cast<double>(curve.front().ranks);
      curve[i].efficiency = rank_ratio > 0.0 ? curve[i].speedup / rank_ratio : 0.0;
    }
  }

  const ServiceMetrics& metrics = service_metrics();
  metrics.queries.inc();
  metrics.grid_points.inc(curve.size());
  metrics.evaluations.inc(to_eval.size());
  metrics.hit_ratio.set(cache_.stats().hit_ratio());
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (first_query_time_ < 0.0) first_query_time_ = now_seconds();
    ++queries_;
    const double span = now_seconds() - first_query_time_;
    if (span > 0.0) metrics.qps.set(static_cast<double>(queries_) / span);
  }
  return curve;
}

SurvivabilityReply AdvisorService::survivability(const SurvivabilityRequest& req) {
  const double t0 = now_seconds();

  // The request's config is the healthy baseline; any schedule it already
  // carries is stripped so "retention" always compares against a fault-free
  // run of the same geometry.
  train::TrainConfig healthy = req.config;
  healthy.faults = hvd::FaultSchedule{};
  healthy.link_degrades.clear();
  const train::TrainConfig faulted = apply_scenario(req.scenario, healthy);

  const std::uint64_t healthy_key = config_key(healthy);
  const std::uint64_t faulted_key = config_key(faulted);

  // Both sides pass the memoized lint gate unconditionally (not gated on
  // options.lint): the faulted verdict carries the F-family scenario lint
  // and the elastic crash/rejoin model check, which is the whole point of a
  // survivability answer. The verdict is memoized under the same content
  // key the eval cache uses, so a warm query re-checks nothing.
  const std::pair<const train::TrainConfig*, std::uint64_t> sides[] = {
      {&healthy, healthy_key}, {&faulted, faulted_key}};
  for (const auto& [cfg, key] : sides) {
    const LintVerdict verdict = lint_memo().check(*cfg, key);
    if (!verdict.ok)
      throw std::invalid_argument("AdvisorService: survivability request '" + req.scenario.name +
                                  "' failed lint\n" + verdict.rendered);
  }

  SurvivabilityReply reply;
  std::unordered_map<std::uint64_t, EvalRecord> results;
  std::vector<std::pair<const train::TrainConfig*, std::uint64_t>> to_eval;
  for (const auto& [cfg, key] : sides) {
    // Empty scenario: both sides alias one config key; evaluate it once.
    if (results.contains(key)) continue;
    if (std::any_of(to_eval.begin(), to_eval.end(),
                    [key = key](const auto& e) { return e.second == key; }))
      continue;
    if (auto cached = cache_.lookup(key)) {
      ++reply.cache_hits;
      results.emplace(key, std::move(*cached));
    } else {
      to_eval.emplace_back(cfg, key);
    }
  }
  if (!to_eval.empty()) {
    std::vector<EvalRecord> fresh(to_eval.size());
    {
      std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
      pool_.parallel_for(to_eval.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          fresh[i] = evaluate(*to_eval[i].first, to_eval[i].second);
      });
    }
    for (std::size_t i = 0; i < to_eval.size(); ++i)
      results.emplace(to_eval[i].second, std::move(fresh[i]));
    reply.evaluated = to_eval.size();
  }

  const EvalRecord& healthy_m = results.at(healthy_key);
  EvalRecord& faulted_m = results.at(faulted_key);
  reply.healthy_images_per_sec = healthy_m.images_per_sec;
  reply.scenario_images_per_sec = faulted_m.images_per_sec;
  reply.throughput_retention = healthy_m.images_per_sec > 0.0
                                   ? faulted_m.images_per_sec / healthy_m.images_per_sec
                                   : 0.0;
  if (faulted_m.fault) {  // absent only for an empty scenario: nothing to recover from
    reply.alive_rank_fraction = faulted_m.fault->alive_rank_fraction;
    reply.membership_changes = faulted_m.fault->membership_changes;
    reply.iteration_seconds = std::move(faulted_m.fault->iteration_seconds);
  }
  const prof::SimPointVerdict v = classify_record(faulted, faulted_m);
  reply.verdict = v.verdict;
  reply.verdict_reason = v.reason;

  // Registered lazily at the first survivability query, not in the service
  // constructor: the advisor_load bench diffs registry snapshots around
  // pure ask() traffic and must not see gauges it never drives.
  static const auto survivability_queries = util::metrics::counter(
      "advisor_survivability_queries_total", "Fault-scenario what-if queries answered");
  static const auto retention_gauge = util::metrics::gauge(
      "advisor_throughput_retention",
      "Scenario/healthy throughput ratio of the most recent survivability query");
  survivability_queries.inc();
  retention_gauge.set(reply.throughput_retention);

  const ServiceMetrics& metrics = service_metrics();
  metrics.queries.inc();
  metrics.evaluations.inc(reply.evaluated);
  metrics.query_seconds.observe(std::max(now_seconds() - t0, 1e-9));
  metrics.hit_ratio.set(cache_.stats().hit_ratio());
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (first_query_time_ < 0.0) first_query_time_ = t0;
    ++queries_;
    const double span = now_seconds() - first_query_time_;
    if (span > 0.0) metrics.qps.set(static_cast<double>(queries_) / span);
  }
  return reply;
}

EvalRecord AdvisorService::evaluate(const train::TrainConfig& config, std::uint64_t key) {
  EvalRecord record = EvalRecord::of(config, experiment_.measure_keyed(config, key));
  cache_.insert(key, record);
  return record;
}

std::uint64_t AdvisorService::queries_answered() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return queries_;
}

AdvisorService& default_advisor_service() {
  static AdvisorService service;
  return service;
}

}  // namespace dnnperf::core
