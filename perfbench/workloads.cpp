#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/analyze.hpp"
#include "checks.hpp"
#include "core/eval_cache.hpp"
#include "core/scenario.hpp"
#include "dnn/models.hpp"
#include "opt/passes.hpp"
#include "ref/conv_fast.hpp"
#include "ref/kernels.hpp"
#include "ref/tensor.hpp"
#include "ref/threadpool.hpp"
#include "requests.hpp"
#include "train/real_trainer.hpp"
#include "train/trainer.hpp"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// CPU seconds of all of this process's threads. Unlike wall time it leaves
/// out the time the host gave other VMs.
double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

using Scope = Tracer::Scope;

/// Seconds `fn` takes, inside a child span named `name`.
template <typename F>
double timed(Tracer& tracer, const char* name, F&& fn) {
  Scope span(tracer, name, false);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

// ---- loop and check bookkeeping --------------------------------------------

/// What one measured window produced.
struct Loop {
  /// `window_latencies`: percentiles come from the quiet windows (few,
  /// costly ops); otherwise from a reservoir of every op.
  Loop(std::uint64_t window_ops, std::uint64_t seed, bool window_latencies = false,
       double quiet_share = 0.5)
      : latencies_ms(seed), windows(window_ops, window_latencies, quiet_share) {}

  void add_latency(double ms) {
    latencies_ms.add(ms);
    windows.add_latency(ms);
  }
  std::vector<double> latency_samples() const {
    return windows.keeps_latencies() ? windows.quiet_latencies() : latencies_ms.samples();
  }

  Reservoir latencies_ms;
  WindowRates windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops = 0;  ///< completed ops
  double wall_s = 0.0;
  double probe_s = 0.0;  ///< traced half: time spent in layer probes
  std::vector<std::string> errors;

  /// A thrown op: counted as failed, kept out of the percentiles.
  void fail(std::uint64_t ops_lost, const std::exception& e) {
    failed += ops_lost;
    if (errors.size() < 3) errors.push_back(e.what());
  }
  double mean_ops_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0;
  }
  /// Median rate of the quiet sub-windows; the whole-window mean when no
  /// window closed.
  double ops_per_s() const {
    if (combined_rate > 0.0) return combined_rate;
    return windows.windows().empty() ? mean_ops_per_s() : windows.quiet_median();
  }
  /// Set when side-by-side clients' rates are summed into one loop.
  double combined_rate = 0.0;
};

struct Checks {
  std::uint64_t run = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;

  void expect(const Verdict& verdict, const std::string& what) {
    ++run;
    if (verdict.empty()) return;
    ++failed;
    if (first_failures.size() < 5) first_failures.push_back(what + ": " + verdict);
  }
};

/// Draws `k` distinct indices of [0, n) (partial Fisher-Yates).
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k, util::Rng& rng) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

// ---- layer probes ----------------------------------------------------------
//
// The benchmark measures layers from outside: it times calls into each
// module's public functions on the op's own inputs, each inside a child span
// of the op.

/// run_training on one config plus its DES/engine counters. Returns seconds.
double probe_run_training(const train::TrainConfig& cfg, Tracer& tracer, LayerStats& layers) {
  train::TrainResult r;
  const double s = timed(tracer, "train.run_training", [&] { r = train::run_training(cfg); });
  layers.add("train.run_training_ms", s * 1e3);
  layers.add("sim.run_ns", s * 1e9);
  layers.add("sim.events", static_cast<double>(r.sim_events));
  layers.add("sim.pool_slots", static_cast<double>(r.sim_pool_slots));
  layers.add("hvd.engine_wakeups", static_cast<double>(r.comm.engine_wakeups));
  layers.add("hvd.data_allreduces", static_cast<double>(r.comm.data_allreduces));
  return s;
}

/// The lint gate's pieces on one config.
void probe_lint(const train::TrainConfig& cfg, Tracer& tracer, LayerStats& layers) {
  util::Diagnostics diags;
  layers.add("analysis.lint_config_ms",
             1e3 * timed(tracer, "analysis.lint_config",
                         [&] { diags = analysis::lint_config(cfg); }));
  layers.add("analysis.lint_error", diags.has_errors() ? 1.0 : 0.0);
  layers.add("analysis.verify_engine_ms",
             1e3 * timed(tracer, "analysis.verify_engine",
                         [&] { (void)analysis::verify_config_engine(cfg); }));
  layers.add("analysis.verify_elastic_ms",
             1e3 * timed(tracer, "analysis.verify_elastic",
                         [&] { (void)analysis::verify_config_elastic(cfg); }));
}

void probe_graph(dnn::ModelId model, Tracer& tracer, LayerStats& layers) {
  dnn::Graph graph{""};
  layers.add("dnn.build_model_us",
             1e6 * timed(tracer, "dnn.build_model", [&] { graph = dnn::build_model(model); }));
  opt::OptOptions options;
  options.level = 2;
  layers.add("opt.optimize_ms",
             1e3 * timed(tracer, "opt.optimize", [&] { (void)opt::optimize(graph, options); }));
}

/// Keys, and optionally cache lookups, for a batch of configs.
std::vector<std::uint64_t> probe_keys(const std::vector<train::TrainConfig>& grid,
                                      core::EvalCache* cache, Tracer& tracer,
                                      LayerStats& layers) {
  std::vector<std::uint64_t> keys(grid.size());
  if (grid.empty()) return keys;
  const double n = static_cast<double>(grid.size());
  const double k = timed(tracer, "core.config_key", [&] {
    for (std::size_t i = 0; i < grid.size(); ++i) keys[i] = core::config_key(grid[i]);
  });
  layers.add("core.config_key_us", 1e6 * k / n);
  if (cache != nullptr) {
    const double l = timed(tracer, "core.cache_lookup", [&] {
      for (const auto key : keys) (void)cache->lookup(key);
    });
    layers.add("core.cache_lookup_us", 1e6 * l / n);
  }
  return keys;
}

/// Grid points per cold op whose DES and lint are probed (a seeded sample;
/// keys and lookups cover every point).
constexpr std::size_t kProbePoints = 4;

/// Probes one advisor request's layers. Returns the mean serial run_training
/// seconds of the sampled points.
double probe_request(const core::AdvisorRequest& req, core::EvalCache* cache, util::Rng& rng,
                     Tracer& tracer, LayerStats& layers) {
  std::vector<train::TrainConfig> grid;
  layers.add("core.plan_grid_us",
             1e6 * timed(tracer, "core.plan_grid",
                         [&] { grid = core::AdvisorService::plan_grid(req); }));
  probe_keys(grid, cache, tracer, layers);
  probe_graph(req.model, tracer, layers);
  double des_s = 0.0;
  const auto sample = sample_indices(grid.size(), kProbePoints, rng);
  for (const std::size_t i : sample) {
    des_s += probe_run_training(grid[i], tracer, layers);
    probe_lint(grid[i], tracer, layers);
  }
  return sample.empty() ? 0.0 : des_s / static_cast<double>(sample.size());
}

/// refdnn kernels on the real_train network's shapes (one rank's batch of
/// 16: conv 3->8 at 32x32, max-pool, conv 8->16 at 16x16, dense 16->4),
/// plus a 128^3 GEMM for the GFLOP/s figure.
void probe_ref_kernels(util::Rng& rng, Tracer& tracer, LayerStats& layers) {
  using ref::Tensor;
  ref::ThreadPool pool(2);
  const ref::ConvSpec same{1, 1};
  const Tensor x1 = Tensor::randn({16, 3, 32, 32}, rng), w1 = Tensor::randn({8, 3, 3, 3}, rng);
  const Tensor x2 = Tensor::randn({16, 8, 16, 16}, rng), w2 = Tensor::randn({16, 8, 3, 3}, rng);
  const Tensor b1 = Tensor::zeros({8}), b2 = Tensor::zeros({16});
  Tensor y1, y2;
  layers.add("ref.conv_fwd_us", 1e6 * timed(tracer, "ref.conv_fwd", [&] {
                                  y1 = ref::conv2d_forward_gemm(x1, w1, b1, same, pool);
                                  y2 = ref::conv2d_forward_gemm(x2, w2, b2, same, pool);
                                }));
  Tensor dx, dw, db;
  layers.add("ref.conv_bwd_us", 1e6 * timed(tracer, "ref.conv_bwd", [&] {
                                  ref::conv2d_backward_gemm(x1, w1, y1, same, dx, dw, db, pool);
                                  ref::conv2d_backward_gemm(x2, w2, y2, same, dx, dw, db, pool);
                                }));
  Tensor argmax;
  layers.add("ref.pool_us", 1e6 * timed(tracer, "ref.pool", [&] {
                              const Tensor p = ref::maxpool_forward(y1, 2, 2, argmax, pool);
                              (void)ref::maxpool_backward(y1, p, argmax, pool);
                            }));
  const Tensor xf = Tensor::randn({16, 16}, rng), wf = Tensor::randn({16, 4}, rng);
  const Tensor bf = Tensor::zeros({4});
  layers.add("ref.dense_us", 1e6 * timed(tracer, "ref.dense", [&] {
                               const Tensor yf = ref::dense_forward(xf, wf, bf, pool);
                               ref::dense_backward(xf, wf, yf, dx, dw, db, pool);
                             }));
  const int n = 128;
  const Tensor a = Tensor::randn({n, n}, rng), b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  constexpr int kReps = 8;
  const double g = timed(tracer, "ref.gemm", [&] {
    for (int i = 0; i < kReps; ++i) ref::gemm(a, b, c, pool);
  });
  layers.add("ref.gemm_gflops", 2.0 * n * n * n * kReps / g / 1e9);
}

/// Per-step figures of one real training run.
void record_real_result(const train::RealTrainResult& r, int steps, LayerStats& layers) {
  const auto& ph = r.phases;
  layers.add("train.input_ms", 1e3 * ph.input.mean());
  layers.add("train.forward_ms", 1e3 * ph.forward.mean());
  layers.add("train.backward_ms", 1e3 * ph.backward.mean());
  layers.add("train.exchange_ms", 1e3 * ph.exchange.mean());
  layers.add("train.optimizer_ms", 1e3 * ph.optimizer.mean());
  const double parts = ph.input.mean() + ph.forward.mean() + ph.backward.mean() +
                       ph.exchange.mean() + ph.optimizer.mean();
  layers.add("train.unattributed_share",
             ph.step.mean() > 0.0 ? 1.0 - parts / ph.step.mean() : 0.0);
  layers.add("train.images_per_s", r.images_per_sec);
  const double s = static_cast<double>(steps);
  layers.add("hvd.data_allreduces_per_step", static_cast<double>(r.comm.data_allreduces) / s);
  layers.add("hvd.engine_wakeups_per_step", static_cast<double>(r.comm.engine_wakeups) / s);
  layers.add("mpi.bytes_per_step", r.comm.bytes_reduced / s);
}

/// The three per-step wall times of a three-step run, recovered exactly
/// from the trainer's min / max / mean step statistics.
std::vector<double> step_samples_ms(const train::RealTrainResult& r) {
  const auto& st = r.phases.step;
  static_assert(kRealStepsPerCall == 3, "exact recovery needs exactly three steps");
  const double mid = 3.0 * st.mean() - st.min() - st.max();
  return {1e3 * st.min(), 1e3 * std::clamp(mid, st.min(), st.max()), 1e3 * st.max()};
}

// ---- the workloads ---------------------------------------------------------

/// One workload: repeatable set-up, a measured loop usable traced or not,
/// output checks, and probes for the layers its own ops do not reach.
class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;

  /// Builds fresh state for the measured loop (called kSetupRepeats times;
  /// the last state is the one measured).
  virtual void setup() = 0;
  /// Runs ops for `seconds`; `whole_rounds` extends the window to the end of
  /// the current stratified round so every run prices the same mix.
  virtual Loop measure(double seconds, bool whole_rounds, Tracer& tracer,
                       LayerStats* layers) = 0;
  virtual void check(Checks& checks) = 0;
  /// Layers this workload's ops do not call, probed on seeded inputs so the
  /// traced run reports every per-layer metric.
  virtual void cross_probe(Tracer& tracer, LayerStats& layers) = 0;
  virtual std::vector<std::string> notes() const { return {}; }

 protected:
  std::uint64_t seed_;
};

// advisor_cold ---------------------------------------------------------------

core::AdvisorServiceOptions service_options() {
  core::AdvisorServiceOptions options;  // the defaults core::advise() uses...
  options.threads = kPoolWidth;         // ...with an explicit pool width
  return options;
}

/// Runs one cold advisor op (ask + layer probes when traced). Shared by
/// advisor_cold and the other workloads' cross probes.
bool cold_op(core::AdvisorService& service, const core::AdvisorRequest& req, Tracer& tracer,
             LayerStats* layers, util::Rng& rng, Loop& loop, std::vector<core::AdvisorReply>* out) {
  ++loop.attempted;
  Scope op(tracer, "bench.cold_op", true);
  try {
    core::AdvisorReply reply;
    const double t0 = now_s();
    {
      Scope span(tracer, "core.ask", false);
      reply = service.ask(req);
    }
    const double wall = now_s() - t0;
    loop.add_latency(wall * 1e3);
    ++loop.ops;
    loop.windows.done(1, now_s());
    if (layers != nullptr) {
      const double p0 = now_s();
      const double serial = probe_request(req, &service.cache(), rng, tracer, *layers);
      layers->add("core.pool_serial_s", serial * static_cast<double>(reply.evaluated));
      layers->add("core.pool_capacity_s", wall * service.threads());
      layers->add("core.grid_points", static_cast<double>(reply.grid_points));
      layers->add("core.cache_hits", static_cast<double>(reply.cache_hits));
      layers->add("core.deduplicated", static_cast<double>(reply.deduplicated));
      layers->add("hvd.membership_changes", 0.0);
      loop.probe_s += now_s() - p0;
    }
    if (out != nullptr) out->push_back(std::move(reply));
    return true;
  } catch (const std::exception& e) {
    loop.fail(1, e);
    return false;
  }
}

class AdvisorCold : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    service_ = std::make_unique<core::AdvisorService>(service_options());
    stream_.clear();
    for (int r = 0; r < kColdRounds; ++r) {
      auto round = cold_round(seed_, r);
      stream_.insert(stream_.end(), round.begin(), round.end());
    }
    round_size_ = stream_.size() / kColdRounds;
    next_ = 0;
    replies_.clear();
    asked_.clear();
    service_->ask_many(cold_warmup_requests());
  }

  Loop measure(double seconds, bool whole_rounds, Tracer& tracer, LayerStats* layers) override {
    // No rate windows: query costs span three orders of magnitude and the
    // rounds' mixes differ, so only the whole run prices the same mix on
    // every seed.
    Loop loop(0, seed_);
    util::Rng rng = rng_for(seed_, 7000 + next_);
    const double t0 = now_s();
    loop.windows.start(t0);
    while (next_ < stream_.size()) {
      const bool time_up = now_s() - t0 >= seconds;
      if (time_up && (!whole_rounds || next_ % round_size_ == 0)) break;
      const std::size_t i = next_++;
      if (cold_op(*service_, stream_[i], tracer, layers, rng, loop, &replies_)) asked_.push_back(i);
    }
    loop.wall_s = now_s() - t0;
    return loop;
  }

  void check(Checks& checks) override {
    for (const auto& reply : replies_) checks.expect(check_cold_reply(reply), "cold reply");
    util::Rng rng = rng_for(seed_, 8000);
    for (const std::size_t k : sample_indices(replies_.size(), kOracleSamples, rng))
      checks.expect(check_matches_serial(replies_[k], serial_sweep(stream_[asked_[k]])),
                    "cold reply vs serial sweep");
  }

  void cross_probe(Tracer& tracer, LayerStats& layers) override {
    probe_real(seed_, tracer, layers);
  }

  /// A short real training run and the refdnn kernels, for the advisor
  /// workloads' traced runs.
  static void probe_real(std::uint64_t seed, Tracer& tracer, LayerStats& layers) {
    Scope op(tracer, "bench.probe", true);
    const train::RealTrainConfig cfg = real_config(seed, 900000, kRealStepsPerCall);
    train::RealTrainResult r;
    (void)timed(tracer, "train.run_real_training", [&] { r = train::run_real_training(cfg); });
    record_real_result(r, cfg.steps, layers);
    util::Rng rng = rng_for(seed, 9100);
    probe_ref_kernels(rng, tracer, layers);
  }

  std::vector<std::string> notes() const override {
    return {"stream: " + std::to_string(next_) + " of " + std::to_string(stream_.size()) +
            " requests asked (" + std::to_string(round_size_) + " per round)"};
  }

 private:
  static constexpr std::size_t kOracleSamples = 6;
  std::unique_ptr<core::AdvisorService> service_;
  std::vector<core::AdvisorRequest> stream_;
  std::size_t round_size_ = 1;
  std::size_t next_ = 0;
  std::vector<core::AdvisorReply> replies_;
  std::vector<std::size_t> asked_;  ///< stream index of each reply
};

// advisor_warm ---------------------------------------------------------------

class AdvisorWarm : public Workload {
 public:
  using Workload::Workload;
  static constexpr int kClients = 2;

  void setup() override {
    service_ = std::make_unique<core::AdvisorService>(service_options());
    working_set_ = warm_working_set(seed_);
    cdf_ = zipf_cdf(working_set_.size());
    const double t0 = now_s();
    prewarm_ = service_->ask_many(working_set_);
    prewarm_wall_s_ = now_s() - t0;
    prewarm_points_ = 0;
    for (const auto& r : prewarm_) prewarm_points_ += r.evaluated;
    rounds_ = 0;
  }

  Loop measure(double seconds, bool, Tracer& tracer, LayerStats* layers) override {
    std::vector<Loop> loops;
    for (int c = 0; c < kClients; ++c) loops.emplace_back(kWindowQueries, seed_ + c);
    std::vector<std::thread> clients;
    const double t0 = now_s();
    for (auto& l : loops) l.windows.start(t0);
    const std::uint64_t round = rounds_++;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        util::Rng rng = rng_for(seed_, 10000 + round * kClients + static_cast<std::uint64_t>(c));
        Loop& loop = loops[static_cast<std::size_t>(c)];
        std::vector<std::size_t> picks(kWarmBatch);
        std::vector<core::AdvisorRequest> batch(kWarmBatch);
        while (now_s() - t0 < seconds) {
          for (int b = 0; b < kWarmBatch; ++b) {
            picks[static_cast<std::size_t>(b)] = zipf_draw(cdf_, rng);
            batch[static_cast<std::size_t>(b)] = working_set_[picks[static_cast<std::size_t>(b)]];
          }
          loop.attempted += kWarmBatch;
          Scope op(tracer, "bench.warm_op", true);
          try {
            std::vector<core::AdvisorReply> replies;
            const double q0 = now_s();
            {
              Scope span(tracer, "core.ask_many", false);
              replies = service_->ask_many(batch);
            }
            const double q1 = now_s();
            // Every query of a batch completes when the batch does.
            for (int b = 0; b < kWarmBatch; ++b) loop.add_latency((q1 - q0) * 1e3);
            loop.ops += kWarmBatch;
            loop.windows.done(kWarmBatch, q1);
            for (std::size_t b = 0; b < replies.size(); ++b) {
              check_reply(replies[b], prewarm_[picks[b]]);
              if (layers != nullptr) {
                layers->add("core.grid_points", static_cast<double>(replies[b].grid_points));
                layers->add("core.cache_hits", static_cast<double>(replies[b].cache_hits));
                layers->add("core.deduplicated", static_cast<double>(replies[b].deduplicated));
                layers->add("hvd.membership_changes", 0.0);
              }
            }
            if (layers != nullptr) {
              const double p0 = now_s();
              for (const auto& req : batch) {
                std::vector<train::TrainConfig> grid;
                layers->add("core.plan_grid_us",
                            1e6 * timed(tracer, "core.plan_grid",
                                        [&] { grid = core::AdvisorService::plan_grid(req); }));
                probe_keys(grid, &service_->cache(), tracer, *layers);
              }
              loop.probe_s += now_s() - p0;
            }
          } catch (const std::exception& e) {
            loop.fail(kWarmBatch, e);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    // The clients run side by side: the total rate is the sum of their
    // median window rates.
    Loop total(kWindowQueries, seed_);
    for (auto& l : loops) {
      for (const double ms : l.latencies_ms.samples()) total.latencies_ms.add(ms);
      total.combined_rate += l.ops_per_s();
      total.attempted += l.attempted;
      total.failed += l.failed;
      total.ops += l.ops;
      total.probe_s += l.probe_s;
      for (auto& e : l.errors) total.errors.push_back(std::move(e));
    }
    total.wall_s = now_s() - t0;
    // Two clients share the window: probe time is per client thread.
    total.probe_s /= kClients;
    return total;
  }

  void check(Checks& checks) override {
    for (const auto& reply : prewarm_)
      checks.expect(reply.evaluated + reply.deduplicated == reply.grid_points
                        ? Verdict{}
                        : Verdict{"pre-warm query was served from the cache"},
                    "pre-warm reply");
    std::lock_guard<std::mutex> lock(mutex_);
    checks.run += warm_checks_;
    checks.failed += warm_failures_;
    for (const auto& f : warm_first_failures_)
      if (checks.first_failures.size() < 5) checks.first_failures.push_back(f);
  }

  void cross_probe(Tracer& tracer, LayerStats& layers) override {
    // The DES, lint and graph layers on a seeded sample of the working set:
    // the work its pre-warm paid for.
    util::Rng rng = rng_for(seed_, 11000);
    double serial_s = 0.0;
    std::size_t sampled = 0;
    for (const std::size_t i : sample_indices(working_set_.size(), kProbeRequests, rng)) {
      Scope op(tracer, "bench.probe", true);
      serial_s += probe_request(working_set_[i], nullptr, rng, tracer, layers);
      ++sampled;
    }
    layers.add("core.pool_serial_s",
               sampled > 0 ? serial_s / static_cast<double>(sampled) *
                                 static_cast<double>(prewarm_points_)
                           : 0.0);
    layers.add("core.pool_capacity_s", prewarm_wall_s_ * service_->threads());
    AdvisorCold::probe_real(seed_, tracer, layers);
  }

 private:
  static constexpr std::size_t kProbeRequests = 4;
  /// Queries per client rate window (about a second at today's speed).
  static constexpr std::uint64_t kWindowQueries = 8192;

  void check_reply(const core::AdvisorReply& got, const core::AdvisorReply& want) {
    Verdict v = check_warm_reply(got);
    if (v.empty()) v = check_same_answer(got, want);
    std::lock_guard<std::mutex> lock(mutex_);
    ++warm_checks_;
    if (v.empty()) return;
    ++warm_failures_;
    if (warm_first_failures_.size() < 5) warm_first_failures_.push_back("warm reply: " + v);
  }

  std::unique_ptr<core::AdvisorService> service_;
  std::vector<core::AdvisorRequest> working_set_;
  std::vector<double> cdf_;
  std::vector<core::AdvisorReply> prewarm_;
  double prewarm_wall_s_ = 0.0;
  std::size_t prewarm_points_ = 0;
  std::uint64_t rounds_ = 0;
  std::mutex mutex_;
  std::uint64_t warm_checks_ = 0;
  std::uint64_t warm_failures_ = 0;
  std::vector<std::string> warm_first_failures_;
};

// scale_survive --------------------------------------------------------------

class ScaleSurvive : public Workload {
 public:
  using Workload::Workload;
  static constexpr int kRounds = 64;

  void setup() override {
    service_ = std::make_unique<core::AdvisorService>(service_options());
    stream_ = scale_stream(seed_, kRounds);
    round_size_ = stream_.size() / kRounds;
    next_ = 0;
    done_.clear();
    survive_.clear();
    curves_.clear();
    for (const ScaleOp& op : scale_warmup_ops()) {
      if (op.kind == ScaleOp::Kind::Curve)
        (void)service_->scaling_curve(op.curve);
      else
        (void)service_->survivability(op.survive);
    }
  }

  Loop measure(double seconds, bool whole_rounds, Tracer& tracer, LayerStats* layers) override {
    Loop loop(round_size_, seed_, true);
    const double t0 = now_s();
    loop.windows.start(t0);
    while (next_ < stream_.size()) {
      const bool time_up = now_s() - t0 >= seconds;
      if (time_up && (!whole_rounds || next_ % round_size_ == 0)) break;
      const std::size_t i = next_++;
      const ScaleOp& op = stream_[i];
      ++loop.attempted;
      Scope span(tracer, "bench.scale_op", true);
      try {
        const double q0 = now_s();
        if (op.kind == ScaleOp::Kind::Curve) {
          Scope call(tracer, "core.scaling_curve", false);
          curves_.emplace(i, service_->scaling_curve(op.curve));
        } else {
          Scope call(tracer, "core.survivability", false);
          survive_.emplace(i, service_->survivability(op.survive));
        }
        const double wall = now_s() - q0;
        loop.add_latency(wall * 1e3);
        ++loop.ops;
        loop.windows.done(1, now_s());
        done_.push_back(i);
        if (layers != nullptr) {
          const double p0 = now_s();
          probe(op, i, wall, tracer, *layers);
          loop.probe_s += now_s() - p0;
        }
      } catch (const std::exception& e) {
        loop.fail(1, e);
      }
    }
    loop.wall_s = now_s() - t0;
    return loop;
  }

  void check(Checks& checks) override {
    for (const std::size_t i : done_) {
      const ScaleOp& op = stream_[i];
      if (op.kind == ScaleOp::Kind::Curve)
        checks.expect(check_curve(op, curves_.at(i)), "scaling curve");
      else
        checks.expect(check_survival_reply(op, survive_.at(i)), "survivability reply");
    }
    util::Rng rng = rng_for(seed_, 12000);
    for (const std::size_t k : sample_indices(done_.size(), kOracleSamples, rng)) {
      const std::size_t i = done_[k];
      const ScaleOp& op = stream_[i];
      if (op.kind == ScaleOp::Kind::Curve)
        checks.expect(check_curve_oracle(curves_.at(i)), "curve vs run_training");
      else
        checks.expect(check_survival_oracle(op, survive_.at(i)), "survivability vs run_training");
    }
  }

  void cross_probe(Tracer& tracer, LayerStats& layers) override {
    {
      // Grid planning, which no scale op does, on one seeded cold request.
      Scope op(tracer, "bench.probe", true);
      util::Rng rng = rng_for(seed_, 12500);
      (void)probe_request(cold_round(seed_, 0).front(), nullptr, rng, tracer, layers);
    }
    AdvisorCold::probe_real(seed_, tracer, layers);
  }

 private:
  static constexpr std::size_t kOracleSamples = 4;

  /// The layers behind one op: keys, the lint gate on the faulted config,
  /// and serial run_training of every config the op priced.
  void probe(const ScaleOp& op, std::size_t i, double wall, Tracer& tracer, LayerStats& layers) {
    std::vector<train::TrainConfig> configs;
    if (op.kind == ScaleOp::Kind::Curve) {
      for (const auto& p : curves_.at(i)) configs.push_back(p.config);
      layers.add("core.grid_points", static_cast<double>(configs.size()));
      layers.add("core.cache_hits", 0.0);
      layers.add("hvd.membership_changes", 0.0);
    } else {
      train::TrainConfig healthy = op.survive.config;
      configs.push_back(healthy);
      configs.push_back(core::apply_scenario(op.survive.scenario, healthy));
      const auto& reply = survive_.at(i);
      layers.add("core.grid_points", 2.0);
      layers.add("core.cache_hits", static_cast<double>(reply.cache_hits));
      layers.add("hvd.membership_changes", static_cast<double>(reply.membership_changes));
      probe_lint(configs.back(), tracer, layers);
    }
    layers.add("core.deduplicated", 0.0);
    probe_keys(configs, &service_->cache(), tracer, layers);
    probe_graph(op.kind == ScaleOp::Kind::Curve ? op.curve.model : op.survive.config.model, tracer,
                layers);
    double serial = 0.0;
    for (const auto& cfg : configs) serial += probe_run_training(cfg, tracer, layers);
    layers.add("core.pool_serial_s", serial);
    layers.add("core.pool_capacity_s", wall * service_->threads());
  }

  std::unique_ptr<core::AdvisorService> service_;
  std::vector<ScaleOp> stream_;
  std::size_t round_size_ = 1;
  std::size_t next_ = 0;
  std::vector<std::size_t> done_;
  std::map<std::size_t, core::SurvivabilityReply> survive_;
  std::map<std::size_t, std::vector<core::ScalingPoint>> curves_;
};

// real_train -----------------------------------------------------------------

class RealTrain : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    // A short run spawns the rank threads and pools and touches every
    // buffer once, as the first measured call would.
    const train::RealTrainResult warm =
        train::run_real_training(real_config(seed_, 800000, kRealStepsPerCall));
    (void)warm;
    calls_ = 0;
    losses_.clear();
    loop_wall_s_ = 0.0;
    images_ = 0;
  }

  Loop measure(double seconds, bool, Tracer& tracer, LayerStats* layers) override {
    Loop loop(kRealStepsPerCall, seed_, true, kQuietShare);
    const double t0 = now_s();
    loop.windows.start(t0);
    while (now_s() - t0 < seconds) {
      const train::RealTrainConfig cfg = real_config(seed_, calls_++, kRealStepsPerCall);
      loop.attempted += kRealStepsPerCall;
      Scope op(tracer, "bench.real_call", true);
      try {
        train::RealTrainResult r;
        {
          Scope call(tracer, "train.run_real_training", false);
          r = train::run_real_training(cfg);
        }
        for (const double ms : step_samples_ms(r)) loop.add_latency(ms);
        loop.ops += kRealStepsPerCall;
        loop.windows.done(kRealStepsPerCall, now_s());
        loop_wall_s_ += r.wall_seconds;
        images_ += static_cast<std::uint64_t>(cfg.ranks) * cfg.batch_per_rank * cfg.steps;
        losses_.push_back(std::move(r.losses));
        if (layers != nullptr) {
          const double p0 = now_s();
          record_real_result(r, cfg.steps, *layers);
          util::Rng rng = rng_for(seed_, 13000 + calls_);
          probe_ref_kernels(rng, tracer, *layers);
          loop.probe_s += now_s() - p0;
        }
      } catch (const std::exception& e) {
        loop.fail(kRealStepsPerCall, e);
      }
    }
    loop.wall_s = now_s() - t0;
    return loop;
  }

  void check(Checks& checks) override {
    for (const auto& losses : losses_) checks.expect(check_losses_finite(losses), "losses");
    // Longer runs for the trajectory checks: a rerun is bit-identical, and
    // data parallelism stays within tolerance of the single-process run.
    const train::RealTrainConfig cfg = real_config(seed_, 700000, kCheckSteps);
    const train::RealTrainResult a = train::run_real_training(cfg);
    const train::RealTrainResult b = train::run_real_training(cfg);
    const train::RealTrainResult sp = train::run_real_training_single(cfg);
    checks.expect(check_losses_finite(a.losses), "check-run losses");
    checks.expect(check_params_identical(a.final_params, b.final_params), "MP rerun");
    checks.expect(check_mp_matches_sp(a.final_params, sp.final_params), "MP vs SP");
  }

  void cross_probe(Tracer& tracer, LayerStats& layers) override {
    // The advisor layers on two seeded cold requests against a fresh service.
    core::AdvisorService service(service_options());
    util::Rng rng = rng_for(seed_, 14000);
    const auto round = cold_round(seed_, 0);
    Loop scratch(0, seed_);
    for (const std::size_t i : sample_indices(round.size(), 2, rng))
      cold_op(service, round[i], tracer, &layers, rng, scratch, nullptr);
    for (const auto& e : scratch.errors) throw std::runtime_error("cross probe: " + e);
  }

  std::vector<std::string> notes() const override {
    return {fmt("images_per_s %.1f (global images / trainer loop wall, the paper's metric)",
                images_per_s())};
  }

  double images_per_s() const {
    return loop_wall_s_ > 0.0 ? static_cast<double>(images_) / loop_wall_s_ : 0.0;
  }

 private:
  static constexpr int kCheckSteps = 12;
  // One call per sub-window, and the third of them with the least steal:
  // steal on either rank's vCPU stalls the whole step, and on this finer
  // grain the selection finds the calls it missed. A third still leaves
  // more than 100 steps at the benchmark's 15 s.
  static constexpr double kQuietShare = 1.0 / 3.0;
  std::uint64_t calls_ = 0;
  std::vector<std::vector<float>> losses_;
  double loop_wall_s_ = 0.0;
  std::uint64_t images_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "advisor_cold") return std::make_unique<AdvisorCold>(seed);
  if (name == "advisor_warm") return std::make_unique<AdvisorWarm>(seed);
  if (name == "scale_survive") return std::make_unique<ScaleSurvive>(seed);
  if (name == "real_train") return std::make_unique<RealTrain>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---- per-layer metrics -----------------------------------------------------

std::vector<Metric> layer_metrics(const LayerStats& L, const Tracer& tracer, const Loop& untraced,
                                  const Loop& traced) {
  const auto mean = [&](const char* name) { return L.get(name).mean(); };
  const auto sum = [&](const char* name) { return L.get(name).sum; };
  std::vector<Metric> m{
      {"train.run_training_ms", mean("train.run_training_ms"), "ms"},
      {"sim.events_per_run", mean("sim.events"), "count"},
      {"hvd.engine_wakeups_per_run", mean("hvd.engine_wakeups"), "count"},
      {"hvd.data_allreduces_per_run", mean("hvd.data_allreduces"), "count"},
      {"sim.ns_per_event", ratio(sum("sim.run_ns"), sum("sim.events")), "ns"},
      {"core.pool_efficiency", ratio(sum("core.pool_serial_s"), sum("core.pool_capacity_s")),
       "ratio"},
      {"analysis.lint_config_ms", mean("analysis.lint_config_ms"), "ms"},
      {"analysis.verify_engine_ms", mean("analysis.verify_engine_ms"), "ms"},
      {"analysis.verify_elastic_ms", mean("analysis.verify_elastic_ms"), "ms"},
      {"analysis.lint_error_share", mean("analysis.lint_error"), "ratio"},
      {"dnn.build_model_us", mean("dnn.build_model_us"), "us"},
      {"opt.optimize_ms", mean("opt.optimize_ms"), "ms"},
      {"core.plan_grid_us", mean("core.plan_grid_us"), "us"},
      {"core.config_key_us", mean("core.config_key_us"), "us"},
      {"core.cache_lookup_us", mean("core.cache_lookup_us"), "us"},
      {"core.cache_hit_ratio", ratio(sum("core.cache_hits"), sum("core.grid_points")), "ratio"},
      {"core.dedup_ratio", ratio(sum("core.deduplicated"), sum("core.grid_points")), "ratio"},
      {"core.points_per_query", mean("core.grid_points"), "count"},
      {"sim.pool_slots_max", L.get("sim.pool_slots").max, "count"},
      {"hvd.membership_changes_per_op", mean("hvd.membership_changes"), "count"},
      {"train.input_ms", mean("train.input_ms"), "ms"},
      {"train.forward_ms", mean("train.forward_ms"), "ms"},
      {"train.backward_ms", mean("train.backward_ms"), "ms"},
      {"train.exchange_ms", mean("train.exchange_ms"), "ms"},
      {"train.optimizer_ms", mean("train.optimizer_ms"), "ms"},
      {"train.unattributed_share", mean("train.unattributed_share"), "ratio"},
      {"train.images_per_s", mean("train.images_per_s"), "1/s"},
      {"ref.conv_fwd_us", mean("ref.conv_fwd_us"), "us"},
      {"ref.conv_bwd_us", mean("ref.conv_bwd_us"), "us"},
      {"ref.dense_us", mean("ref.dense_us"), "us"},
      {"ref.pool_us", mean("ref.pool_us"), "us"},
      {"ref.gemm_gflops", mean("ref.gemm_gflops"), "GFLOP/s"},
      {"hvd.data_allreduces_per_step", mean("hvd.data_allreduces_per_step"), "count"},
      {"hvd.engine_wakeups_per_step", mean("hvd.engine_wakeups_per_step"), "count"},
      {"mpi.bytes_per_step", mean("mpi.bytes_per_step"), "bytes"},
  };
  // Self time per layer as a share of all traced time.
  const std::map<std::string, double> self = tracer.self_seconds_by_layer();
  double total = 0.0;
  for (const auto& [layer, s] : self) total += s;
  for (const char* layer : {"bench", "core", "analysis", "dnn", "opt", "train", "ref"}) {
    const auto it = self.find(layer);
    m.push_back({std::string("self_share.") + layer,
                 ratio(it == self.end() ? 0.0 : it->second, total), "ratio"});
  }
  // Tracing overhead: the traced half's whole-window op rate with the
  // probes' own time taken out, against the untraced half's.
  const double traced_rate =
      ratio(static_cast<double>(traced.ops), traced.wall_s - traced.probe_s);
  const double untraced_rate = untraced.mean_ops_per_s();
  m.push_back({"trace.ops_per_s_untraced", untraced_rate, "1/s"});
  m.push_back({"trace.ops_per_s_traced", traced_rate, "1/s"});
  m.push_back({"trace.overhead_share", 1.0 - ratio(traced_rate, untraced_rate), "ratio"});
  return m;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"advisor_cold", "advisor_warm", "scale_survive",
                                              "real_train"};
  return names;
}

RunResult run_workload(const RunOptions& o) {
  const double process_t0 = now_s();
  std::unique_ptr<Workload> w = make_workload(o.workload, o.seed);
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = now_s();
    w->setup();
    setups.push_back(now_s() - t0);
  }
  const double first_op_s = now_s() - process_t0;

  RunResult result;
  Checks checks;
  Loop loop(1, o.seed);
  if (!o.trace) {
    Tracer off(false);
    const CpuTicks before = cpu_ticks();
    const double cpu0 = process_cpu_s();
    loop = w->measure(o.seconds, true, off, nullptr);
    const double cpu_ms_per_op = 1e3 * ratio(process_cpu_s() - cpu0, double(loop.ops));
    const CpuTicks after = cpu_ticks();
    // Read before the checks, whose reference runs are not the workload.
    const double rss_mb = peak_rss_mb();
    w->check(checks);
    const LatencySummary lat = summarize(loop.latency_samples());
    result.metrics = {
        {"setup_s", median_of(setups), "s"},
        {"ops_per_s", loop.ops_per_s(), "1/s"},
        {"op_p50_ms", lat.p50_ms, "ms"},
        {"op_p90_ms", lat.p90_ms, "ms"},
        {"peak_rss_mb", rss_mb, "MiB"},
    };
    result.notes.push_back(fmt(loop.windows.keeps_latencies()
                                   ? "latency samples %.0f (the quiet sub-windows) of %.0f ops, "
                                     "p90 has %.0f beyond it"
                                   : "latency samples %.0f of %.0f ops, p90 has %.0f beyond it",
                               double(lat.n), double(loop.ops),
                               double(lat.p90_tail)) +
                           (lat.p90_supported ? "" : " (fewer than 10: p90 unsupported)"));
    std::string rate_note = fmt("measured %.3f s, %.0f ops; whole-window rate %.4g/s",
                                loop.wall_s, double(loop.ops), loop.mean_ops_per_s());
    if (!loop.windows.windows().empty())
      rate_note += fmt("; median of the %.0f%% of %.0f sub-windows with the least steal %.4g/s",
                       100.0 * loop.windows.quiet_share(),
                       double(loop.windows.windows().size()), loop.ops_per_s()) +
                   fmt(" (steal <= %.1f%%)", 100.0 * loop.windows.quiet_steal_share());
    result.notes.push_back(rate_note);
    result.notes.push_back(fmt("host CPU steal during the window: %.1f%%; process CPU %.4g ms per op",
                               100.0 * ratio(after.steal - before.steal,
                                             after.total - before.total),
                               cpu_ms_per_op));
  } else {
    Tracer off(false);
    const double cpu0 = process_cpu_s();
    const Loop untraced = w->measure(o.seconds / 2.0, false, off, nullptr);
    const double cpu_ms_per_op = 1e3 * ratio(process_cpu_s() - cpu0, double(untraced.ops));
    Tracer on(true);
    LayerStats layers;
    loop = w->measure(o.seconds / 2.0, false, on, &layers);
    w->cross_probe(on, layers);
    w->check(checks);
    result.metrics = layer_metrics(layers, on, untraced, loop);
    result.metrics.push_back({"process.cpu_ms_per_op", cpu_ms_per_op, "ms"});
    loop.attempted += untraced.attempted;
    loop.failed += untraced.failed;
    loop.errors.insert(loop.errors.end(), untraced.errors.begin(), untraced.errors.end());
    if (!o.trace_out.empty()) on.write_chrome(o.trace_out);
    result.notes.push_back(fmt("traced spans %.0f over %.0f ops", double(on.spans().size()),
                               double(on.ops())));
  }
  result.notes.push_back(fmt("setup %.4f s median of 3; process start to first timed op %.4f s",
                             median_of(setups), first_op_s));
  for (auto& n : w->notes()) result.notes.push_back(std::move(n));
  result.notes.push_back(fmt("output checks: %.0f run, %.0f failed", double(checks.run),
                             double(checks.failed)));
  for (const auto& f : checks.first_failures) result.notes.push_back("check failed: " + f);
  for (const auto& e : loop.errors) result.notes.push_back("op failed: " + e);
  result.correct = checks.failed == 0 && checks.run > 0;
  result.attempted = loop.attempted;
  result.failed = loop.failed;
  return result;
}

}  // namespace perfbench
