#include "requests.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/eval_cache.hpp"
#include "hw/platforms.hpp"

namespace perfbench {

namespace {

template <typename T>
void shuffle(std::vector<T>& items, util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

core::AdvisorRequest make_request(const hw::ClusterModel& cluster, dnn::ModelId model,
                                  exec::Framework framework, int nodes, bool with_o2) {
  core::AdvisorRequest req;
  req.cluster = cluster;
  req.model = model;
  req.framework = framework;
  req.device = cluster.node.has_gpu() ? train::DeviceKind::Gpu : train::DeviceKind::Cpu;
  req.nodes = nodes;
  req.opt_levels = with_o2 ? std::vector<int>{0, 2} : std::vector<int>{0};
  return req;
}

constexpr exec::Framework kFrameworks[] = {exec::Framework::TensorFlow,
                                           exec::Framework::PyTorch};
constexpr int kMaxNodes = 16;

/// Horovod's 64 MiB fusion threshold less a seeded 1 B - 1 MiB: a distinct
/// cache key per draw at an unchanged cost for the shipped models.
double seeded_threshold(util::Rng& rng) {
  return 64.0 * 1024 * 1024 - static_cast<double>(rng.uniform_int(1, 1 << 20));
}

}  // namespace

util::Rng rng_for(std::uint64_t seed, std::uint64_t stream) {
  return util::Rng(seed * 0x9E3779B97F4A7C15ull + (stream + 1) * 0xD1B54A32D192ED03ull);
}

std::vector<hw::ClusterModel> bench_clusters() {
  std::vector<hw::ClusterModel> clusters = hw::all_clusters();
  for (auto& c : clusters) c.max_nodes = std::max(c.max_nodes, kMaxNodes);
  return clusters;
}

// ---- advisor_cold ----------------------------------------------------------

std::vector<core::AdvisorRequest> cold_round(std::uint64_t seed, int round) {
  const std::vector<hw::ClusterModel> clusters = bench_clusters();
  const std::vector<dnn::ModelId> models = dnn::all_models();
  util::Rng rng = rng_for(seed, 1000 + static_cast<std::uint64_t>(round));
  std::vector<core::AdvisorRequest> out;
  int combo = 0;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (std::size_t m = 0; m < models.size(); ++m) {
      const bool tf_gets_o2 = (c * models.size() + m + static_cast<std::size_t>(round)) % 2 == 0;
      for (int f = 0; f < 2; ++f, ++combo) {
        // Latin design: within a round the 176 combos cover every node count
        // 11 times; across rounds a combo steps through all 16 counts.
        const int nodes = (combo * 7 + round * 5) % kMaxNodes + 1;
        core::AdvisorRequest req =
            make_request(clusters[c], models[m], kFrameworks[f], nodes, (f == 0) == tf_gets_o2);
        req.policy.fusion_threshold_bytes = seeded_threshold(rng);
        out.push_back(std::move(req));
      }
    }
  }
  shuffle(out, rng);
  return out;
}

std::vector<core::AdvisorRequest> cold_warmup_requests() {
  std::vector<core::AdvisorRequest> out;
  for (const auto& cluster : bench_clusters()) {
    for (const auto framework : kFrameworks) {
      core::AdvisorRequest req = make_request(cluster, dnn::ModelId::ResNet50, framework, 2, false);
      req.batch_candidates = {8};
      out.push_back(std::move(req));
    }
  }
  return out;
}

// ---- advisor_warm ----------------------------------------------------------

std::vector<core::AdvisorRequest> warm_working_set(std::uint64_t seed) {
  const std::vector<hw::ClusterModel> clusters = bench_clusters();
  const std::vector<dnn::ModelId> models = dnn::all_models();
  util::Rng rng = rng_for(seed, 3000);
  std::vector<core::AdvisorRequest> out;
  for (int i = 0; i < kWarmSlots; ++i) {
    const auto model = models[static_cast<std::size_t>(i * 3) % models.size()];
    const int nodes = (i * 7) % kMaxNodes + 1;
    core::AdvisorRequest req =
        make_request(clusters[static_cast<std::size_t>(i) % clusters.size()], model,
                     kFrameworks[(i / 8) % 2], nodes, (i / 16) % 2 == 1);
    req.policy.fusion_threshold_bytes = seeded_threshold(rng);
    out.push_back(std::move(req));
  }
  return out;
}

std::vector<double> zipf_cdf(std::size_t n) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t zipf_draw(const std::vector<double>& cdf, util::Rng& rng) {
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

// ---- scale_survive ---------------------------------------------------------

namespace {

hw::ClusterModel scale_cluster() {
  hw::ClusterModel cluster = hw::stampede2();
  cluster.max_nodes = 2048 / kScalePpn;
  return cluster;
}

train::TrainConfig scale_config(int ranks, double fusion_threshold) {
  train::TrainConfig cfg;
  cfg.cluster = scale_cluster();
  cfg.model = dnn::ModelId::ResNet50;
  cfg.nodes = ranks / kScalePpn;
  cfg.ppn = kScalePpn;
  cfg.batch_per_rank = 64;
  cfg.per_rank_sim = true;
  cfg.policy.fusion_threshold_bytes = fusion_threshold;
  return cfg;
}

}  // namespace

std::vector<ScaleOp> scale_stream(std::uint64_t seed, int rounds) {
  util::Rng rng = rng_for(seed, 4000);
  std::set<double> thresholds;
  const auto fresh_threshold = [&] {
    for (;;) {
      const double t = seeded_threshold(rng);
      if (thresholds.insert(t).second) return t;
    }
  };
  std::vector<ScaleOp> out;
  for (int r = 0; r < rounds; ++r) {
    std::vector<ScaleOp> round;
    for (const int ranks : kScaleRanks) {
      for (const auto kind :
           {ScaleOp::Kind::Curve, ScaleOp::Kind::CrashRejoin, ScaleOp::Kind::Slowdown}) {
        ScaleOp op;
        op.kind = kind;
        op.ranks = ranks;
        const double threshold = fresh_threshold();
        if (kind == ScaleOp::Kind::Curve) {
          op.curve.cluster = scale_cluster();
          op.curve.model = dnn::ModelId::ResNet50;
          op.curve.node_counts = {ranks / kScalePpn / 2, ranks / kScalePpn};
          op.curve.ppn = kScalePpn;
          op.curve.batch_per_rank = 64;
          op.curve.per_rank_sim = true;
          op.curve.policy.fusion_threshold_bytes = threshold;
        } else {
          op.survive.config = scale_config(ranks, threshold);
          core::Scenario& s = op.survive.scenario;
          const int rank = static_cast<int>(rng.uniform_int(0, ranks - 1));
          if (kind == ScaleOp::Kind::CrashRejoin) {
            s.name = "crash-rejoin";
            s.faults.crashes.push_back({rank, 1});
            s.faults.rejoins.push_back({rank, 2});
          } else {
            s.name = "slowdown";
            s.faults.slowdowns.push_back({rank, kSlowdownFactor, 0, -1});
          }
        }
        round.push_back(std::move(op));
      }
    }
    util::Rng order_rng = rng_for(seed, 5000 + static_cast<std::uint64_t>(r));
    shuffle(round, order_rng);
    for (auto& op : round) out.push_back(std::move(op));
  }
  return out;
}

std::vector<ScaleOp> scale_warmup_ops() {
  // One op of each kind at 512 ranks, at exactly 64 MiB: every stream op's
  // threshold lies below it, so set-up never pre-prices a measured config.
  std::vector<ScaleOp> ops = scale_stream(0, 1);
  std::erase_if(ops, [](const ScaleOp& op) { return op.ranks != 512; });
  for (auto& op : ops) {
    op.curve.policy.fusion_threshold_bytes = 64.0 * 1024 * 1024;
    op.survive.config.policy.fusion_threshold_bytes = 64.0 * 1024 * 1024;
  }
  return ops;
}

// ---- real_train ------------------------------------------------------------

train::RealTrainConfig real_config(std::uint64_t seed, std::uint64_t call, int steps) {
  train::RealTrainConfig cfg;
  cfg.ranks = 2;
  cfg.threads_per_rank = 1;
  cfg.image_size = 32;
  cfg.batch_per_rank = 16;
  cfg.batch_norm = false;
  cfg.steps = steps;
  cfg.seed = rng_for(seed, 6000 + call).next_u64();
  return cfg;
}

// ---- determinism -----------------------------------------------------------

namespace {

void mix_request(core::HashStream& h, const core::AdvisorRequest& r) {
  h.mix(core::platform_fingerprint(r.cluster))
      .mix(static_cast<int>(r.model))
      .mix(static_cast<int>(r.framework))
      .mix(static_cast<int>(r.device))
      .mix(r.nodes)
      .mix(r.policy.fusion_threshold_bytes);
  for (const int b : r.batch_candidates) h.mix(b);
  for (const int l : r.opt_levels) h.mix(l + 100);
}

}  // namespace

std::uint64_t digest(const std::vector<core::AdvisorRequest>& requests) {
  core::HashStream h;
  for (const auto& r : requests) mix_request(h, r);
  return h.digest();
}

std::uint64_t digest(const std::vector<ScaleOp>& ops) {
  core::HashStream h;
  for (const auto& op : ops) {
    h.mix(static_cast<int>(op.kind)).mix(op.ranks);
    if (op.kind == ScaleOp::Kind::Curve) {
      h.mix(op.curve.policy.fusion_threshold_bytes);
      for (const int n : op.curve.node_counts) h.mix(n);
    } else {
      h.mix(core::config_key(core::apply_scenario(op.survive.scenario, op.survive.config)));
    }
  }
  return h.digest();
}

}  // namespace perfbench
