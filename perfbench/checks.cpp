#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/scenario.hpp"
#include "train/trainer.hpp"

namespace perfbench {

namespace {

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

bool positive_finite(double x) { return std::isfinite(x) && x > 0.0; }

Verdict same_config(const train::TrainConfig& got, const train::TrainConfig& want) {
  if (got.ppn != want.ppn || got.intra_threads != want.intra_threads ||
      got.inter_threads != want.inter_threads || got.batch_per_rank != want.batch_per_rank ||
      got.opt_level != want.opt_level || got.nodes != want.nodes || got.model != want.model ||
      got.framework != want.framework)
    return "recommended config differs";
  return {};
}

}  // namespace

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---- advisor_cold ----------------------------------------------------------

Verdict check_cold_reply(const core::AdvisorReply& reply) {
  if (reply.grid_points == 0) return "empty grid";
  if (reply.evaluated != reply.grid_points)
    return "evaluated " + std::to_string(reply.evaluated) + " of " +
           std::to_string(reply.grid_points) + " grid points on a cold query";
  if (!positive_finite(reply.objective_value)) return "objective " + num(reply.objective_value);
  return {};
}

SerialBest serial_sweep(const core::AdvisorRequest& request) {
  SerialBest out;
  bool have = false;
  for (const auto& cfg : core::AdvisorService::plan_grid(request)) {
    const double ips = train::run_training(cfg).images_per_sec;
    if (!have || ips > out.images_per_sec) {
      have = true;
      out.images_per_sec = ips;
      out.best = cfg;
    }
  }
  return out;
}

Verdict check_matches_serial(const core::AdvisorReply& reply, const SerialBest& serial) {
  if (!same_bits(reply.recommendation.images_per_sec, serial.images_per_sec) ||
      !same_bits(reply.objective_value, serial.images_per_sec))
    return "best img/s " + num(reply.recommendation.images_per_sec) + " != serial " +
           num(serial.images_per_sec);
  return same_config(reply.recommendation.best, serial.best);
}

// ---- advisor_warm ----------------------------------------------------------

Verdict check_warm_reply(const core::AdvisorReply& reply) {
  if (reply.evaluated != 0)
    return "warm query evaluated " + std::to_string(reply.evaluated) + " points";
  if (reply.cache_hits + reply.deduplicated != reply.grid_points)
    return "hits + deduplicated != grid points";
  return {};
}

Verdict check_same_answer(const core::AdvisorReply& got, const core::AdvisorReply& want) {
  if (got.grid_points != want.grid_points) return "grid size differs";
  if (!same_bits(got.objective_value, want.objective_value) ||
      !same_bits(got.recommendation.images_per_sec, want.recommendation.images_per_sec))
    return "objective " + num(got.objective_value) + " != pre-warm " + num(want.objective_value);
  if (got.verdict != want.verdict || !same_bits(got.overlap_fraction, want.overlap_fraction) ||
      got.verdict_reason != want.verdict_reason)
    return "bottleneck verdict differs";
  return same_config(got.recommendation.best, want.recommendation.best);
}

// ---- scale_survive ---------------------------------------------------------

namespace {

train::TrainConfig healthy_of(const core::SurvivabilityRequest& req) {
  train::TrainConfig healthy = req.config;
  healthy.faults = hvd::FaultSchedule{};
  healthy.link_degrades.clear();
  return healthy;
}

}  // namespace

Verdict check_survival_reply(const ScaleOp& op, const core::SurvivabilityReply& reply) {
  if (!positive_finite(reply.healthy_images_per_sec) ||
      !positive_finite(reply.scenario_images_per_sec))
    return "non-positive throughput";
  if (!same_bits(reply.throughput_retention,
                 reply.scenario_images_per_sec / reply.healthy_images_per_sec))
    return "retention is not scenario / healthy";
  if (!positive_finite(reply.throughput_retention))
    return "retention " + num(reply.throughput_retention);
  if (reply.evaluated != 2 || reply.cache_hits != 0) return "config was not fresh";
  if (reply.iteration_seconds.size() != static_cast<std::size_t>(op.survive.config.iterations))
    return "recovery curve length";
  const bool crash = op.kind == ScaleOp::Kind::CrashRejoin;
  if (reply.membership_changes != (crash ? 2u : 0u))
    return "membership changes " + std::to_string(reply.membership_changes);
  if (crash ? !(reply.alive_rank_fraction > 0.0 && reply.alive_rank_fraction < 1.0)
            : reply.alive_rank_fraction != 1.0)
    return "alive rank fraction " + num(reply.alive_rank_fraction);
  return {};
}

Verdict check_survival_oracle(const ScaleOp& op, const core::SurvivabilityReply& reply) {
  const train::TrainConfig healthy = healthy_of(op.survive);
  const double want_healthy = train::run_training(healthy).images_per_sec;
  const double want_faulted =
      train::run_training(core::apply_scenario(op.survive.scenario, healthy)).images_per_sec;
  if (!same_bits(reply.healthy_images_per_sec, want_healthy))
    return "healthy img/s " + num(reply.healthy_images_per_sec) + " != run_training " +
           num(want_healthy);
  if (!same_bits(reply.scenario_images_per_sec, want_faulted))
    return "scenario img/s " + num(reply.scenario_images_per_sec) + " != run_training " +
           num(want_faulted);
  return {};
}

Verdict check_curve(const ScaleOp& op, const std::vector<core::ScalingPoint>& curve) {
  if (curve.size() != op.curve.node_counts.size()) return "curve length";
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const core::ScalingPoint& p = curve[i];
    if (i > 0 && !(curve[i - 1].nodes < p.nodes)) return "curve not sorted by nodes";
    if (p.ranks != p.nodes * op.curve.ppn) return "ranks != nodes x ppn";
    if (!positive_finite(p.images_per_sec)) return "non-positive throughput";
    if (!(p.efficiency > 0.0 && p.efficiency <= kMaxCurveEfficiency))
      return "efficiency " + num(p.efficiency) + " outside (0, " + num(kMaxCurveEfficiency) + "]";
  }
  if (curve.front().efficiency != 1.0) return "base point efficiency is not 1";
  return {};
}

Verdict check_curve_oracle(const std::vector<core::ScalingPoint>& curve) {
  for (const auto& p : curve) {
    const double want = train::run_training(p.config).images_per_sec;
    if (!same_bits(p.images_per_sec, want))
      return "curve point img/s " + num(p.images_per_sec) + " != run_training " + num(want);
  }
  return {};
}

// ---- real_train ------------------------------------------------------------

Verdict check_losses_finite(const std::vector<float>& losses) {
  if (losses.empty()) return "no losses";
  for (std::size_t i = 0; i < losses.size(); ++i)
    if (!std::isfinite(losses[i])) return "loss at step " + std::to_string(i) + " is not finite";
  return {};
}

Verdict check_params_identical(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.empty() || a.size() != b.size()) return "parameter count differs";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return "parameter " + std::to_string(i) + " differs between reruns";
  return {};
}

Verdict check_mp_matches_sp(const std::vector<float>& mp, const std::vector<float>& sp) {
  if (mp.empty() || mp.size() != sp.size()) return "parameter count differs";
  float worst = 0.0f;
  for (std::size_t i = 0; i < mp.size(); ++i) {
    const float d = std::fabs(mp[i] - sp[i]);
    if (std::isnan(d)) return "parameter " + std::to_string(i) + " is NaN";
    worst = std::max(worst, d);
  }
  if (!(worst < kSpTolerance))
    return "max |MP - SP| " + num(worst) + " >= " + num(kSpTolerance);
  return {};
}

}  // namespace perfbench
