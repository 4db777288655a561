// Output checks. Each returns an empty string when the output holds and a
// one-line reason when it does not. Only invariants the repository's own
// tests pin are used:
//   advisor_cold  : evaluated == grid_points on every reply, and a sampled
//                   reply equals the serial plan_grid + run_training argmax
//                   bit for bit (AdvisorService.MatchesSerialSweepExactly);
//   advisor_warm  : evaluated == 0 and the answer is bit-identical to the
//                   pre-warm answer (AdvisorService.WarmHitIdenticalToColdMiss);
//   scale_survive : both throughputs equal run_training of the healthy and
//                   the scenario-applied config bit for bit, retention is their
//                   ratio, curves are sorted with bounded efficiency;
//   real_train    : finite losses, bit-identical reruns, and MP within the
//                   5e-4 parameter tolerance of the single-process run
//                   (RealRanksParam.DataParallelMatchesSingleProcess).
#pragma once

#include <string>
#include <vector>

#include "core/advisor_service.hpp"
#include "requests.hpp"
#include "train/real_trainer.hpp"

namespace perfbench {

using Verdict = std::string;  ///< empty = the check holds

/// Bitwise equality of two doubles (no tolerance, NaN-safe).
bool same_bits(double a, double b);

// advisor_cold
Verdict check_cold_reply(const core::AdvisorReply& reply);

/// The serial sweep the service must reproduce: every plan_grid point
/// through run_training, winner by strict improvement in plan order.
struct SerialBest {
  double images_per_sec = 0.0;
  train::TrainConfig best;
};
SerialBest serial_sweep(const core::AdvisorRequest& request);
Verdict check_matches_serial(const core::AdvisorReply& reply, const SerialBest& serial);

// advisor_warm
Verdict check_warm_reply(const core::AdvisorReply& reply);
/// The answer fields (not the cache economics) are bit-identical.
Verdict check_same_answer(const core::AdvisorReply& got, const core::AdvisorReply& want);

// scale_survive
/// Largest speedup/rank-ratio a two-point curve may report. Per-rank jitter
/// is drawn, so a curve is not bound to stay under 1; the stream's curves
/// read 0.989-0.997.
inline constexpr double kMaxCurveEfficiency = 1.25;

Verdict check_survival_reply(const ScaleOp& op, const core::SurvivabilityReply& reply);
Verdict check_survival_oracle(const ScaleOp& op, const core::SurvivabilityReply& reply);
Verdict check_curve(const ScaleOp& op, const std::vector<core::ScalingPoint>& curve);
Verdict check_curve_oracle(const std::vector<core::ScalingPoint>& curve);

// real_train
inline constexpr float kSpTolerance = 5e-4f;
Verdict check_losses_finite(const std::vector<float>& losses);
Verdict check_params_identical(const std::vector<float>& a, const std::vector<float>& b);
Verdict check_mp_matches_sp(const std::vector<float>& mp, const std::vector<float>& sp);

}  // namespace perfbench
