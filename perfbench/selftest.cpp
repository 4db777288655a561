// Self-tests of the benchmark's own machinery: seeded streams are
// reproducible, the percentile / sample-count rule is right, the tracer's
// self-time arithmetic holds, and every output check rejects a deliberately
// corrupted reply, loss or parameter vector. run.py runs this once after
// each build; a failure stops the benchmark.
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <tuple>

#include "checks.hpp"
#include "common.hpp"
#include "core/advisor_service.hpp"
#include "hw/platforms.hpp"
#include "requests.hpp"
#include "train/real_trainer.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// The check passes on the real output and rejects the corrupted one.
void expect_rejects(const Verdict& clean, const Verdict& corrupted, const std::string& what) {
  expect(clean.empty(), what + ": accepts the real output" + (clean.empty() ? "" : " (" + clean + ")"));
  expect(!corrupted.empty(), what + ": rejects the corrupted output");
}

double next_up(double x) { return std::nextafter(x, std::numeric_limits<double>::infinity()); }

// ---- determinism -----------------------------------------------------------

void test_streams() {
  expect(digest(cold_round(7, 3)) == digest(cold_round(7, 3)), "cold round: same seed, same stream");
  expect(digest(cold_round(7, 3)) != digest(cold_round(8, 3)), "cold round: seeds differ");
  expect(digest(warm_working_set(7)) == digest(warm_working_set(7)),
         "warm working set: same seed, same set");
  expect(digest(warm_working_set(7)) != digest(warm_working_set(8)),
         "warm working set: seeds differ");
  expect(digest(scale_stream(7, 2)) == digest(scale_stream(7, 2)),
         "scale stream: same seed, same stream");
  expect(digest(scale_stream(7, 2)) != digest(scale_stream(8, 2)), "scale stream: seeds differ");
  expect(real_config(7, 5, 3).seed == real_config(7, 5, 3).seed &&
             real_config(7, 5, 3).seed != real_config(7, 6, 3).seed,
         "real_train: same seed and call, same data");

  // Every cold request of a stream is distinct in (cluster, model,
  // framework, nodes), so no two share a grid point.
  std::set<std::tuple<std::string, int, int, int>> seen;
  std::size_t total = 0;
  bool sized = true;
  for (int r = 0; r < kColdRounds; ++r) {
    const auto round = cold_round(7, r);
    sized = sized && round.size() == 176;
    for (const auto& req : round) {
      seen.emplace(req.cluster.name, static_cast<int>(req.model), static_cast<int>(req.framework),
                   req.nodes);
      ++total;
    }
  }
  expect(sized, "cold rounds hold one request per (cluster, model, framework)");
  expect(seen.size() == total, "cold stream never repeats a (cluster, model, framework, nodes)");

  const auto ops = scale_stream(7, 4);
  std::set<double> thresholds;
  for (const auto& op : ops)
    thresholds.insert(op.kind == ScaleOp::Kind::Curve ? op.curve.policy.fusion_threshold_bytes
                                                      : op.survive.config.policy.fusion_threshold_bytes);
  expect(thresholds.size() == ops.size(), "scale ops all carry distinct fusion thresholds");
}

// ---- percentiles -----------------------------------------------------------

void test_percentiles() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  expect(nearest_rank(xs, 0.5) == 50.0 && nearest_rank(xs, 0.9) == 90.0 &&
             nearest_rank(xs, 1.0) == 100.0,
         "nearest-rank percentiles of 1..100");
  expect(nearest_rank({7.0}, 0.9) == 7.0 && nearest_rank({}, 0.5) == 0.0,
         "nearest rank of one sample and of none");
  expect(samples_beyond(100, 0.9) == 10 && samples_beyond(99, 0.9) == 9 &&
             samples_beyond(10, 0.5) == 5,
         "samples beyond the percentile");
  const LatencySummary full = summarize(xs);
  xs.pop_back();
  const LatencySummary short_run = summarize(xs);
  expect(full.n == 100 && full.p90_tail == 10 && full.p90_supported,
         "100 samples support p90 (10 beyond)");
  expect(short_run.n == 99 && short_run.p90_tail == 9 && !short_run.p90_supported,
         "99 samples do not support p90 (9 beyond)");
}

// ---- tracer and result line --------------------------------------------------

void spin(double seconds) {
  const double until = now_s() + seconds;
  while (now_s() < until) {
  }
}

void test_tracer_and_json() {
  Tracer tracer(true);
  {
    Tracer::Scope op(tracer, "bench.op", true);
    spin(0.002);
    Tracer::Scope child(tracer, "core.call", false);
    spin(0.004);
  }
  const auto spans = tracer.spans();
  const auto self = tracer.self_seconds_by_layer();
  expect(spans.size() == 2 && spans[1].parent == spans[0].id && spans[1].op == spans[0].id,
         "child span nests under its op and shares its id");
  const double total = spans[0].t1 - spans[0].t0;
  expect(std::fabs(self.at("bench") + self.at("core") - total) < 1e-9 &&
             self.at("core") >= 0.004 && self.at("bench") >= 0.002,
         "self times partition the op's duration");
  Tracer off(false);
  { Tracer::Scope op(off, "bench.op", true); }
  expect(off.spans().empty(), "a disabled tracer records nothing");

  const std::string line = result_json(true, 3, 1, {{"a", 1.5, "ms"}});
  expect(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"a\": "
                 "{\"value\": 1.5, \"unit\": \"ms\"}}}",
         "result line has exactly correct/attempted/failed/metrics");
  expect(result_json(true, 1, 0, {{"a", std::nan(""), "ms"}}).find("\"correct\": false") == 1,
         "a non-finite metric makes the result incorrect");
}

// ---- output checks -----------------------------------------------------------

core::AdvisorServiceOptions options() {
  core::AdvisorServiceOptions o;
  o.threads = 2;
  return o;
}

void test_advisor_checks() {
  core::AdvisorService service(options());
  core::AdvisorRequest req;
  req.cluster = hw::pitzer_v100();
  req.device = train::DeviceKind::Gpu;
  req.model = dnn::ModelId::ResNet18;
  req.nodes = 2;
  const core::AdvisorReply cold = service.ask(req);

  core::AdvisorReply bad = cold;
  bad.evaluated -= 1;
  expect_rejects(check_cold_reply(cold), check_cold_reply(bad), "cold reply: evaluated count");

  const SerialBest serial = serial_sweep(req);
  bad = cold;
  bad.recommendation.images_per_sec = next_up(bad.recommendation.images_per_sec);
  expect_rejects(check_matches_serial(cold, serial), check_matches_serial(bad, serial),
                 "cold reply vs serial sweep: one ulp of throughput");
  bad = cold;
  bad.recommendation.best.batch_per_rank *= 2;
  expect(!check_matches_serial(bad, serial).empty(),
         "cold reply vs serial sweep: rejects a different recommended batch");

  const core::AdvisorReply warm = service.ask(req);
  bad = warm;
  bad.evaluated = 1;
  expect_rejects(check_warm_reply(warm), check_warm_reply(bad), "warm reply: fresh evaluation");
  bad = warm;
  bad.objective_value = next_up(bad.objective_value);
  expect_rejects(check_same_answer(warm, cold), check_same_answer(bad, cold),
                 "warm reply vs pre-warm: one ulp of objective");
}

void test_scale_checks() {
  core::AdvisorService service(options());
  const auto ops = scale_stream(11, 1);
  const ScaleOp* crash = nullptr;
  const ScaleOp* curve = nullptr;
  for (const auto& op : ops) {
    if (op.ranks != 64) continue;
    if (op.kind == ScaleOp::Kind::CrashRejoin) crash = &op;
    if (op.kind == ScaleOp::Kind::Curve) curve = &op;
  }
  const core::SurvivabilityReply reply = service.survivability(crash->survive);
  core::SurvivabilityReply bad = reply;
  bad.throughput_retention = next_up(bad.throughput_retention);
  expect_rejects(check_survival_reply(*crash, reply), check_survival_reply(*crash, bad),
                 "survivability: retention is the throughput ratio");
  bad = reply;
  bad.membership_changes = 1;
  expect(!check_survival_reply(*crash, bad).empty(),
         "survivability: rejects a wrong membership-change count");
  bad = reply;
  bad.scenario_images_per_sec = next_up(bad.scenario_images_per_sec);
  expect_rejects(check_survival_oracle(*crash, reply), check_survival_oracle(*crash, bad),
                 "survivability vs run_training: one ulp of scenario throughput");

  const auto points = service.scaling_curve(curve->curve);
  auto broken = points;
  broken.back().efficiency = kMaxCurveEfficiency * 2.0;
  expect_rejects(check_curve(*curve, points), check_curve(*curve, broken),
                 "scaling curve: efficiency bound");
  broken = points;
  std::swap(broken.front(), broken.back());
  expect(!check_curve(*curve, broken).empty(), "scaling curve: rejects an unsorted curve");
  broken = points;
  broken.back().images_per_sec = next_up(broken.back().images_per_sec);
  expect_rejects(check_curve_oracle(points), check_curve_oracle(broken),
                 "scaling curve vs run_training: one ulp of throughput");
}

void test_real_checks() {
  const train::RealTrainConfig cfg = real_config(3, 0, 4);
  const train::RealTrainResult mp = train::run_real_training(cfg);
  const train::RealTrainResult again = train::run_real_training(cfg);
  const train::RealTrainResult sp = train::run_real_training_single(cfg);

  auto losses = mp.losses;
  losses[1] = std::numeric_limits<float>::quiet_NaN();
  expect_rejects(check_losses_finite(mp.losses), check_losses_finite(losses), "losses: finite");

  auto params = again.final_params;
  params[7] = std::nextafter(params[7], 1e9f);
  expect_rejects(check_params_identical(mp.final_params, again.final_params),
                 check_params_identical(mp.final_params, params), "MP rerun: bit-identical");

  params = mp.final_params;
  params[3] += 2.0f * kSpTolerance;
  expect_rejects(check_mp_matches_sp(mp.final_params, sp.final_params),
                 check_mp_matches_sp(params, sp.final_params), "MP vs SP: parameter tolerance");
}

}  // namespace

int main() {
  test_streams();
  test_percentiles();
  test_tracer_and_json();
  test_advisor_checks();
  test_scale_checks();
  test_real_checks();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "selftest passed" : "selftest FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
