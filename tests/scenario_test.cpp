// Tests for the fault-scenario engine (§6.10): the F-family lint goldens,
// scenario JSON parsing, the fault-driven per-rank DES (crash/rejoin
// membership, resync charges, throughput recovery), per-step jitter
// determinism, scenario-aware cache keying, and the advisor's survivability
// query — lint-gated, model-checked, and cached. The Survivability fixtures
// run under the tsan preset's test filter alongside the other service tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/analyze.hpp"
#include "core/advisor_service.hpp"
#include "core/eval_cache.hpp"
#include "core/presets.hpp"
#include "core/scenario.hpp"
#include "hw/platforms.hpp"
#include "train/trainer.hpp"
#include "util/diag.hpp"

namespace {

using namespace dnnperf;

/// 2 nodes x 4 ranks of Skylake with a 40-step horizon: enough steps for the
/// canonical "crash at 10, rejoin at 30" schedule to fire and recover.
train::TrainConfig faultable_config() {
  train::TrainConfig cfg;
  cfg.cluster = hw::stampede2();
  cfg.nodes = 2;
  cfg.ppn = 4;
  cfg.batch_per_rank = 64;
  cfg.iterations = 40;
  return cfg;
}

core::Scenario crash_rejoin_scenario() {
  core::Scenario s;
  s.name = "crash-rejoin";
  s.faults.crashes.push_back({1, 10});
  s.faults.rejoins.push_back({1, 30});
  return s;
}

double mean(const std::vector<double>& v, std::size_t begin, std::size_t end) {
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(begin),
                         v.begin() + static_cast<std::ptrdiff_t>(end), 0.0) /
         static_cast<double>(end - begin);
}

// ---- F-family lint goldens -------------------------------------------------

TEST(ScenarioLint, NonexistentRankIsF001) {
  core::Scenario s;
  s.faults.crashes.push_back({99, 5});  // world is 8 ranks
  const util::Diagnostics diags = core::lint_scenario(s, faultable_config());
  ASSERT_TRUE(diags.has_code("F001")) << util::render_text(diags);
}

TEST(ScenarioLint, MalformedEventValuesAreF001) {
  core::Scenario s;
  s.faults.slowdowns.push_back({0, -1.5, 0, -1});  // negative factor
  s.faults.slowdowns.push_back({1, 1.5, 10, 10});  // empty range
  s.faults.crashes.push_back({2, -3});             // negative step
  const util::Diagnostics diags = core::lint_scenario(s, faultable_config());
  EXPECT_EQ(diags.count(util::Severity::Error), 3u) << util::render_text(diags);
  EXPECT_TRUE(diags.has_code("F001"));
}

TEST(ScenarioLint, NonFiniteOrHugeSlowdownFactorIsF001) {
  // NaN and 1e308 used to pass the "> 0" check, and 1e308 then hung the DES.
  for (const double factor : {std::nan(""), HUGE_VAL, 1e308,
                              2.0 * hvd::RankSlowdown::kMaxFactor}) {
    core::Scenario s;
    s.faults.slowdowns.push_back({1, factor, 0, -1});
    const util::Diagnostics diags = core::lint_scenario(s, faultable_config());
    EXPECT_TRUE(diags.has_code("F001")) << factor << "\n" << util::render_text(diags);
  }
  core::Scenario bound;
  bound.faults.slowdowns.push_back({1, hvd::RankSlowdown::kMaxFactor, 0, -1});
  EXPECT_FALSE(core::lint_scenario(bound, faultable_config()).has_errors());
}

TEST(ScenarioLint, RejoinBeforeCrashIsF002) {
  core::Scenario s;
  s.faults.rejoins.push_back({1, 5});  // no crash at all
  const util::Diagnostics diags = core::lint_scenario(s, faultable_config());
  ASSERT_TRUE(diags.has_code("F002")) << util::render_text(diags);

  core::Scenario same_step;
  same_step.faults.crashes.push_back({1, 5});
  same_step.faults.rejoins.push_back({1, 5});  // not strictly later
  EXPECT_TRUE(core::lint_scenario(same_step, faultable_config()).has_code("F002"));

  // The valid ordering is clean.
  EXPECT_TRUE(core::lint_scenario(crash_rejoin_scenario(), faultable_config()).empty());
}

TEST(ScenarioLint, ExceededFaultBudgetIsF003) {
  core::Scenario s;
  s.faults.fault_budget = 1;
  s.faults.crashes.push_back({1, 5});
  s.faults.crashes.push_back({2, 6});
  const util::Diagnostics diags = core::lint_scenario(s, faultable_config());
  ASSERT_TRUE(diags.has_code("F003")) << util::render_text(diags);
}

TEST(ScenarioLint, NobodyAliveIsF003) {
  train::TrainConfig cfg = faultable_config();
  cfg.nodes = 1;
  cfg.ppn = 2;
  core::Scenario s;
  s.faults.crashes.push_back({0, 5});
  s.faults.crashes.push_back({1, 6});
  const util::Diagnostics diags = core::lint_scenario(s, cfg);
  ASSERT_TRUE(diags.has_code("F003")) << util::render_text(diags);
}

TEST(ScenarioLint, DegradedLinkAbsentFromTopologyIsF004) {
  core::Scenario s;
  s.link_degrades.push_back({0, 0.5, 1.0});  // inter-node
  train::TrainConfig single_node = faultable_config();
  single_node.nodes = 1;
  EXPECT_TRUE(core::lint_scenario(s, single_node).has_code("F004"));
  // The same degrade on a 2-node run names a real link.
  EXPECT_TRUE(core::lint_scenario(s, faultable_config()).empty());

  core::Scenario numa;
  numa.link_degrades.push_back({2, 0.5, 1.0});  // intra-NUMA without the stage
  EXPECT_TRUE(core::lint_scenario(numa, faultable_config()).has_code("F004"));
  train::TrainConfig three_level = faultable_config();
  three_level.hierarchy = train::CommHierarchy::ThreeLevel;  // SKX: 2 domains, ppn 4
  EXPECT_TRUE(core::lint_scenario(numa, three_level).empty());

  core::Scenario bad_factor;
  bad_factor.link_degrades.push_back({0, -0.5, 1.0});
  EXPECT_TRUE(core::lint_scenario(bad_factor, faultable_config()).has_code("F004"));
}

TEST(ScenarioLint, FCodesRunInsideTheCompositeConfigLint) {
  // The Experiment gate sees scenario errors: a config carrying a bad
  // schedule fails lint_config, not just the standalone scenario lint.
  train::TrainConfig cfg =
      core::apply_scenario(crash_rejoin_scenario(), faultable_config());
  cfg.faults.crashes.front().rank = 99;
  EXPECT_TRUE(analysis::lint_config(cfg).has_code("F001"));
}

// ---- scenario JSON ---------------------------------------------------------

TEST(ScenarioJson, ParsesTheFullDocument) {
  const core::Scenario s = core::parse_scenario_text(R"({
    "name": "degraded-crash",
    "fault_budget": 3,
    "slowdowns": [{"rank": 3, "factor": 1.5, "from_step": 0, "to_step": 20}],
    "crashes":   [{"rank": 1, "step": 10}],
    "rejoins":   [{"rank": 1, "step": 30}],
    "link_degrades": [{"level": 0, "bandwidth_factor": 0.5, "latency_factor": 2.0}]
  })");
  EXPECT_EQ(s.name, "degraded-crash");
  EXPECT_EQ(s.faults.fault_budget, 3);
  ASSERT_EQ(s.faults.slowdowns.size(), 1u);
  EXPECT_EQ(s.faults.slowdowns[0].rank, 3);
  EXPECT_DOUBLE_EQ(s.faults.slowdowns[0].factor, 1.5);
  EXPECT_EQ(s.faults.slowdowns[0].to_step, 20);
  ASSERT_EQ(s.faults.crashes.size(), 1u);
  EXPECT_EQ(s.faults.crashes[0].rank, 1);
  EXPECT_EQ(s.faults.crashes[0].step, 10);
  ASSERT_EQ(s.faults.rejoins.size(), 1u);
  EXPECT_EQ(s.faults.rejoins[0].step, 30);
  ASSERT_EQ(s.link_degrades.size(), 1u);
  EXPECT_DOUBLE_EQ(s.link_degrades[0].bandwidth_factor, 0.5);
  EXPECT_DOUBLE_EQ(s.link_degrades[0].latency_factor, 2.0);
}

TEST(ScenarioJson, DefaultsAndErrors) {
  const core::Scenario minimal = core::parse_scenario_text(R"({"name": "m"})");
  EXPECT_EQ(minimal.name, "m");
  EXPECT_TRUE(minimal.empty());

  EXPECT_THROW(core::parse_scenario_text("[1, 2]"), std::runtime_error);
  EXPECT_THROW(core::parse_scenario_text(R"({"crashes": [{"rank": 1}]})"),
               std::runtime_error);  // missing step
  EXPECT_THROW(core::parse_scenario_text(R"({"crashes": [{"rank": 1.5, "step": 0}]})"),
               std::runtime_error);  // non-integer rank
  EXPECT_THROW(core::parse_scenario_text(R"({"crashes": {}})"), std::runtime_error);
  EXPECT_THROW(core::load_scenario_file("/nonexistent/scenario.json"), std::runtime_error);
}

TEST(ScenarioJson, ApplyForcesPerRankSimulation) {
  const train::TrainConfig base = faultable_config();
  EXPECT_FALSE(base.per_rank_sim);
  const train::TrainConfig cfg = core::apply_scenario(crash_rejoin_scenario(), base);
  EXPECT_TRUE(cfg.per_rank_sim);
  EXPECT_EQ(cfg.faults.crashes.size(), 1u);
  // An empty scenario changes nothing.
  const train::TrainConfig same = core::apply_scenario(core::Scenario{}, base);
  EXPECT_FALSE(same.per_rank_sim);
}

// ---- fault-driven DES ------------------------------------------------------

TEST(ScenarioTraining, CrashRegrowAt64RanksRecoversThroughput) {
  // 16 nodes x 4 ranks; rank 7 dies at step 10 and regrows at step 30. The
  // run must show the shrink (longer steps on fewer ranks are *not* expected
  // — fewer ranks mean the same per-step work but resync spikes at both
  // membership changes) and full recovery after the rejoin.
  train::TrainConfig cfg = faultable_config();
  cfg.nodes = 16;
  cfg.jitter_cv = 0.0;  // deterministic steps isolate the resync charges
  cfg.faults.crashes.push_back({7, 10});
  cfg.faults.rejoins.push_back({7, 30});
  const train::TrainResult r = train::run_training(cfg);

  EXPECT_EQ(r.sim_ranks, 64);
  EXPECT_EQ(r.membership_changes, 2u);
  ASSERT_EQ(r.iteration_seconds.size(), 40u);

  // Alive fraction: 63/64 of the world for 20 of 40 steps.
  EXPECT_NEAR(r.alive_rank_fraction, (20.0 * 64 + 20.0 * 63) / (40.0 * 64), 1e-9);

  // Both membership changes charge a resync (ring re-form + full-tensor-list
  // negotiation): those steps run strictly longer than their neighbors.
  EXPECT_GT(r.iteration_seconds[10], r.iteration_seconds[9]);
  EXPECT_GT(r.iteration_seconds[30], r.iteration_seconds[29]);

  // Throughput recovers: with jitter off, post-rejoin steps match the
  // pre-crash baseline exactly.
  const double before = mean(r.iteration_seconds, 2, 10);
  const double after = mean(r.iteration_seconds, 32, 40);
  EXPECT_NEAR(after, before, 1e-9 * before);

  // And the faulted run's aggregate throughput is below the healthy run's.
  train::TrainConfig healthy = cfg;
  healthy.faults = hvd::FaultSchedule{};
  healthy.per_rank_sim = true;
  const train::TrainResult h = train::run_training(healthy);
  EXPECT_LT(r.images_per_sec, h.images_per_sec);
  EXPECT_DOUBLE_EQ(h.alive_rank_fraction, 1.0);
}

TEST(ScenarioTraining, SlowdownStretchesOnlyTheScheduledWindow) {
  train::TrainConfig cfg = faultable_config();
  cfg.jitter_cv = 0.0;
  cfg.faults.slowdowns.push_back({0, 2.0, 10, 20});
  const train::TrainResult r = train::run_training(cfg);
  ASSERT_EQ(r.iteration_seconds.size(), 40u);
  // Synchronous SGD runs at the slowest rank's pace inside the window.
  EXPECT_GT(mean(r.iteration_seconds, 10, 20), 1.3 * mean(r.iteration_seconds, 0, 10));
  // Outside the window the pace is unchanged.
  EXPECT_NEAR(mean(r.iteration_seconds, 25, 40), mean(r.iteration_seconds, 0, 10),
              1e-9 * mean(r.iteration_seconds, 0, 10));
}

TEST(ScenarioTraining, FaultsRequireMultiRankHorovod) {
  train::TrainConfig cfg = faultable_config();
  cfg.nodes = 1;
  cfg.ppn = 1;
  cfg.use_horovod = false;
  cfg.faults.crashes.push_back({0, 1});
  EXPECT_THROW(train::run_training(cfg), std::invalid_argument);
}

TEST(ScenarioTraining, PerStepJitterIsDeterministicAcrossRuns) {
  train::TrainConfig cfg = faultable_config();
  cfg.per_rank_sim = true;
  cfg.jitter_cv = 0.05;
  const train::TrainResult a = train::run_training(cfg);
  const train::TrainResult b = train::run_training(cfg);
  ASSERT_EQ(a.iteration_seconds.size(), b.iteration_seconds.size());
  for (std::size_t i = 0; i < a.iteration_seconds.size(); ++i)
    EXPECT_DOUBLE_EQ(a.iteration_seconds[i], b.iteration_seconds[i]) << i;
  // The per-step reseed draws fresh jitter each iteration: steps differ from
  // one another (a run-constant draw would repeat the same value 40 times).
  const auto [lo, hi] =
      std::minmax_element(a.iteration_seconds.begin(), a.iteration_seconds.end());
  EXPECT_GT(*hi - *lo, 1e-9);
}

// ---- cache keying ----------------------------------------------------------

TEST(EvalCacheScenario, ScheduleIsContentHashedIntoTheConfigKey) {
  const train::TrainConfig healthy = faultable_config();
  const train::TrainConfig faulted =
      core::apply_scenario(crash_rejoin_scenario(), healthy);
  // per_rank_sim alone already splits the keys; isolate the schedule hash by
  // comparing two per-rank configs.
  train::TrainConfig per_rank_healthy = healthy;
  per_rank_healthy.per_rank_sim = true;
  EXPECT_NE(core::config_key(per_rank_healthy), core::config_key(faulted));
  EXPECT_NE(core::config_key(healthy), core::config_key(faulted));

  // Every schedule knob feeds the hash: moving one step, adding a degrade,
  // or changing the budget (it changes the memoized lint verdict) re-keys.
  train::TrainConfig moved = faulted;
  moved.faults.crashes.front().step = 11;
  EXPECT_NE(core::config_key(faulted), core::config_key(moved));
  train::TrainConfig budget = faulted;
  budget.faults.fault_budget += 1;
  EXPECT_NE(core::config_key(faulted), core::config_key(budget));
  train::TrainConfig degraded = faulted;
  degraded.link_degrades.push_back({0, 0.5, 1.0});
  EXPECT_NE(core::config_key(faulted), core::config_key(degraded));
}

// ---- survivability query ---------------------------------------------------

TEST(Survivability, CrashRejoinQueryReturnsRetentionAndCaches) {
  // The acceptance scenario: "1 rank crashes at step 10 and rejoins at step
  // 30" answered as a lint-gated, model-checked, cached reply.
  core::AdvisorServiceOptions opts;
  opts.threads = 2;
  core::AdvisorService service(opts);
  core::SurvivabilityRequest req{faultable_config(), crash_rejoin_scenario()};

  const core::SurvivabilityReply cold = service.survivability(req);
  EXPECT_GT(cold.healthy_images_per_sec, 0.0);
  EXPECT_GT(cold.scenario_images_per_sec, 0.0);
  EXPECT_GT(cold.throughput_retention, 0.0);
  EXPECT_LT(cold.throughput_retention, 1.0);  // the fault costs something
  EXPECT_LT(cold.alive_rank_fraction, 1.0);
  EXPECT_GT(cold.alive_rank_fraction, 0.8);  // 7/8 ranks for half the run
  EXPECT_EQ(cold.membership_changes, 2u);
  EXPECT_EQ(cold.iteration_seconds.size(), 40u);
  EXPECT_EQ(cold.evaluated, 2u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_FALSE(cold.verdict_reason.empty());

  // Warm repeat: both measurements served from the cache, same figures.
  const core::SurvivabilityReply warm = service.survivability(req);
  EXPECT_EQ(warm.evaluated, 0u);
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_DOUBLE_EQ(warm.throughput_retention, cold.throughput_retention);
  EXPECT_DOUBLE_EQ(warm.healthy_images_per_sec, cold.healthy_images_per_sec);
}

TEST(Survivability, WarmReplyCarriesTheColdRecoveryCurve) {
  // The cache keeps the fault outcome out of line; a hit must rebuild the
  // reply the miss built, series and all.
  core::AdvisorServiceOptions opts;
  opts.threads = 2;
  core::AdvisorService service(opts);
  const core::SurvivabilityRequest req{faultable_config(), crash_rejoin_scenario()};
  const core::SurvivabilityReply cold = service.survivability(req);
  const core::SurvivabilityReply warm = service.survivability(req);
  ASSERT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(warm.iteration_seconds, cold.iteration_seconds);
  EXPECT_EQ(warm.alive_rank_fraction, cold.alive_rank_fraction);
  EXPECT_EQ(warm.membership_changes, cold.membership_changes);
  EXPECT_EQ(warm.scenario_images_per_sec, cold.scenario_images_per_sec);
  EXPECT_EQ(warm.verdict, cold.verdict);
  EXPECT_EQ(warm.verdict_reason, cold.verdict_reason);
  EXPECT_EQ(service.cache().fault_extensions(), 1u);  // the healthy side carries none
}

TEST(Survivability, ThousandFoldStragglerIsStragglerBound) {
  // Per-rank runs used to report a straggler stretch of 1, so this reply
  // read "ComputeBound (compute 0.1%, rank skew 0.0%)".
  core::AdvisorService service;
  core::Scenario s;
  s.name = "straggler-1000x";
  s.faults.slowdowns.push_back({1, 1000.0, 0, -1});
  const core::SurvivabilityReply reply = service.survivability({faultable_config(), s});
  EXPECT_LT(reply.throughput_retention, 0.01);
  EXPECT_EQ(reply.verdict, prof::Verdict::StragglerBound) << reply.verdict_reason;
}

TEST(Survivability, MalformedScenarioFailsTheLintGate) {
  core::AdvisorService service;
  core::SurvivabilityRequest req{faultable_config(), crash_rejoin_scenario()};
  req.scenario.faults.crashes.front().rank = 99;  // F001
  EXPECT_THROW(service.survivability(req), std::invalid_argument);
}

TEST(Survivability, EmptyScenarioRetainsEverything) {
  core::AdvisorService service;
  core::SurvivabilityRequest req{faultable_config(), core::Scenario{}};
  const core::SurvivabilityReply reply = service.survivability(req);
  EXPECT_DOUBLE_EQ(reply.throughput_retention, 1.0);
  EXPECT_DOUBLE_EQ(reply.alive_rank_fraction, 1.0);
  EXPECT_EQ(reply.evaluated, 1u);  // both sides alias one config
}

TEST(Survivability, ConcurrentQueriesAgree) {
  // tsan coverage: survivability shares the cache, lint memo, and pool with
  // ask(); concurrent identical queries must agree bit-for-bit.
  core::AdvisorServiceOptions opts;
  opts.threads = 2;
  core::AdvisorService service(opts);
  const core::SurvivabilityRequest req{faultable_config(), crash_rejoin_scenario()};
  std::vector<core::SurvivabilityReply> replies(4);
  std::vector<std::thread> workers;
  for (auto& reply : replies)
    workers.emplace_back([&service, &req, &reply] { reply = service.survivability(req); });
  for (auto& w : workers) w.join();
  for (const auto& reply : replies) {
    EXPECT_DOUBLE_EQ(reply.throughput_retention, replies.front().throughput_retention);
    EXPECT_DOUBLE_EQ(reply.healthy_images_per_sec, replies.front().healthy_images_per_sec);
  }
}

}  // namespace
