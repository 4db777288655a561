#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "core/presets.hpp"
#include "dnn/models.hpp"
#include "hvd/protocol.hpp"
#include "hvd/real_engine.hpp"
#include "hvd/timeline.hpp"
#include "hw/platforms.hpp"
#include "mpi/world.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace dnnperf::hvd {
namespace {

// ---------------------------------------------------------------------------
// RealEngine (threads + minimpi)
// ---------------------------------------------------------------------------

/// Builds deterministic per-rank "gradients" for tensor t, element i.
float grad_value(int rank, int tensor, std::size_t i) {
  return static_cast<float>(rank + 1) * 0.5f + tensor * 2.0f + static_cast<float>(i) * 0.25f;
}

class FusionParam : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(FusionParam, FusedAverageMatchesManualAverage) {
  const auto [ranks, threshold] = GetParam();
  mpi::World::run(ranks, [&, ranks = ranks, threshold = threshold](mpi::Comm& comm) {
    FusionPolicy policy;
    policy.fusion_threshold_bytes = threshold;
    RealEngine engine(comm, policy);

    const std::vector<std::size_t> sizes{5, 128, 1, 64, 32};
    std::vector<std::vector<float>> grads;
    std::vector<int> ids;
    for (std::size_t t = 0; t < sizes.size(); ++t) {
      ids.push_back(engine.register_tensor("t" + std::to_string(t), sizes[t]));
      std::vector<float> g(sizes[t]);
      for (std::size_t i = 0; i < g.size(); ++i)
        g[i] = grad_value(comm.rank(), static_cast<int>(t), i);
      grads.push_back(std::move(g));
    }
    for (std::size_t t = 0; t < sizes.size(); ++t)
      engine.submit(ids[t], std::span<float>(grads[t]));
    engine.synchronize();

    for (std::size_t t = 0; t < sizes.size(); ++t) {
      EXPECT_TRUE(engine.is_complete(ids[t]));
      for (std::size_t i = 0; i < sizes[t]; ++i) {
        float expected = 0.0f;
        for (int r = 0; r < ranks; ++r) expected += grad_value(r, static_cast<int>(t), i);
        expected /= static_cast<float>(ranks);
        ASSERT_NEAR(grads[t][i], expected, 1e-5f) << "tensor " << t << " elem " << i;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    RanksByThreshold, FusionParam,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       // Tiny threshold -> one allreduce per tensor; huge ->
                       // everything fuses into a single buffer.
                       ::testing::Values(4.0, 600.0, 64.0 * 1024 * 1024)),
    [](const ::testing::TestParamInfo<std::tuple<int, double>>& param_info) {
      return "p" + std::to_string(std::get<0>(param_info.param)) + "_thresh" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param)));
    });

TEST(RealEngine, TinyThresholdDisablesFusion) {
  mpi::World::run(2, [](mpi::Comm& comm) {
    FusionPolicy policy;
    policy.fusion_threshold_bytes = 4.0;  // one float: nothing can fuse
    RealEngine engine(comm, policy);
    std::vector<std::vector<float>> grads(6, std::vector<float>(16, 1.0f));
    for (int t = 0; t < 6; ++t) engine.register_tensor("t" + std::to_string(t), 16);
    for (int t = 0; t < 6; ++t) engine.submit(t, std::span<float>(grads[static_cast<std::size_t>(t)]));
    engine.process();
    EXPECT_EQ(engine.stats().data_allreduces, 6u);
  });
}

TEST(RealEngine, LargeThresholdFusesToOneBuffer) {
  mpi::World::run(2, [](mpi::Comm& comm) {
    RealEngine engine(comm, FusionPolicy{});  // 64 MiB default
    std::vector<std::vector<float>> grads(6, std::vector<float>(16, 1.0f));
    for (int t = 0; t < 6; ++t) engine.register_tensor("t" + std::to_string(t), 16);
    for (int t = 0; t < 6; ++t) engine.submit(t, std::span<float>(grads[static_cast<std::size_t>(t)]));
    engine.process();
    EXPECT_EQ(engine.stats().data_allreduces, 1u);
    EXPECT_EQ(engine.stats().framework_requests, 6u);
    EXPECT_EQ(engine.stats().engine_wakeups, 1u);
  });
}

TEST(RealEngine, StragglerTensorWaitsForAllRanks) {
  // Rank 1 submits tensor 0 late: the first cycle must not reduce it.
  mpi::World::run(2, [](mpi::Comm& comm) {
    RealEngine engine(comm, FusionPolicy{});
    engine.register_tensor("a", 4);
    std::vector<float> grad(4, static_cast<float>(comm.rank()));
    if (comm.rank() == 0) engine.submit(0, std::span<float>(grad));
    const int done_first = engine.process();
    EXPECT_EQ(done_first, 0);
    if (comm.rank() == 1) engine.submit(0, std::span<float>(grad));
    const int done_second = engine.process();
    EXPECT_EQ(done_second, 1);
    EXPECT_NEAR(grad[0], 0.5f, 1e-6f);
  });
}

TEST(RealEngine, RegisterAfterProcessThrows) {
  // The coordination ready vector is sized by the registration set at the
  // first cycle; registering afterwards would desynchronize its length
  // across ranks, so the engine must reject it loudly.
  mpi::World::run(2, [](mpi::Comm& comm) {
    RealEngine engine(comm, FusionPolicy{});
    engine.register_tensor("a", 4);
    std::vector<float> g(4, 1.0f);
    engine.submit(0, std::span<float>(g));
    engine.process();
    EXPECT_THROW(engine.register_tensor("late", 4), std::logic_error);
  });
}

TEST(RealEngine, MisuseThrows) {
  mpi::World::run(1, [](mpi::Comm& comm) {
    RealEngine engine(comm, FusionPolicy{});
    engine.register_tensor("a", 4);
    EXPECT_THROW(engine.register_tensor("a", 4), std::invalid_argument);
    std::vector<float> wrong(3);
    EXPECT_THROW(engine.submit(0, std::span<float>(wrong)), std::invalid_argument);
    std::vector<float> ok(4);
    engine.submit(0, std::span<float>(ok));
    EXPECT_THROW(engine.submit(0, std::span<float>(ok)), std::logic_error);
  });
}


class HierEngineParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HierEngineParam, HierarchicalExchangeMatchesFlat) {
  const auto [nodes, rpn] = GetParam();
  const int ranks = nodes * rpn;
  mpi::World::run(ranks, [&, rpn = rpn, ranks = ranks](mpi::Comm& comm) {
    RealEngine flat(comm, FusionPolicy{});
    RealEngine hier(comm, FusionPolicy{}, rpn);
    std::vector<float> a(37), b(37);
    for (std::size_t i = 0; i < a.size(); ++i)
      a[i] = b[i] = grad_value(comm.rank(), 0, i);
    flat.register_tensor("t", a.size());
    hier.register_tensor("t", b.size());
    flat.submit(0, std::span<float>(a));
    hier.submit(0, std::span<float>(b));
    flat.synchronize();
    hier.synchronize();
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_NEAR(a[i], b[i], 1e-5f);
    (void)ranks;
  });
}

INSTANTIATE_TEST_SUITE_P(NodesByRpn, HierEngineParam,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2, 4)));

TEST(RealEngine, HierarchicalRejectsBadRanksPerNode) {
  mpi::World::run(4, [](mpi::Comm& comm) {
    EXPECT_THROW(RealEngine(comm, FusionPolicy{}, 3), std::invalid_argument);
    EXPECT_THROW(RealEngine(comm, FusionPolicy{}, -1), std::invalid_argument);
  });
}

// ---------------------------------------------------------------------------
// Timeline DES
// ---------------------------------------------------------------------------

TimelineInput basic_input(const mpi::CollectiveCostModel* cost) {
  TimelineInput in;
  in.fwd_time = 0.1;
  in.bwd_time = 0.2;
  in.optimizer_time = 0.01;
  in.iteration_fixed = 0.005;
  in.iterations = 4;
  in.cost = cost;
  for (int i = 0; i < 10; ++i)
    in.grad_events.push_back({0.02 * (i + 1), 1e6});
  return in;
}

TEST(Timeline, NoCommPathIsPureCompute) {
  const auto r = simulate_training(basic_input(nullptr));
  EXPECT_NEAR(r.per_iteration, 0.005 + 0.1 + 0.2 + 0.01, 1e-9);
  EXPECT_EQ(r.stats.engine_wakeups, 0u);
  EXPECT_EQ(r.stats.data_allreduces, 0u);
  // With no cost model there is no Horovod engine, so nothing can be
  // *requested* of one — matching the real path, where single-process
  // training never constructs a RealEngine and counts zero requests.
  // (This used to report 40, diverging from every real no-comm run.)
  EXPECT_EQ(r.stats.framework_requests, 0u);
}

TEST(Timeline, CommunicationAddsTimeAndCounters) {
  mpi::CollectiveCostModel cost(net::Topology(4, 4, hw::FabricKind::InfiniBandEDR));
  const auto none = simulate_training(basic_input(nullptr));
  const auto comm = simulate_training(basic_input(&cost));
  EXPECT_GT(comm.per_iteration, none.per_iteration);
  EXPECT_GT(comm.stats.engine_wakeups, 0u);
  EXPECT_GT(comm.stats.data_allreduces, 0u);
  EXPECT_DOUBLE_EQ(comm.stats.bytes_reduced, 4 * 10 * 1e6);
}

TEST(Timeline, LargerCycleTimeMeansFewerEngineOps) {
  mpi::CollectiveCostModel cost(net::Topology(4, 4, hw::FabricKind::InfiniBandEDR));
  auto in = basic_input(&cost);
  const auto fast = simulate_training(in);
  in.policy.cycle_time_s = 50e-3;
  const auto slow = simulate_training(in);
  EXPECT_LT(slow.stats.engine_allreduces(), fast.stats.engine_allreduces());
  EXPECT_EQ(slow.stats.framework_requests, fast.stats.framework_requests);
}

TEST(Timeline, SharedCoreTaxSlowsCompute) {
  mpi::CollectiveCostModel cost(net::Topology(4, 4, hw::FabricKind::InfiniBandEDR));
  auto in = basic_input(&cost);
  in.comm_thread_shares_core = false;
  const auto dedicated = simulate_training(in);
  in.comm_thread_shares_core = true;
  const auto taxed = simulate_training(in);
  // With a 0.8 ms wakeup cost at 3.5 ms cycles, ~23% of compute is stolen
  // when the progress thread shares a core (vs ~3% interference otherwise).
  EXPECT_GT(taxed.per_iteration, dedicated.per_iteration * 1.1);
}

TEST(Timeline, StragglerFactorStretchesCompute) {
  auto in = basic_input(nullptr);
  in.straggler_factor = 1.10;
  const auto r = simulate_training(in);
  EXPECT_NEAR(r.per_iteration, 0.005 + 1.10 * (0.1 + 0.2 + 0.01), 1e-9);
  in.straggler_factor = 0.5;
  EXPECT_THROW(simulate_training(in), std::invalid_argument);
}

TEST(Timeline, IterationsScaleTotalTime) {
  auto in = basic_input(nullptr);
  const auto four = simulate_training(in);
  in.iterations = 8;
  const auto eight = simulate_training(in);
  EXPECT_NEAR(eight.total_time, 2.0 * four.total_time, 1e-9);
  in.iterations = 0;
  EXPECT_THROW(simulate_training(in), std::invalid_argument);
}

TEST(Timeline, CommExposureReportedWhenCommDominates) {
  // Gradients all land at the very end of a short backward pass over a slow
  // 10GigE fabric: communication cannot overlap and must be exposed.
  mpi::CollectiveCostModel cost(net::Topology(8, 1, hw::FabricKind::Ethernet10G));
  TimelineInput in;
  in.fwd_time = 0.01;
  in.bwd_time = 0.02;
  in.iterations = 2;
  in.cost = &cost;
  in.grad_events.push_back({0.02, 100e6});
  const auto r = simulate_training(in);
  EXPECT_GT(r.comm_exposed_fraction, 0.3);
}

TEST(Timeline, IdleWakeupsNotCharged) {
  // Make a single negotiation allreduce far more expensive than the cycle
  // time, then pad the forward pass with 5 s of comm-free compute. Idle
  // wake-ups during that padding are counted (the engine's coordination op
  // fires every cycle, as in RealEngine::process()) but must not charge the
  // negotiation cost: the padded run takes exactly the extra compute time
  // longer. The pre-fix code billed every idle wake-up, slowing the wake
  // cadence to the negotiation time and stretching iterations.
  mpi::CollectiveCostModel cost(net::Topology(4, 4, hw::FabricKind::InfiniBandEDR));
  auto in = basic_input(&cost);
  in.wakeup_cpu_s = 0.0;                   // no progress-thread tax: stretch == 1
  in.negotiation_bytes_per_tensor = 1e8;   // ~1 GB negotiation >> 3.5 ms cycle
  const auto base = simulate_training(in);
  auto padded = in;
  padded.fwd_time += 5.0;
  const auto r = simulate_training(padded);
  EXPECT_NEAR(r.total_time - base.total_time, 4 * 5.0, 0.05);
  EXPECT_GT(r.stats.engine_wakeups, base.stats.engine_wakeups + 4000);  // idle cycles counted
  EXPECT_EQ(r.stats.framework_requests, 40u);
  EXPECT_DOUBLE_EQ(r.stats.bytes_reduced, 4 * 10 * 1e6);
}

TEST(Timeline, CounterParityWithRealEngine) {
  // Same workload shape in the DES and the real engine: 10 gradients that
  // all become ready at once, default 64 MiB fusion threshold, 3 iterations.
  // Both must report one fused data allreduce per iteration and identical
  // framework/byte totals. Wake-up counts differ by construction: the real
  // engine is driven synchronously (synchronize() cycles it only while work
  // is outstanding) while the simulated engine free-runs on the cycle timer
  // and also counts idle coordination cycles.
  constexpr int kSteps = 3;
  constexpr int kTensors = 10;
  constexpr std::size_t kElems = 1024;  // 4096 bytes each

  mpi::CollectiveCostModel cost(net::Topology(2, 1, hw::FabricKind::InfiniBandEDR));
  TimelineInput in;
  in.fwd_time = 0.05;
  in.bwd_time = 0.05;
  in.iterations = kSteps;
  in.cost = &cost;
  for (int i = 0; i < kTensors; ++i)
    in.grad_events.push_back({0.0, kElems * sizeof(float)});
  const auto sim = simulate_training(in);

  CommStats real;
  mpi::World::run(2, [&](mpi::Comm& comm) {
    RealEngine engine(comm, FusionPolicy{});
    std::vector<std::vector<float>> grads(kTensors, std::vector<float>(kElems, 1.0f));
    for (int t = 0; t < kTensors; ++t) engine.register_tensor("t" + std::to_string(t), kElems);
    for (int step = 0; step < kSteps; ++step) {
      for (int t = 0; t < kTensors; ++t)
        engine.submit(t, std::span<float>(grads[static_cast<std::size_t>(t)]));
      engine.synchronize();
    }
    if (comm.rank() == 0) real = engine.stats();
  });

  EXPECT_EQ(sim.stats.data_allreduces, real.data_allreduces);
  EXPECT_EQ(sim.stats.framework_requests, real.framework_requests);
  EXPECT_DOUBLE_EQ(sim.stats.bytes_reduced, real.bytes_reduced);
  EXPECT_GE(sim.stats.engine_wakeups, real.engine_wakeups);
  EXPECT_EQ(real.engine_wakeups, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(real.data_allreduces, static_cast<std::uint64_t>(kSteps));
}

TEST(Timeline, PerRankModeKeepsCounterParityAtFourThousandRanks) {
  // Zero jitter and zero wake-up tax (stretch == 1) make every explicit rank
  // follow the representative rank's exact virtual schedule, so per-rank mode
  // at 4096 ranks must reproduce the representative-rank engine view: same
  // framework requests, same fused data allreduces, same bytes. What changes
  // is the event volume — ranks x (tensors + 1) chains per iteration through
  // the slab pool — while the pool's resident footprint stays O(ranks)
  // because each rank keeps exactly one submission event in flight.
  mpi::CollectiveCostModel cost(net::Topology(256, 16, hw::FabricKind::OmniPath));
  auto in = basic_input(&cost);
  in.wakeup_cpu_s = 0.0;
  const auto rep = simulate_training(in);

  auto per_rank = in;
  per_rank.sim_ranks = 4096;
  per_rank.per_rank_jitter_cv = 0.0;
  const auto sim = simulate_training(per_rank);

  EXPECT_EQ(sim.stats.framework_requests, rep.stats.framework_requests);
  EXPECT_EQ(sim.stats.data_allreduces, rep.stats.data_allreduces);
  EXPECT_DOUBLE_EQ(sim.stats.bytes_reduced, rep.stats.bytes_reduced);
  EXPECT_NEAR(sim.per_iteration, rep.per_iteration, 1e-6);

  // 4096 ranks x 10 submissions x 4 iterations of submit events alone.
  EXPECT_GT(sim.events_processed, 4096u * 10u * 4u);
  EXPECT_GT(sim.events_processed, 50 * rep.events_processed);
  EXPECT_GE(sim.pool_slots, 4096u);
  EXPECT_LT(sim.pool_slots, 3u * 4096u);
}

TEST(Timeline, PerRankModeReportsTheSlowestRanksMeanFactor) {
  mpi::CollectiveCostModel cost(net::Topology(2, 4, hw::FabricKind::OmniPath));
  auto in = basic_input(&cost);
  EXPECT_DOUBLE_EQ(simulate_training(in).mean_max_rank_factor, 1.0);  // representative
  in.sim_ranks = 8;
  in.faults.slowdowns.push_back({2, 3.0, 1, 3});  // iterations 1 and 2 of 4
  EXPECT_DOUBLE_EQ(simulate_training(in).mean_max_rank_factor, (1.0 + 3.0 + 3.0 + 1.0) / 4.0);
}

TEST(Timeline, SlowdownFactorMustBeFiniteAndBounded) {
  mpi::CollectiveCostModel cost(net::Topology(2, 4, hw::FabricKind::OmniPath));
  auto in = basic_input(&cost);
  in.sim_ranks = 8;
  for (const double factor : {0.0, -1.0, std::nan(""), HUGE_VAL, 1e308,
                              2.0 * RankSlowdown::kMaxFactor}) {
    in.faults.slowdowns = {{1, factor, 0, -1}};
    EXPECT_THROW(simulate_training(in), std::invalid_argument) << factor;
  }
  in.faults.slowdowns = {{1, RankSlowdown::kMaxFactor, 0, -1}};
  EXPECT_GT(simulate_training(in).total_time, 1e8);  // the bound itself runs
}

// ---------------------------------------------------------------------------
// Idle fast-forward: the per-cycle loop's counts, without its idle events
// ---------------------------------------------------------------------------

struct ParityCase {
  std::string name;
  train::TrainConfig config;
};

/// Every shipped cluster x model at 1 and 4 nodes in representative mode,
/// then Stampede2 2x4 per-rank with jitter, crash/rejoin and a slowdown, and
/// a wide AMD per-rank run. Order and names match hvd_parity_golden.inc.
std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> out;
  for (const auto& cluster : hw::all_clusters())
    for (const auto model : dnn::all_models())
      for (const int nodes : {1, 4})
        out.push_back({cluster.name + "/" + dnn::to_string(model) + "/" + std::to_string(nodes),
                       core::tf_best(cluster, model, nodes)});
  train::TrainConfig base;
  base.cluster = hw::stampede2();
  base.nodes = 2;
  base.ppn = 4;
  base.batch_per_rank = 64;
  base.iterations = 6;
  base.per_rank_sim = true;
  out.push_back({"per-rank jitter", base});
  auto jittery = base;
  jittery.jitter_cv = 0.1;
  out.push_back({"per-rank jitter 0.1", jittery});
  auto crash = base;
  crash.faults.crashes.push_back({1, 2});
  crash.faults.rejoins.push_back({1, 4});
  out.push_back({"per-rank crash/rejoin", crash});
  auto slow = base;
  slow.faults.slowdowns.push_back({2, 3.0, 1, 4});
  out.push_back({"per-rank slowdown", slow});
  auto amd = base;
  amd.cluster = hw::amd_cluster();
  amd.nodes = 4;
  amd.ppn = 16;
  out.push_back({"per-rank AMD 4x16", amd});
  return out;
}

struct ParityGolden {
  const char* name;
  std::uint64_t engine_wakeups;
  std::uint64_t data_allreduces;
  double images_per_sec;
  double per_iteration_s;
};

constexpr ParityGolden kParityGolden[] = {
#include "hvd_parity_golden.inc"
};

TEST(TimelineFastForward, MatchesThePerCycleLoopGoldens) {
  // Counts exactly; times to 1e-12 relative, because a skipped run of idle
  // cycles lands its wake-up at w + k*c rounded once, where the per-cycle
  // loop added c k times.
  const std::vector<ParityCase> cases = parity_cases();
  ASSERT_EQ(cases.size(), std::size(kParityGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ParityGolden& want = kParityGolden[i];
    SCOPED_TRACE(want.name);
    ASSERT_EQ(cases[i].name, want.name);
    const train::TrainResult got = train::run_training(cases[i].config);
    EXPECT_EQ(got.comm.engine_wakeups, want.engine_wakeups);
    EXPECT_EQ(got.comm.data_allreduces, want.data_allreduces);
    EXPECT_NEAR(got.images_per_sec, want.images_per_sec, 1e-12 * want.images_per_sec);
    EXPECT_NEAR(got.per_iteration_s, want.per_iteration_s, 1e-12 * want.per_iteration_s);
  }
}

TEST(TimelineFastForward, TieOrderMatchesThePerCycleLoop) {
  // Binary-exact times (a 0.25 s cycle, no wake-up tax) put wake-ups exactly
  // on forward ends and gradient arrivals, so every tie rule is exercised:
  // an event at T runs before the wake at T, and an arrival at T counts iff
  // it was registered before that wake was scheduled. Goldens from the
  // per-cycle loop; the times come out bit-identical.
  struct TieGolden {
    std::uint64_t engine_wakeups;
    std::uint64_t data_allreduces;
    double per_iteration;
  };
  constexpr TieGolden kGolden[] = {
      {24, 14, 1.916695512222222},
      {24, 6, 1.9166955120000002},
      {24, 15, 1.916695512222222},
      {31, 15, 2.5000288455555553},
  };
  mpi::CollectiveCostModel cost(net::Topology(2, 1, hw::FabricKind::InfiniBandEDR));
  for (int variant = 0; variant < 4; ++variant) {
    SCOPED_TRACE(variant);
    TimelineInput in;
    in.fwd_time = 0.5;
    in.bwd_time = 1.0;
    in.optimizer_time = 0.25;
    in.iterations = 3;
    in.cost = &cost;
    in.wakeup_cpu_s = 0.0;
    in.policy.cycle_time_s = 0.25;
    for (int i = 0; i <= 4; ++i) in.grad_events.push_back({0.25 * i, 1e6});
    if (variant == 1) in.grad_events = {{0.0, 1e6}, {0.0, 2e6}, {0.125, 1e6}, {1.0, 1e6}};
    if (variant >= 2) in.sim_ranks = 4;
    if (variant == 3) in.faults.slowdowns.push_back({1, 2.0, 1, 2});
    const auto r = simulate_training(in);
    EXPECT_EQ(r.stats.engine_wakeups, kGolden[variant].engine_wakeups);
    EXPECT_EQ(r.stats.data_allreduces, kGolden[variant].data_allreduces);
    EXPECT_DOUBLE_EQ(r.per_iteration, kGolden[variant].per_iteration);
  }
}

TEST(TimelineFastForward, RepresentativeStepRunsFiveTimesFewerEvents) {
  // Stampede2 2 nodes x 4 ppn, ResNet-50: the per-cycle loop processed 2892
  // calendar events for these 2266 engine wake-ups.
  const train::TrainResult r =
      train::run_training(core::tf_best(hw::stampede2(), dnn::ModelId::ResNet50, 2));
  EXPECT_EQ(r.comm.engine_wakeups, 2266u);
  EXPECT_LE(5 * r.sim_events, 2892u) << r.sim_events << " events";
}

TEST(TimelineFastForward, HugeSlowdownCountsEveryCycleInFewEvents) {
  // A 1e7x straggler stretches each iteration to ~3e6 virtual seconds, ~1e9
  // engine cycles: the per-cycle loop ran for minutes; booked in closed form
  // it costs about what the healthy run does.
  mpi::CollectiveCostModel cost(net::Topology(2, 4, hw::FabricKind::OmniPath));
  auto in = basic_input(&cost);
  in.sim_ranks = 8;
  const auto healthy = simulate_training(in);
  in.faults.slowdowns.push_back({1, 1e7, 0, -1});
  const auto r = simulate_training(in);
  EXPECT_GT(r.total_time, 1e6);
  const double cycles = r.total_time / in.policy.cycle_time_s;
  EXPECT_NEAR(static_cast<double>(r.stats.engine_wakeups), cycles, 1e-6 * cycles);
  EXPECT_LT(r.events_processed, 2 * healthy.events_processed);
}

TEST(TimelineFastForward, UncountableIdleSpanThrowsInsteadOfSpinning) {
  // 3e8 virtual seconds at a 1 ns cycle is ~3e17 cycles, past the 2^52 a
  // double counts exactly; the per-cycle loop would never have finished.
  mpi::CollectiveCostModel cost(net::Topology(2, 4, hw::FabricKind::OmniPath));
  auto in = basic_input(&cost);
  in.sim_ranks = 8;
  in.policy.cycle_time_s = 1e-9;
  in.faults.slowdowns.push_back({1, RankSlowdown::kMaxFactor, 0, -1});
  EXPECT_THROW(simulate_training(in), std::runtime_error);
}

TEST(FusionPolicy, Validation) {
  FusionPolicy p;
  p.cycle_time_s = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = FusionPolicy{};
  p.fusion_threshold_bytes = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// plan_fusion: the packing rule shared by RealEngine, TimelineSim, and the
// protocol model checker
// ---------------------------------------------------------------------------

TEST(PlanFusion, GroupsRespectCapacityAndCoverEveryReadyIdOnce) {
  const std::vector<std::size_t> sizes = {3, 1, 4, 2, 2};
  const std::vector<int> ready = {0, 1, 2, 3, 4};
  const auto groups = plan_fusion(ready, sizes, std::size_t{4});

  std::vector<int> covered;
  for (const auto& group : groups) {
    ASSERT_FALSE(group.empty());
    std::size_t total = 0;
    for (int id : group) total += sizes[static_cast<std::size_t>(id)];
    EXPECT_LE(total, 4u);  // no single-tensor group is oversized here
    covered.insert(covered.end(), group.begin(), group.end());
  }
  EXPECT_EQ(covered, ready);  // id order preserved, each shipped exactly once
  // Greedy id-order packing: {3,1}, {4}, {2,2}.
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(groups[1], (std::vector<int>{2}));
  EXPECT_EQ(groups[2], (std::vector<int>{3, 4}));
}

TEST(PlanFusion, OversizedTensorShipsAloneByDefault) {
  const std::vector<std::size_t> sizes = {10, 2};
  const auto groups = plan_fusion({0, 1}, sizes, std::size_t{4});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<int>{0}));  // bypasses fusion, still ships
  EXPECT_EQ(groups[1], (std::vector<int>{1}));
}

TEST(PlanFusion, StrictCapacitySkipsOversizedTensors) {
  const std::vector<std::size_t> sizes = {10, 2, 1};
  const auto groups = plan_fusion({0, 1, 2}, sizes, std::size_t{4},
                                  /*allow_oversized=*/false);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<int>{1, 2}));  // t0 is never planned
}

TEST(PlanFusion, EmptyReadySetPlansNothing) {
  EXPECT_TRUE(plan_fusion({}, std::vector<std::size_t>{1, 2}, std::size_t{4}).empty());
}

TEST(CommStats, Accumulate) {
  CommStats a, b;
  a.engine_wakeups = 2;
  a.data_allreduces = 3;
  b.engine_wakeups = 5;
  b.framework_requests = 7;
  a += b;
  EXPECT_EQ(a.engine_wakeups, 7u);
  EXPECT_EQ(a.engine_allreduces(), 10u);
  EXPECT_EQ(a.framework_requests, 7u);
}

}  // namespace
}  // namespace dnnperf::hvd
