// Seeded input generators for the four workloads. The same seed always
// yields the same stream; the program under test only ever sees the
// generated requests.
#pragma once

#include <cstdint>
#include <vector>

#include "core/advisor_service.hpp"
#include "train/real_trainer.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace dnnperf;

/// An independent generator for one (seed, stream) pair.
util::Rng rng_for(std::uint64_t seed, std::uint64_t stream);

/// Every shipped cluster, with max_nodes raised to at least 16 so that node
/// counts 1-16 are valid what-if questions on every platform.
std::vector<hw::ClusterModel> bench_clusters();

// ---- advisor_cold ----------------------------------------------------------

/// Rounds in one advisor_cold stream. A (cluster, model, framework) asks a
/// different node count in every round, so no two requests of a stream
/// share a grid point.
inline constexpr int kColdRounds = 16;

/// Round `round` of the advisor_cold stream: exactly one request per
/// (cluster, model, framework) — 8 x 11 x 2 = 176 — in seeded order. Node
/// counts follow a fixed Latin design and, per (cluster, model) pair, one
/// framework asks opt_levels {0, 2} and the other {0}, alternating by round,
/// so every seed prices the same cost mix. The seed draws each request's
/// fusion threshold (a cost-neutral 1 B - 1 MiB below 64 MiB, which keys it
/// apart from every other seed's) and the order.
std::vector<core::AdvisorRequest> cold_round(std::uint64_t seed, int round);

/// Set-up queries (ResNet-50 on every cluster, both frameworks) that warm
/// the pool and the process memos without sharing a grid point with any
/// cold_round request (batch candidate 8 only).
std::vector<core::AdvisorRequest> cold_warmup_requests();

// ---- advisor_warm ----------------------------------------------------------

/// Working-set size: slot i asks cluster i % 8, model 3i mod 11, framework
/// (i / 8) % 2, 7i mod 16 + 1 nodes and opt_levels {0} or {0, 2} by
/// (i / 16) % 2, with a seeded, cost-neutral fusion threshold. The slot index
/// is also the request's Zipf rank. Every seed prices the same pre-warm and
/// the same hot set: with a seeded model and node count, the pre-warm in
/// setup_s took 0.9 s on one seed and 1.55 s on another, every time.
inline constexpr int kWarmSlots = 32;
inline constexpr double kZipfExponent = 1.0;
inline constexpr int kWarmBatch = 4;  ///< requests per ask_many call

std::vector<core::AdvisorRequest> warm_working_set(std::uint64_t seed);

/// Cumulative Zipf(kZipfExponent) weights over ranks 0..n-1.
std::vector<double> zipf_cdf(std::size_t n);
std::size_t zipf_draw(const std::vector<double>& cdf, util::Rng& rng);

// ---- scale_survive ---------------------------------------------------------

inline constexpr int kScalePpn = 16;
/// Rank counts of one round; every round asks each of them once per kind.
inline const std::vector<int> kScaleRanks{64, 128, 256, 512, 1024, 2048};

struct ScaleOp {
  enum class Kind { Curve, CrashRejoin, Slowdown };
  Kind kind = Kind::Curve;
  int ranks = 0;
  core::ScalingRequest curve;        ///< Kind::Curve: node_counts {ranks/2, ranks}
  core::SurvivabilityRequest survive;  ///< the other kinds
};

/// Compute slowdown of the straggler in Slowdown scenarios.
inline constexpr double kSlowdownFactor = 1.5;

/// `rounds` rounds of 18 ops (6 rank counts x 3 kinds), each round in
/// seeded order; the seed also picks the faulted rank. Every op's fusion
/// threshold is distinct, so every config the stream prices is fresh to the
/// eval cache and the lint memo.
std::vector<ScaleOp> scale_stream(std::uint64_t seed, int rounds);

/// The set-up ops: one of each kind at 512 ranks, keyed apart from every
/// stream op.
std::vector<ScaleOp> scale_warmup_ops();

// ---- real_train ------------------------------------------------------------

/// Steps per run_real_training call. Three steps let the per-step wall times
/// be recovered exactly from the trainer's min/max/mean step statistics.
inline constexpr int kRealStepsPerCall = 3;

/// The real_train configuration: 2 ranks x 1 thread, 32x32 images, 16
/// images per rank, no batch norm; `call` picks the data/init seed. One
/// thread per rank leaves two of the four vCPUs idle: with all four busy, a
/// step waits on whichever one the host steals, and op_p50_ms and op_p90_ms
/// followed the host's steal two to three times as closely.
train::RealTrainConfig real_config(std::uint64_t seed, std::uint64_t call, int steps);

// ---- determinism -----------------------------------------------------------

/// Content digests of generated streams (self-test: same seed, same digest).
std::uint64_t digest(const std::vector<core::AdvisorRequest>& requests);
std::uint64_t digest(const std::vector<ScaleOp>& ops);

}  // namespace perfbench
