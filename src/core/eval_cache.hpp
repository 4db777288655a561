// Content-addressed evaluation cache for the advisor service (§6.6).
//
// Every what-if query the advisor answers bottoms out in "simulate this
// TrainConfig" — and overlapping sweeps re-ask the same points constantly
// (every ppn sweep shares its batch candidates, every client asking about
// Stampede2 shares the whole grid). The cache keys a per-config result
// on a stable 64-bit content hash of everything run_training consumes:
//
//   config_key = fnv1a( graph_fingerprint(model graph),
//                       platform_fingerprint(cluster),
//                       schedule: nodes/ppn/threads/batch/framework/device,
//                       fusion policy, iterations, jitter, memory gate )
//
// so two configs collide only if they would simulate identically. The same
// key addresses the lint memo (LintMemo below): lint_config + the bounded
// engine model check are far more expensive than the simulation itself, and
// Experiment::measure() used to re-run them on every byte-identical call.
//
// EvalCache is sharded (key bits pick the shard, each shard its own mutex +
// exact LRU order) so concurrent queries on a warm cache do not serialize on
// one lock. Capacity is bounded; eviction is LRU per shard. Entries are
// compact EvalRecords — the reply-visible figures of a Measurement, not the
// whole TrainResult — so a full 64k-entry cache stays a few MiB.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/experiment.hpp"
#include "train/trainer.hpp"

namespace dnnperf::core {

// ---- stable content hashing ------------------------------------------------

/// FNV-1a 64-bit over an explicit byte/word stream. Stable across runs and
/// platforms (no pointer or container-layout dependence).
class HashStream {
 public:
  HashStream& mix(std::uint64_t v);
  HashStream& mix(std::int64_t v) { return mix(static_cast<std::uint64_t>(v)); }
  HashStream& mix(int v) { return mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  HashStream& mix(bool v) { return mix(static_cast<std::uint64_t>(v ? 1 : 0)); }
  HashStream& mix(double v);  ///< by bit pattern; all NaNs collapse to one
  HashStream& mix(const std::string& s);
  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

/// Content fingerprint of a DNN graph: every op's kind, shape, FLOP/param/
/// byte counts, and wiring. Two graphs with the same fingerprint cost the
/// same to the execution model.
std::uint64_t graph_fingerprint(const dnn::Graph& graph);

/// graph_fingerprint(build_model(model)), memoized per ModelId (building a
/// ResNet graph just to hash it would dominate a warm cache hit).
std::uint64_t model_fingerprint(dnn::ModelId model);

/// Content fingerprint of a cluster: CPU microarchitecture fields, optional
/// GPU, node memory, fabric, and cluster size.
std::uint64_t platform_fingerprint(const hw::ClusterModel& cluster);

/// The cache key: (graph fingerprint, platform fingerprint, TrainConfig
/// schedule + fusion policy). Everything run_training reads is mixed in.
std::uint64_t config_key(const train::TrainConfig& config);

// ---- the measurement cache -------------------------------------------------

struct EvalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  double hit_ratio() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// The part of an evaluation only survivability replies read: what a fault
/// scenario did to the run.
struct FaultOutcome {
  double alive_rank_fraction = 1.0;
  std::uint64_t membership_changes = 0;
  std::vector<double> iteration_seconds;  ///< the recovery curve, step order

  bool operator==(const FaultOutcome&) const = default;
};

/// What the cache keeps of one evaluation: exactly the fields advisor,
/// scaling-curve and survivability replies read. The service compacts every
/// fresh Measurement to this before assembling replies, so a cold reply and
/// a warm one are built from the same record.
struct EvalRecord {
  double images_per_sec = 0.0;
  double per_iteration_s = 0.0;
  /// forward + backward + optimizer seconds, summed left to right as
  /// prof::classify_sim_point sums them (it reads only the sum).
  double compute_s = 0.0;
  double comm_exposed_fraction = 0.0;
  double comm_busy_per_iteration_s = 0.0;
  double straggler_stretch = 1.0;
  /// DES calendar totals, saturated at the cache's field widths when
  /// compacted (far beyond any run: 2^40 events would take over a day to
  /// simulate), so a hit returns exactly what the miss replied.
  static constexpr std::uint64_t kMaxSimEvents = (1ull << 40) - 1;
  static constexpr std::uint32_t kMaxPoolSlots = (1u << 23) - 1;
  std::uint64_t sim_events = 0;
  std::uint32_t sim_pool_slots = 0;
  /// Present iff the evaluated config carries a fault scenario.
  std::optional<FaultOutcome> fault;

  /// Compacts `m`, keeping the fault outcome iff `with_fault`.
  static EvalRecord of(const Measurement& m, bool with_fault);
  /// Compacts an evaluation of `config`: the fault outcome rides along iff
  /// the config carries a scenario (a fault schedule or link degrades).
  static EvalRecord of(const train::TrainConfig& config, const Measurement& m);

  bool operator==(const EvalRecord&) const = default;
};

/// Sharded, capacity-bounded, exact-LRU map from config_key to EvalRecord.
/// Thread-safe: every operation takes only its shard's mutex. Lookups count
/// into both the local stats and the advisor_cache_* registry counters.
///
/// Layout (§6.6): each shard keeps its entries in 72-byte slots in
/// fixed-size blocks that never move as the shard grows, linked into the
/// LRU order by u32 slot ids, and finds them through an open-addressing
/// table of slot ids kept at most half full (grown by doubling, never
/// preallocated to capacity). A full shard reuses its LRU tail's slot. A
/// fault outcome lives out of line, keyed by slot id, and is freed when its
/// entry is evicted or overwritten, so a healthy entry costs at most 80
/// bytes all-in.
class EvalCache {
 public:
  /// `capacity` entries total, spread over `shards` independent LRU shards
  /// (each holds capacity/shards, minimum 1). capacity == 0 disables caching
  /// (every lookup is a miss, nothing is stored).
  explicit EvalCache(std::size_t capacity = 1 << 16, int shards = 16);

  /// Returns the cached record and refreshes its LRU position, or nullopt
  /// on miss.
  std::optional<EvalRecord> lookup(std::uint64_t key);

  /// Inserts (or refreshes) `key`; evicts the shard's LRU tail beyond
  /// capacity. Re-inserting an existing key overwrites — the advisor only
  /// does this with identical values (measurements are deterministic per
  /// key), so racing inserts of the same key are benign.
  void insert(std::uint64_t key, const EvalRecord& record);
  /// Compacts and inserts a measurement whose config is not at hand: the
  /// fault outcome is kept whenever the run recorded an iteration series.
  void insert(std::uint64_t key, const Measurement& measurement);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Out-of-line fault outcomes currently held (one per scenario entry).
  std::size_t fault_extensions() const;
  EvalCacheStats stats() const;
  void clear();  ///< drops entries and stats (not the registry counters)

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint32_t kBlockSlots = 64;

  struct Slot {
    std::uint64_t key = 0;
    double images_per_sec = 0.0;
    double per_iteration_s = 0.0;
    double compute_s = 0.0;
    double comm_exposed_fraction = 0.0;
    double comm_busy_per_iteration_s = 0.0;
    double straggler_stretch = 1.0;
    std::uint64_t sim_events : 40 = 0;      ///< EvalRecord::kMaxSimEvents
    std::uint64_t sim_pool_slots : 23 = 0;  ///< EvalRecord::kMaxPoolSlots
    std::uint64_t has_fault : 1 = 0;        ///< outcome in Shard::faults
    std::uint32_t prev = kNone;  ///< toward the most recently used
    std::uint32_t next = kNone;  ///< toward the least recently used
  };
  /// The byte budget: a slot plus at most two index words (the table is
  /// kept at most half full).
  static_assert(sizeof(Slot) + 2 * sizeof(std::uint32_t) <= 80,
                "a healthy eval-cache entry must stay within 80 bytes");

  struct Shard {
    mutable std::mutex mutex;
    std::vector<std::unique_ptr<Slot[]>> blocks;  ///< kBlockSlots each
    std::uint32_t count = 0;  ///< slots in use == entries (ids 0..count-1)
    std::uint32_t head = kNone;  ///< most recently used
    std::uint32_t tail = kNone;  ///< least recently used
    std::vector<std::uint32_t> index;  ///< slot ids, kNone = empty; power-of-2 size
    int index_shift = 64;  ///< 64 - log2(index.size()): home() keeps the top bits
    std::unordered_map<std::uint32_t, FaultOutcome> faults;  ///< by slot id
    EvalCacheStats stats;

    Slot& slot(std::uint32_t id) { return blocks[id / kBlockSlots][id % kBlockSlots]; }
    std::size_t home(std::uint64_t key) const;
    std::uint32_t find(std::uint64_t key);
    /// Indexes slot `id` (its key already set) in a table about to hold
    /// `entries` ids, growing and rehashing first if that passes half full.
    void index_add(std::uint32_t id, std::size_t entries);
    void place(std::uint32_t id);
    void index_remove(std::uint64_t key);
    void unlink(std::uint32_t id);
    void push_front(std::uint32_t id);
    void drop_fault(std::uint32_t id);
  };

  Shard& shard_for(std::uint64_t key);

  std::size_t capacity_;
  std::uint32_t per_shard_;
  std::vector<Shard> shards_;
};

// ---- the lint memo ---------------------------------------------------------

/// Memoized verdict of analysis::lint_config for one config key.
struct LintVerdict {
  bool ok = true;            ///< no Error-level findings
  std::string rendered;      ///< render_text of the full diagnostics
  std::size_t warnings = 0;  ///< Warn-level findings (logged on first run only)
};

/// Process-wide memo of lint_config verdicts keyed by config_key. The gate
/// (schedule passes + the bounded engine protocol model check) costs orders
/// of magnitude more than the simulation it guards; byte-identical configs
/// get the stored verdict. Warn findings are logged only on the original
/// miss — a sweep that re-measures a warned config does not re-spam the log.
/// Unbounded by design: verdicts are a few hundred bytes and the config
/// universe of one process is the advisor grid, not user input.
class LintMemo {
 public:
  /// The memoized verdict, running analysis::lint_config on a miss.
  /// `key` must be config_key(config). Thread-safe; concurrent misses on the
  /// same key may both lint (same verdict, one is kept).
  LintVerdict check(const train::TrainConfig& config, std::uint64_t key);

  std::uint64_t hits() const;    ///< lints avoided
  std::uint64_t misses() const;  ///< lints actually run
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, LintVerdict> memo_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// The process-wide memo shared by Experiment::measure and the advisor
/// service.
LintMemo& lint_memo();

}  // namespace dnnperf::core
