#include "core/eval_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "analysis/analyze.hpp"
#include "dnn/models.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace dnnperf::core {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// advisor_cache_* counters are registered once and shared by every EvalCache
/// instance — per-instance stats live in EvalCacheStats; the registry view is
/// process-wide like every other metric family.
struct CacheCounters {
  util::metrics::Counter hits = util::metrics::counter(
      "advisor_cache_hits_total", "Eval-cache lookups served without re-simulating");
  util::metrics::Counter misses = util::metrics::counter(
      "advisor_cache_misses_total", "Eval-cache lookups that required a fresh simulation");
  util::metrics::Counter evictions = util::metrics::counter(
      "advisor_cache_evictions_total", "Eval-cache entries evicted at the capacity bound");
};

const CacheCounters& cache_counters() {
  static const CacheCounters c;
  return c;
}

struct LintCounters {
  util::metrics::Counter avoided = util::metrics::counter(
      "core_lint_memo_hits_total",
      "Config lints avoided because the verdict was memoized by config hash");
  util::metrics::Counter runs = util::metrics::counter(
      "core_lint_memo_misses_total", "Config lints actually executed (memo misses)");
};

const LintCounters& lint_counters() {
  static const LintCounters c;
  return c;
}

}  // namespace

// ---- HashStream ------------------------------------------------------------

HashStream& HashStream::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (v >> (8 * i)) & 0xffull;
    state_ *= kFnvPrime;
  }
  return *this;
}

HashStream& HashStream::mix(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(bits);
}

HashStream& HashStream::mix(const std::string& s) {
  for (const char ch : s) {
    state_ ^= static_cast<std::uint8_t>(ch);
    state_ *= kFnvPrime;
  }
  return mix(static_cast<std::uint64_t>(s.size()));
}

// ---- fingerprints ----------------------------------------------------------

std::uint64_t graph_fingerprint(const dnn::Graph& graph) {
  HashStream h;
  h.mix(graph.name());
  h.mix(graph.size());
  for (const auto& op : graph.ops()) {
    h.mix(static_cast<int>(op.kind));
    h.mix(op.out.c).mix(op.out.h).mix(op.out.w);
    h.mix(op.fwd_flops).mix(op.bwd_flops).mix(op.params).mix(op.output_bytes);
    h.mix(op.has_bias);
    h.mix(static_cast<std::uint64_t>(op.inputs.size()));
    for (const int in : op.inputs) h.mix(in);
  }
  return h.digest();
}

std::uint64_t model_fingerprint(dnn::ModelId model) {
  static std::mutex mutex;
  static std::unordered_map<int, std::uint64_t> memo;
  const int id = static_cast<int>(model);
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = memo.find(id); it != memo.end()) return it->second;
  }
  const std::uint64_t fp = graph_fingerprint(dnn::build_model(model));
  std::lock_guard<std::mutex> lock(mutex);
  return memo.emplace(id, fp).first->second;
}

std::uint64_t platform_fingerprint(const hw::ClusterModel& cluster) {
  HashStream h;
  h.mix(cluster.name);
  h.mix(cluster.max_nodes);
  h.mix(static_cast<int>(cluster.fabric));
  h.mix(cluster.node.memory_gib);

  const hw::CpuModel& cpu = cluster.node.cpu;
  h.mix(cpu.name).mix(cpu.label);
  h.mix(static_cast<int>(cpu.vendor));
  h.mix(cpu.sockets).mix(cpu.cores_per_socket).mix(cpu.numa_domains_per_socket);
  h.mix(cpu.threads_per_core);
  h.mix(cpu.clock_ghz).mix(cpu.flops_per_cycle_fp32);
  h.mix(cpu.mem_bw_per_socket_gbps).mix(cpu.smt_speedup_fraction);

  h.mix(cluster.node.has_gpu());
  if (cluster.node.has_gpu()) {
    const hw::GpuModel& gpu = *cluster.node.gpu;
    h.mix(gpu.name);
    h.mix(gpu.peak_fp32_tflops).mix(gpu.mem_bw_gbps);
    h.mix(gpu.launch_overhead_s).mix(gpu.achievable_fraction);
    h.mix(gpu.memory_gib);
    h.mix(gpu.devices_per_node);
  }
  return h.digest();
}

std::uint64_t config_key(const train::TrainConfig& config) {
  HashStream h;
  h.mix(model_fingerprint(config.model));
  h.mix(platform_fingerprint(config.cluster));
  h.mix(static_cast<int>(config.framework));
  h.mix(static_cast<int>(config.device));
  h.mix(config.nodes).mix(config.ppn);
  h.mix(config.intra_threads).mix(config.inter_threads);
  h.mix(config.batch_per_rank);
  h.mix(config.policy.cycle_time_s).mix(config.policy.fusion_threshold_bytes);
  h.mix(config.use_horovod);
  h.mix(config.iterations);
  h.mix(config.jitter_cv);
  h.mix(config.validate_memory);
  h.mix(config.per_rank_sim);
  h.mix(static_cast<int>(config.hierarchy));
  h.mix(config.opt_level);
  h.mix(static_cast<std::uint64_t>(config.opt_pass_mask));
  // Fault scenario: every schedule entry (and the budget — it changes the
  // lint verdict the memo caches under this same key) is content-hashed, so
  // a survivability measurement can never alias the healthy run's entry.
  h.mix(static_cast<std::size_t>(config.faults.slowdowns.size()));
  for (const auto& s : config.faults.slowdowns)
    h.mix(s.rank).mix(s.factor).mix(s.from_step).mix(s.to_step);
  h.mix(static_cast<std::size_t>(config.faults.crashes.size()));
  for (const auto& c : config.faults.crashes) h.mix(c.rank).mix(c.step);
  h.mix(static_cast<std::size_t>(config.faults.rejoins.size()));
  for (const auto& r : config.faults.rejoins) h.mix(r.rank).mix(r.step);
  h.mix(config.faults.fault_budget);
  h.mix(static_cast<std::size_t>(config.link_degrades.size()));
  for (const auto& d : config.link_degrades)
    h.mix(d.level).mix(d.bandwidth_factor).mix(d.latency_factor);
  return h.digest();
}

// ---- EvalRecord ------------------------------------------------------------

EvalRecord EvalRecord::of(const Measurement& m, bool with_fault) {
  const train::TrainResult& r = m.last;
  EvalRecord rec;
  rec.images_per_sec = m.images_per_sec;
  rec.per_iteration_s = r.per_iteration_s;
  rec.compute_s = r.fwd_s + r.bwd_s + r.optimizer_s;
  rec.comm_exposed_fraction = r.comm_exposed_fraction;
  rec.comm_busy_per_iteration_s = r.comm_busy_per_iteration_s;
  rec.straggler_stretch = r.straggler_stretch;
  rec.sim_events = std::min(r.sim_events, kMaxSimEvents);
  rec.sim_pool_slots =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(r.sim_pool_slots, kMaxPoolSlots));
  if (with_fault)
    rec.fault = FaultOutcome{r.alive_rank_fraction, r.membership_changes, r.iteration_seconds};
  return rec;
}

EvalRecord EvalRecord::of(const train::TrainConfig& config, const Measurement& m) {
  return of(m, !config.faults.empty() || !config.link_degrades.empty());
}

// ---- EvalCache -------------------------------------------------------------

EvalCache::EvalCache(std::size_t capacity, int shards) : capacity_(capacity) {
  if (shards < 1) throw std::invalid_argument("EvalCache: shards < 1");
  const auto n = static_cast<std::size_t>(shards);
  const std::size_t per_shard = capacity == 0 ? 0 : std::max<std::size_t>(1, capacity / n);
  if (per_shard >= kNone) throw std::length_error("EvalCache: shard capacity exceeds 2^32 - 1");
  per_shard_ = static_cast<std::uint32_t>(per_shard);
  shards_ = std::vector<Shard>(n);
}

EvalCache::Shard& EvalCache::shard_for(std::uint64_t key) {
  // The index hashes the whole key; pick the shard from high bits so shards
  // do not correlate with the low bits small test keys differ in.
  return shards_[static_cast<std::size_t>(key >> 48) % shards_.size()];
}

std::size_t EvalCache::Shard::home(std::uint64_t key) const {
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> index_shift);
}

std::uint32_t EvalCache::Shard::find(std::uint64_t key) {
  if (index.empty()) return kNone;
  const std::size_t mask = index.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const std::uint32_t id = index[i];
    if (id == kNone || slot(id).key == key) return id;
  }
}

void EvalCache::Shard::index_add(std::uint32_t id, std::size_t entries) {
  // Keep the table at most half full: probes stay short, and the budget
  // counts at most two index words per entry.
  if (2 * entries > index.size()) {
    const std::size_t size = std::max<std::size_t>(8, 2 * index.size());
    index.assign(size, kNone);
    index_shift = 64 - std::countr_zero(size);
    for (std::uint32_t live = 0; live < count; ++live)
      if (live != id) place(live);
  }
  place(id);
}

void EvalCache::Shard::place(std::uint32_t id) {
  const std::size_t mask = index.size() - 1;
  std::size_t i = home(slot(id).key);
  while (index[i] != kNone) i = (i + 1) & mask;
  index[i] = id;
}

void EvalCache::Shard::index_remove(std::uint64_t key) {
  // Linear probing with backward-shift deletion: no tombstones, so probe
  // lengths never degrade under churn.
  const std::size_t mask = index.size() - 1;
  std::size_t hole = home(key);
  while (slot(index[hole]).key != key) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; index[j] != kNone; j = (j + 1) & mask) {
    // The entry at j may fill the hole iff its home is not in (hole, j].
    const std::size_t from_home = (j - home(slot(index[j]).key)) & mask;
    if (from_home >= ((j - hole) & mask)) {
      index[hole] = index[j];
      hole = j;
    }
  }
  index[hole] = kNone;
}

void EvalCache::Shard::unlink(std::uint32_t id) {
  Slot& s = slot(id);
  (s.prev == kNone ? head : slot(s.prev).next) = s.next;
  (s.next == kNone ? tail : slot(s.next).prev) = s.prev;
}

void EvalCache::Shard::push_front(std::uint32_t id) {
  Slot& s = slot(id);
  s.prev = kNone;
  s.next = head;
  (head == kNone ? tail : slot(head).prev) = id;
  head = id;
}

void EvalCache::Shard::drop_fault(std::uint32_t id) {
  Slot& s = slot(id);
  if (s.has_fault == 0) return;
  faults.erase(id);
  s.has_fault = 0;
}

std::optional<EvalRecord> EvalCache::lookup(std::uint64_t key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint32_t id = shard.find(key);
  if (id == kNone) {
    ++shard.stats.misses;
    cache_counters().misses.inc();
    return std::nullopt;
  }
  if (shard.head != id) {
    shard.unlink(id);
    shard.push_front(id);
  }
  ++shard.stats.hits;
  cache_counters().hits.inc();
  const Slot& s = shard.slot(id);
  EvalRecord rec;
  rec.images_per_sec = s.images_per_sec;
  rec.per_iteration_s = s.per_iteration_s;
  rec.compute_s = s.compute_s;
  rec.comm_exposed_fraction = s.comm_exposed_fraction;
  rec.comm_busy_per_iteration_s = s.comm_busy_per_iteration_s;
  rec.straggler_stretch = s.straggler_stretch;
  rec.sim_events = s.sim_events;
  rec.sim_pool_slots = s.sim_pool_slots;
  if (s.has_fault != 0) rec.fault = shard.faults.at(id);
  return rec;
}

void EvalCache::insert(std::uint64_t key, const EvalRecord& record) {
  if (capacity_ == 0) return;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::uint32_t id = shard.find(key);
  if (id != kNone) {
    shard.unlink(id);
  } else if (shard.count < per_shard_) {
    id = shard.count;
    if (id % kBlockSlots == 0) shard.blocks.push_back(std::make_unique<Slot[]>(kBlockSlots));
    shard.slot(id).key = key;
    shard.index_add(id, shard.count + 1);
    ++shard.count;
  } else {
    id = shard.tail;  // full: the LRU entry's slot takes the new key
    shard.index_remove(shard.slot(id).key);
    shard.unlink(id);
    shard.slot(id).key = key;
    shard.index_add(id, shard.count);
    ++shard.stats.evictions;
    cache_counters().evictions.inc();
  }
  shard.push_front(id);
  Slot& s = shard.slot(id);
  s.images_per_sec = record.images_per_sec;
  s.per_iteration_s = record.per_iteration_s;
  s.compute_s = record.compute_s;
  s.comm_exposed_fraction = record.comm_exposed_fraction;
  s.comm_busy_per_iteration_s = record.comm_busy_per_iteration_s;
  s.straggler_stretch = record.straggler_stretch;
  s.sim_events = std::min(record.sim_events, EvalRecord::kMaxSimEvents);
  s.sim_pool_slots = std::min(record.sim_pool_slots, EvalRecord::kMaxPoolSlots);
  shard.drop_fault(id);
  if (record.fault) {
    shard.faults.insert_or_assign(id, *record.fault);
    s.has_fault = 1;
  }
}

void EvalCache::insert(std::uint64_t key, const Measurement& measurement) {
  insert(key, EvalRecord::of(measurement, !measurement.last.iteration_seconds.empty()));
}

std::size_t EvalCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.count;
  }
  return total;
}

std::size_t EvalCache::fault_extensions() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.faults.size();
  }
  return total;
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.evictions += shard.stats.evictions;
  }
  return total;
}

void EvalCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Swap with empties: clear() alone would keep the capacity resident.
    decltype(shard.blocks)().swap(shard.blocks);
    decltype(shard.index)().swap(shard.index);
    decltype(shard.faults)().swap(shard.faults);
    shard.count = 0;
    shard.head = shard.tail = kNone;
    shard.index_shift = 64;
    shard.stats = EvalCacheStats{};
  }
}

// ---- LintMemo --------------------------------------------------------------

LintVerdict LintMemo::check(const train::TrainConfig& config, std::uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = memo_.find(key); it != memo_.end()) {
      ++hits_;
      lint_counters().avoided.inc();
      return it->second;
    }
  }
  // Lint outside the lock: the gate (including the bounded protocol model
  // check) is the expensive part and must not serialize concurrent misses.
  const util::Diagnostics diags = analysis::lint_config(config);
  LintVerdict verdict;
  verdict.ok = !diags.has_errors();
  verdict.warnings = diags.count(util::Severity::Warn);
  verdict.rendered = util::render_text(diags);
  for (const auto& d : diags.items()) {
    if (d.severity == util::Severity::Warn) {
      LOG_WARN << d.code << " [" << d.object << ':' << d.field << "] " << d.message;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  lint_counters().runs.inc();
  return memo_.emplace(key, std::move(verdict)).first->second;
}

std::uint64_t LintMemo::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t LintMemo::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

void LintMemo::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  memo_.clear();
  hits_ = 0;
  misses_ = 0;
}

LintMemo& lint_memo() {
  static LintMemo memo;
  return memo;
}

}  // namespace dnnperf::core
