// Shared pieces of the dnnperf benchmark: clocks, the percentile rule,
// per-layer accumulators, the in-memory span tracer and the result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double now_s();

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mb();

/// Machine-wide CPU ticks from /proc/stat: time stolen by the hypervisor
/// and the total. Wall-clock figures slow down with the stolen share.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks cpu_ticks();

// ---- percentiles -----------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least p of the
/// samples at or below it (p in (0, 1]). Empty input -> 0.
double nearest_rank(std::vector<double> samples, double p);

/// Samples strictly after the nearest-rank position of p among n samples:
/// n - ceil(p * n). A percentile is reported only with >= kMinTail of them.
std::size_t samples_beyond(std::size_t n, double p);
inline constexpr std::size_t kMinTail = 10;

struct LatencySummary {
  std::size_t n = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t p90_tail = 0;  ///< samples beyond p90
  bool p90_supported = false;  ///< p90_tail >= kMinTail
};

LatencySummary summarize(const std::vector<double>& latencies_ms);

/// Fixed-capacity uniform sample of a series (Vitter's algorithm R), so a
/// run of a million ops keeps the same memory as a run of a thousand and
/// the benchmark's own bookkeeping stays out of peak_rss_mb.
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = 1 << 14;
  explicit Reservoir(std::uint64_t seed);
  void add(double x);
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_;
};

/// Ops-per-second of consecutive sub-windows of a measured loop, each with
/// the host's CPU steal share over it and, if asked, its ops' latencies. A
/// window closes after `window_ops` completed ops; 0 keeps no windows. The
/// quiet figures use the `quiet_share` of the windows with the least steal.
class WindowRates {
 public:
  struct Window {
    double rate = 0.0;
    double steal_share = 0.0;
    std::vector<double> latencies_ms;
  };

  WindowRates(std::uint64_t window_ops, bool keep_latencies, double quiet_share = 0.5)
      : window_ops_(window_ops), keep_latencies_(keep_latencies), quiet_share_(quiet_share) {}
  void start(double t);
  /// Records one op's latency in the open window (when keeping latencies).
  void add_latency(double ms);
  void done(std::uint64_t ops, double t);
  const std::vector<Window>& windows() const { return windows_; }
  bool keeps_latencies() const { return keep_latencies_ && !windows_.empty(); }
  double quiet_share() const { return quiet_share_; }

  /// Median rate of the quiet windows (0 with no windows). Steal comes in
  /// bursts of a second or less, so this keeps part of other VMs' load on
  /// the host out of the figure.
  double quiet_median() const;
  /// The latencies of the ops of those windows.
  std::vector<double> quiet_latencies() const;
  /// Highest steal share among the windows quiet_median() uses.
  double quiet_steal_share() const;

 private:
  std::vector<Window> quiet_windows() const;

  std::uint64_t window_ops_;
  bool keep_latencies_;
  double quiet_share_;
  std::uint64_t count_ = 0;
  double start_ = 0.0;
  CpuTicks start_ticks_;
  std::vector<double> open_latencies_;
  std::vector<Window> windows_;
};

// ---- per-layer accumulators ------------------------------------------------

/// Running sum/count/max of one per-layer quantity.
struct Acc {
  double sum = 0.0;
  double max = 0.0;
  std::uint64_t n = 0;
  void add(double x);
  double mean() const { return n > 0 ? sum / static_cast<double>(n) : 0.0; }
};

/// Named accumulators for one traced run. Thread-safe.
class LayerStats {
 public:
  void add(const std::string& name, double x);
  Acc get(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Acc> accs_;
};

// ---- tracing ---------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (an op span)
  std::uint64_t op = 0;      ///< id of the op span this span belongs to
  std::string name;          ///< "<layer>.<call>"; the layer is the prefix
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t tid = 0;
};

/// In-memory span recorder. A disabled tracer records nothing and its
/// scopes cost one branch, so the untraced loop runs the same code.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span. An op scope starts a new op id; a child scope nests under
  /// the calling thread's innermost open span and inherits its op id.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, bool is_op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
    std::uint64_t saved_parent_ = 0;
    std::uint64_t saved_op_ = 0;
  };

  std::vector<Span> spans() const;
  std::uint64_t ops() const;

  /// Self time (duration minus the time its direct children cover) summed
  /// per layer, seconds. Children of one span run on its thread, in
  /// sequence, so they never overlap.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Chrome trace-event JSON of every span (ts/dur in microseconds).
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t ops_ = 0;
  double origin_ = now_s();
};

/// The layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& span_name);

// ---- the result line -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One JSON object with exactly correct/attempted/failed/metrics. Values are
/// printed with every significant digit; a non-finite value is printed as
/// -1 and forces correct = false.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Median of a non-empty series (the setup repetitions).
double median_of(std::vector<double> xs);

}  // namespace perfbench
