#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks t;
  double field = 0.0;
  for (int i = 0; i < 10 && stat >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

// ---- percentiles -----------------------------------------------------------

double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  if (!(p > 0.0 && p <= 1.0)) throw std::invalid_argument("nearest_rank: p outside (0, 1]");
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(rank, n);
}

LatencySummary summarize(const std::vector<double>& latencies_ms) {
  LatencySummary s;
  s.n = latencies_ms.size();
  s.p50_ms = nearest_rank(latencies_ms, 0.50);
  s.p90_ms = nearest_rank(latencies_ms, 0.90);
  s.p90_tail = samples_beyond(s.n, 0.90);
  s.p90_supported = s.p90_tail >= kMinTail;
  return s;
}

Reservoir::Reservoir(std::uint64_t seed) : state_(seed | 1) { samples_.reserve(kCapacity); }

void Reservoir::add(double x) {
  ++seen_;
  if (samples_.size() < kCapacity) {
    samples_.push_back(x);
    return;
  }
  // xorshift64: a private stream, so sampling never perturbs the inputs.
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  const std::uint64_t j = state_ % seen_;
  if (j < kCapacity) samples_[j] = x;
}

void WindowRates::start(double t) {
  start_ = t;
  start_ticks_ = cpu_ticks();
}

void WindowRates::add_latency(double ms) {
  if (keep_latencies_) open_latencies_.push_back(ms);
}

void WindowRates::done(std::uint64_t ops, double t) {
  count_ += ops;
  if (window_ops_ == 0 || count_ < window_ops_) return;
  const CpuTicks ticks = cpu_ticks();
  if (t > start_) {
    const double total = ticks.total - start_ticks_.total;
    windows_.push_back({static_cast<double>(count_) / (t - start_),
                        total > 0.0 ? (ticks.steal - start_ticks_.steal) / total : 0.0,
                        std::move(open_latencies_)});
  }
  open_latencies_.clear();
  count_ = 0;
  start_ = t;
  start_ticks_ = ticks;
}

std::vector<WindowRates::Window> WindowRates::quiet_windows() const {
  std::vector<Window> sorted = windows_;
  std::stable_sort(sorted.begin(), sorted.end(), [](const Window& a, const Window& b) {
    return a.steal_share < b.steal_share;
  });
  const auto keep = static_cast<std::size_t>(
      std::ceil(quiet_share_ * static_cast<double>(sorted.size())));
  sorted.resize(std::clamp<std::size_t>(keep, 1, sorted.size()));
  return sorted;
}

double WindowRates::quiet_median() const {
  std::vector<double> rates;
  for (const Window& w : quiet_windows()) rates.push_back(w.rate);
  return median_of(rates);
}

std::vector<double> WindowRates::quiet_latencies() const {
  std::vector<double> out;
  for (const Window& w : quiet_windows())
    out.insert(out.end(), w.latencies_ms.begin(), w.latencies_ms.end());
  return out;
}

double WindowRates::quiet_steal_share() const {
  const std::vector<Window> quiet = quiet_windows();
  return quiet.empty() ? 0.0 : quiet.back().steal_share;
}

// ---- per-layer accumulators ------------------------------------------------

void Acc::add(double x) {
  max = n == 0 ? x : std::max(max, x);
  sum += x;
  ++n;
}

void LayerStats::add(const std::string& name, double x) {
  std::lock_guard<std::mutex> lock(mutex_);
  accs_[name].add(x);
}

Acc LayerStats::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = accs_.find(name);
  return it == accs_.end() ? Acc{} : it->second;
}

// ---- tracing ---------------------------------------------------------------

namespace {
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_op = 0;
}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name, bool is_op) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  saved_parent_ = t_parent;
  saved_op_ = t_op;
  Span span;
  span.name = name;
  span.tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  {
    std::lock_guard<std::mutex> lock(tracer.mutex_);
    span.id = tracer.next_id_++;
    if (is_op) ++tracer.ops_;
    span.parent = is_op ? 0 : t_parent;
    span.op = is_op ? span.id : t_op;
    index_ = tracer.spans_.size();
    span.t0 = now_s();
    tracer.spans_.push_back(std::move(span));
    t_parent = tracer.spans_.back().id;
    t_op = tracer.spans_.back().op;
  }
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const double t1 = now_s();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_[index_].t1 = t1;
  t_parent = saved_parent_;
  t_op = saved_op_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t Tracer::ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ops_;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, double> child_time;
  for (const Span& s : all)
    if (s.parent != 0) child_time[s.parent] += s.t1 - s.t0;
  std::map<std::string, double> self;
  for (const Span& s : all) {
    const auto it = child_time.find(s.id);
    const double children = it == child_time.end() ? 0.0 : it->second;
    self[layer_of(s.name)] += std::max(0.0, (s.t1 - s.t0) - children);
  }
  return self;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::map<std::uint64_t, int> tids;
  out << "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const int tid = tids.emplace(s.tid, static_cast<int>(tids.size())).first->second;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}%s\n",
                  s.name.c_str(), layer_of(s.name).c_str(), tid, (s.t0 - origin_) * 1e6,
                  (s.t1 - s.t0) * 1e6, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op), i + 1 < all.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

// ---- the result line -------------------------------------------------------

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream body;
  bool finite = true;
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double value = m.value;
    if (!std::isfinite(value)) {
      finite = false;
      value = -1.0;
    }
    std::snprintf(buf, sizeof buf, "%.17g", value);
    body << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct && finite ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {"
      << body.str() << "}}";
  return out.str();
}

double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

}  // namespace perfbench
