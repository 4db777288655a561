#include "hvd/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "hvd/protocol.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace dnnperf::hvd {

namespace {

namespace trace = util::trace;

/// Trace tracks of the simulated rank: compute phases on one, engine
/// activity on the other — the same two-track layout the Horovod timeline
/// uses, but in virtual time under trace::kSimulatedPid so the simulated
/// process sits next to the real one in the viewer. The compute track also
/// carries "step" and "exchange" scopes mirroring the real trainer's span
/// vocabulary, so the profiler reads both kinds of trace with one code
/// path. Per-rank mode adds one "sim rank N" track per rank (up to
/// TimelineInput::trace_rank_limit) with a single "compute" span per
/// iteration — enough for straggler attribution without swamping the
/// document at thousands of ranks.
constexpr int kComputeTid = 1;
constexpr int kEngineTid = 2;
constexpr int kRankTidBase = 16;

/// Compact rendering of a double for diagnostics.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

class TimelineSim {
 public:
  explicit TimelineSim(const TimelineInput& in) : in_(in), tracing_(trace::enabled()) {
    in_.policy.validate();
    if (in_.iterations <= 0) throw std::invalid_argument("TimelineInput: iterations <= 0");
    if (in_.straggler_factor < 1.0)
      throw std::invalid_argument("TimelineInput: straggler_factor < 1");
    if (in_.sim_ranks < 1) throw std::invalid_argument("TimelineInput: sim_ranks < 1");
    if (in_.per_rank_jitter_cv < 0.0)
      throw std::invalid_argument("TimelineInput: negative per_rank_jitter_cv");
    if (per_rank_mode() && in_.cost == nullptr)
      throw std::invalid_argument("TimelineInput: sim_ranks > 1 requires a cost model");
    validate_faults();
    // The progress thread's per-wake-up CPU cost taxes compute when it has
    // no core of its own: a fraction wakeup/cycle of every core-second goes
    // to the engine instead of the workers.
    double tax = 0.0;
    if (in_.cost != nullptr) {
      if (in_.cores_per_rank < 1)
        throw std::invalid_argument("TimelineInput: cores_per_rank < 1");
      // Sharing a core steals one core's slice of the rank; a dedicated
      // progress core only causes cache/memory interference.
      const double share = in_.comm_thread_shares_core
                               ? 1.0 / in_.cores_per_rank
                               : in_.dedicated_tax_share;
      tax = std::min(share * in_.wakeup_cpu_s / in_.policy.cycle_time_s, 0.8);
    }
    stretch_ = in_.straggler_factor / (1.0 - tax);
    if (per_rank_mode()) {
      rank_factor_.assign(static_cast<std::size_t>(in_.sim_ranks), 1.0);
      rank_cursor_.assign(static_cast<std::size_t>(in_.sim_ranks), 0);
      submit_count_.assign(in_.grad_events.size(), 0);
      rank_alive_.assign(static_cast<std::size_t>(in_.sim_ranks), 1);
      alive_count_ = in_.sim_ranks;
    }
  }

  TimelineResult run() {
    if (tracing_) {
      trace::set_virtual_track_name(trace::kSimulatedPid, kComputeTid, "dnnperf (simulated)",
                                    "compute");
      trace::set_virtual_track_name(trace::kSimulatedPid, kEngineTid, "dnnperf (simulated)",
                                    "hvd engine");
      engine_.set_trace_track(trace::kSimulatedPid, kEngineTid);
      for (int r = 0; r < traced_ranks(); ++r)
        trace::set_virtual_track_name(trace::kSimulatedPid, kRankTidBase + r,
                                      "dnnperf (simulated)", "sim rank " + std::to_string(r));
    }
    start_iteration();
    if (in_.cost != nullptr) schedule_wake(engine_.now() + in_.policy.cycle_time_s);
    engine_.run();
    TimelineResult result;
    result.total_time = finish_time_;
    result.per_iteration = finish_time_ / in_.iterations;
    result.stats = counters_.stats();
    result.comm_exposed_fraction =
        finish_time_ > 0.0 ? exposed_total_ / finish_time_ : 0.0;
    result.comm_busy_total = comm_busy_total_;
    result.events_processed = engine_.events_processed();
    result.pool_slots = static_cast<std::uint64_t>(engine_.pool_slots());
    result.iteration_seconds = std::move(iteration_seconds_);
    result.iteration_alive_ranks = std::move(iteration_alive_);
    result.membership_changes = membership_changes_;
    if (per_rank_mode()) result.mean_max_rank_factor = max_factor_sum_ / in_.iterations;
    return result;
  }

 private:
  bool per_rank_mode() const { return in_.sim_ranks > 1; }

  void validate_faults() {
    if (in_.faults.empty()) return;
    if (!per_rank_mode())
      throw std::invalid_argument("TimelineInput: fault schedule requires per-rank mode");
    for (const auto& s : in_.faults.slowdowns) {
      if (s.rank < 0 || s.rank >= in_.sim_ranks)
        throw std::invalid_argument("TimelineInput: slowdown rank out of range");
      if (!(s.factor > 0.0 && s.factor <= RankSlowdown::kMaxFactor) || s.from_step < 0)
        throw std::invalid_argument("TimelineInput: malformed slowdown");
    }
    for (const auto& c : in_.faults.crashes)
      if (c.rank < 0 || c.rank >= in_.sim_ranks || c.step < 0)
        throw std::invalid_argument("TimelineInput: malformed crash event");
    for (const auto& r : in_.faults.rejoins)
      if (r.rank < 0 || r.rank >= in_.sim_ranks || r.step < 0)
        throw std::invalid_argument("TimelineInput: malformed rejoin event");
    for (int step = 0; step < in_.iterations; ++step) {
      int alive = 0;
      for (int r = 0; r < in_.sim_ranks; ++r) alive += alive_at(r, step);
      if (alive == 0)
        throw std::invalid_argument("TimelineInput: crash schedule leaves no rank alive at step " +
                                    std::to_string(step));
    }
  }

  /// Membership at `step`: the latest crash/rejoin event at or before the
  /// step wins (ties go to the rejoin — F002 lint rejects same-step pairs
  /// anyway).
  bool alive_at(int rank, int step) const {
    int last_crash = -1, last_rejoin = -1;
    for (const auto& c : in_.faults.crashes)
      if (c.rank == rank && c.step <= step) last_crash = std::max(last_crash, c.step);
    for (const auto& r : in_.faults.rejoins)
      if (r.rank == rank && r.step <= step) last_rejoin = std::max(last_rejoin, r.step);
    return last_crash < 0 || last_rejoin >= last_crash;
  }

  /// Product of the slowdown factors covering (`rank`, `step`).
  double slowdown_at(int rank, int step) const {
    double factor = 1.0;
    for (const auto& s : in_.faults.slowdowns)
      if (s.rank == rank && step >= s.from_step && (s.to_step < 0 || step < s.to_step))
        factor *= s.factor;
    return factor;
  }

  /// splitmix64 of (jitter_seed, step): per-iteration generator seed, so the
  /// straggler pattern varies over steps but is a pure function of the input.
  std::uint64_t iteration_seed(int step) const {
    std::uint64_t z = in_.jitter_seed + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(step) + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Ranks that get their own "sim rank N" trace track in per-rank mode.
  int traced_ranks() const {
    if (!tracing_ || !per_rank_mode()) return 0;
    return std::min(in_.sim_ranks, std::max(0, in_.trace_rank_limit));
  }

  void emit_compute(const char* name, double start, double end) {
    if (tracing_)
      trace::emit_virtual_complete(name, "sim", trace::kSimulatedPid, kComputeTid, start,
                                   end - start,
                                   std::move(trace::Args().add("iteration", completed_)).str());
  }

  void start_iteration() {
    bwd_done_ = false;
    reduced_ = 0;
    step_start_ = engine_.now();
    if (per_rank_mode()) {
      start_iteration_per_rank();
      return;
    }
    const double fwd_start = engine_.now() + in_.iteration_fixed;
    engine_.schedule_after(in_.iteration_fixed + in_.fwd_time * stretch_,
                           [this, fwd_start] {
                             emit_compute("forward", fwd_start, engine_.now());
                             forward_done();
                           });
  }

  void forward_done() {
    // Framework requests exist only when a Horovod engine is modeled: with
    // cost == nullptr there is no engine to hand gradients to, and the real
    // path (single-process run_real_training, no RealEngine) counts zero.
    // Counting them here used to make the sim disagree with every real
    // no-comm run — the parity bug the registry metrics now guard against.
    if (in_.cost == nullptr) {
      for (const auto& e : in_.grad_events)  // no engine: gradients are "reduced" on arrival
        engine_.schedule_after(e.time * stretch_, [this] { ++reduced_; });
    } else {
      counters_.on_framework_request(in_.grad_events.size());
      // Gradients reach the engine as an arrival stream the next wake-up
      // drains, not as one calendar event each: only a wake-up reads them.
      // Times are computed as schedule_after would (now + offset), ordered
      // by (time, tensor) — the calendar's (time, insertion) order.
      arrivals_.clear();
      for (const auto& e : in_.grad_events)
        arrivals_.push_back({engine_.now() + e.time * stretch_, e.bytes});
      const auto by_time = [](const Arrival& a, const Arrival& b) { return a.time < b.time; };
      if (!std::is_sorted(arrivals_.begin(), arrivals_.end(), by_time))
        std::stable_sort(arrivals_.begin(), arrivals_.end(), by_time);
      next_arrival_ = 0;
      arrivals_stamp_ = ++stamp_;
    }
    const double bwd_start = engine_.now();
    engine_.schedule_after(in_.bwd_time * stretch_, [this, bwd_start] {
      emit_compute("backward", bwd_start, engine_.now());
      bwd_done_ = true;
      bwd_end_time_ = engine_.now();
      maybe_finish_iteration();
    });
  }

  // -------------------------------------------------------------------------
  // Per-rank mode: flat arenas, one submission chain per rank
  // -------------------------------------------------------------------------

  void start_iteration_per_rank() {
    iter_start_ = engine_.now();
    bwd_ranks_done_ = 0;
    iter_max_factor_ = 1.0;
    std::fill(submit_count_.begin(), submit_count_.end(), 0);
    std::fill(rank_cursor_.begin(), rank_cursor_.end(), std::uint32_t{0});
    // Resolve this step's membership set; a change re-forms the ring, which
    // costs one engine cycle plus a full-tensor-list negotiation allreduce
    // before any rank's compute lands.
    iter_resync_s_ = 0.0;
    if (!in_.faults.empty()) {
      bool changed = false;
      int alive = 0;
      for (int r = 0; r < in_.sim_ranks; ++r) {
        const char a = alive_at(r, completed_) ? 1 : 0;
        changed |= a != rank_alive_[static_cast<std::size_t>(r)];
        rank_alive_[static_cast<std::size_t>(r)] = a;
        alive += a;
      }
      alive_count_ = alive;
      if (changed && completed_ > 0) {
        ++membership_changes_;
        iter_resync_s_ =
            in_.policy.cycle_time_s +
            in_.cost->allreduce_time(
                static_cast<double>(in_.grad_events.size()) * in_.negotiation_bytes_per_tensor,
                mpi::AllreduceAlgo::RecursiveDoubling);
      }
    }
    // The counters model one rank's engine view (rank 0), the same parity
    // contract the representative mode keeps with RealEngine.
    counters_.on_framework_request(in_.grad_events.size());
    // Per-step reseed: the generator is a pure function of (seed, step), so
    // straggler patterns vary across iterations while a replay — cold or
    // from the eval cache — reproduces them exactly.
    util::Rng iter_rng(iteration_seed(completed_));
    for (std::size_t r = 0; r < rank_factor_.size(); ++r) {
      double f = in_.per_rank_jitter_cv > 0.0 ? iter_rng.normal(1.0, in_.per_rank_jitter_cv) : 1.0;
      f = std::clamp(f, 0.25, 4.0);
      if (!in_.faults.empty()) f *= slowdown_at(static_cast<int>(r), completed_);
      rank_factor_[r] = f;
      if (!rank_alive_[r]) continue;  // a crashed rank computes and submits nothing
      iter_max_factor_ = std::max(iter_max_factor_, f);
      const double scale = stretch_ * f;
      if (!in_.grad_events.empty())
        engine_.schedule_at(
            rank_event_time(r, in_.grad_events.front().time, scale),
            [this, r] { advance_rank(r); });
      engine_.schedule_at(rank_event_time(r, in_.bwd_time, scale),
                          [this] { rank_backward_done(); });
      // Virtual timestamps are computed, not waited for, so the rank's whole
      // compute block for this iteration can be emitted at schedule time.
      if (static_cast<int>(r) < traced_ranks())
        trace::emit_virtual_complete(
            "compute", "sim", trace::kSimulatedPid, kRankTidBase + static_cast<int>(r),
            iter_start_, rank_event_time(r, in_.bwd_time, scale) - iter_start_,
            std::move(trace::Args().add("iteration", completed_)).str());
    }
    if (tracing_) {
      // Mirror the representative mode's forward/backward scopes on the
      // compute track at the slowest rank's pace — that is the pace the
      // collective runs at, and it keeps the step's phase structure intact
      // for the profiler.
      const double smax = stretch_ * iter_max_factor_;
      const double fwd_start = iter_start_ + in_.iteration_fixed * smax;
      const double fwd_end = fwd_start + in_.fwd_time * smax;
      trace::emit_virtual_complete("forward", "sim", trace::kSimulatedPid, kComputeTid,
                                   fwd_start, fwd_end - fwd_start,
                                   std::move(trace::Args().add("iteration", completed_)).str());
      trace::emit_virtual_complete("backward", "sim", trace::kSimulatedPid, kComputeTid,
                                   fwd_end, in_.bwd_time * smax,
                                   std::move(trace::Args().add("iteration", completed_)).str());
    }
  }

  /// Absolute time rank `r` reaches `offset` seconds into its backward pass
  /// this iteration (compute before it scaled by the rank's factor, behind
  /// any membership-resync barrier).
  double rank_event_time(std::size_t /*r*/, double offset, double scale) const {
    return iter_start_ + iter_resync_s_ + (in_.iteration_fixed + in_.fwd_time + offset) * scale;
  }

  /// One gradient submission of rank `r`: bump the tensor's submit count;
  /// when the slowest *alive* rank arrives the tensor becomes globally
  /// negotiable (the Min-reduce of the real protocol, re-formed over the
  /// surviving membership set after a crash). Then chain the rank's next
  /// submission — one in-flight event per rank, so the pool's footprint
  /// stays O(ranks) while total events grow as ranks x tensors.
  void advance_rank(std::size_t r) {
    const std::size_t k = rank_cursor_[r]++;
    if (++submit_count_[k] == alive_count_)
      pending_.push_back(in_.grad_events[k].bytes);
    const std::size_t next = k + 1;
    if (next < in_.grad_events.size()) {
      const double scale = stretch_ * rank_factor_[r];
      engine_.schedule_at(
          std::max(engine_.now(), rank_event_time(r, in_.grad_events[next].time, scale)),
          [this, r] { advance_rank(r); });
    }
  }

  void rank_backward_done() {
    if (++bwd_ranks_done_ < static_cast<std::int64_t>(alive_count_)) return;
    bwd_done_ = true;
    bwd_end_time_ = engine_.now();
    maybe_finish_iteration();
  }

  // -------------------------------------------------------------------------

  /// Horovod Engine background loop. Every cycle issues the coordination op
  /// (RealEngine::process() negotiates unconditionally too, and the paper's
  /// engine-issued counter includes idle cycles — that is where the ~199x
  /// ops reduction of Fig. 19 comes from), so `engine_wakeups` counts every
  /// wake-up. But an idle wake-up with nothing outstanding must not *cost*
  /// anything: previously it charged a full per-tensor negotiation over all
  /// grad_events, slowing the wake cadence (next wake at max(cycle, busy))
  /// and delaying gradient pickup whenever negotiation time exceeded the
  /// cycle time. Nor does it cost an event: schedule_wake counts idle cycles
  /// in closed form. Busy wake-ups charge one negotiation allreduce, then one
  /// data allreduce per fused buffer. `stamp` orders this wake-up against
  /// gradient arrivals at the same virtual time (see drain_arrivals).
  void wake(std::uint64_t stamp) {
    counters_.on_engine_wakeup();
    drain_arrivals(stamp);
    if (pending_.empty()) {
      if (!done_) schedule_wake(engine_.now() + in_.policy.cycle_time_s);
      return;
    }

    const double wake_start = engine_.now();
    double busy = in_.cost->allreduce_time(
        static_cast<double>(in_.grad_events.size()) * in_.negotiation_bytes_per_tensor,
        mpi::AllreduceAlgo::RecursiveDoubling);
    if (tracing_)
      trace::emit_virtual_complete(
          "negotiate", "sim", trace::kSimulatedPid, kEngineTid, wake_start, busy,
          std::move(trace::Args().add("tensors",
                                      static_cast<std::int64_t>(in_.grad_events.size())))
              .str());

    // Fuse the pending gradients with the same greedy rule RealEngine
    // executes (hvd/protocol.hpp), over arrival order instead of tensor ids.
    std::vector<double> sizes(pending_.begin(), pending_.end());
    std::vector<int> ready_ids(sizes.size());
    for (std::size_t k = 0; k < ready_ids.size(); ++k) ready_ids[k] = static_cast<int>(k);
    pending_.clear();
    std::int64_t batch = 0;
    for (const auto& group : plan_fusion(ready_ids, sizes, in_.policy.fusion_threshold_bytes)) {
      double buffer_bytes = 0.0;
      const int fused = static_cast<int>(group.size());
      for (int id : group) buffer_bytes += sizes[static_cast<std::size_t>(id)];
      const double ar_time = data_allreduce_time(buffer_bytes);
      if (tracing_)
        trace::emit_virtual_complete(
            "allreduce.data", "sim", trace::kSimulatedPid, kEngineTid, wake_start + busy,
            ar_time,
            std::move(trace::Args().add("tensors", fused).add("bytes", buffer_bytes)).str());
      busy += ar_time;
      counters_.on_data_allreduce(
          buffer_bytes, std::min(1.0, buffer_bytes / in_.policy.fusion_threshold_bytes));
      batch += fused;
    }
    counters_.on_cycle_time(busy);  // virtual seconds of this busy cycle
    comm_busy_total_ += busy;

    // Only the batch completing the last gradient can finish the iteration;
    // until then reduced_ is read solely by that test, which it fails either
    // way, so earlier batches count at once instead of as calendar events.
    if (reduced_ + batch < static_cast<std::int64_t>(in_.grad_events.size())) {
      reduced_ += batch;
    } else {
      engine_.schedule_after(busy, [this, batch] {
        reduced_ += batch;
        maybe_finish_iteration();
      });
    }

    if (!done_) schedule_wake(wake_start + std::max(in_.policy.cycle_time_s, busy));
  }

  /// Moves the gradients that have arrived by now into pending_. An arrival
  /// at exactly now counts iff it was registered before this wake-up was
  /// scheduled — the calendar's FIFO order when each gradient was an event.
  void drain_arrivals(std::uint64_t wake_stamp) {
    const double now = engine_.now();
    for (; next_arrival_ < arrivals_.size(); ++next_arrival_) {
      const Arrival& a = arrivals_[next_arrival_];
      if (a.time > now || (a.time == now && arrivals_stamp_ > wake_stamp)) break;
      pending_.push_back(a.bytes);
    }
  }

  /// Schedules the engine's next wake-up, due at `w`, fast-forwarding over
  /// idle cycles. It is only called with nothing pending, and only a
  /// calendar event or a gradient arrival can change that, so every wake-up
  /// in w, w+c, ... strictly before the first of them (at T) would find the
  /// engine idle. Book those k = #{j >= 0 : w + j*c < T} wake-ups at once
  /// and schedule only w + k*c, the first at or after T. The strict `<`
  /// keeps the per-cycle loop's tie order: the event at T was scheduled
  /// earlier, so at equal times it still runs before the wake. The wake
  /// time is w + k*c rounded once, where the per-cycle loop added c k times;
  /// counts are unchanged, and times agree to rounding.
  void schedule_wake(double w) {
    const double c = in_.policy.cycle_time_s;
    const double t = std::min(engine_.next_time(), next_arrival_time());
    if (t == std::numeric_limits<double>::infinity())
      throw std::runtime_error("TimelineSim: stalled at t=" + num(engine_.now()) +
                               " s: engine idle, nothing scheduled, iteration " +
                               std::to_string(completed_) + " of " +
                               std::to_string(in_.iterations) + " unfinished");
    // Past 2^52 cycles of virtual time one cycle drops below a double's
    // resolution, and neither the count nor the wake times stay exact (the
    // per-cycle loop would stop advancing there). This also rejects a
    // non-finite span, and any span of 2^53 cycles or more.
    if (!(t / c < 0x1p52))
      throw std::runtime_error("TimelineSim: next event at t=" + num(t) + " s lies " +
                               num((t - w) / c) +
                               " engine cycles ahead; virtual time past 2^52 cycles of " +
                               num(c) + " s cannot be counted exactly");
    // ceil((t - w) / c) is k up to rounding; settle it on the exact
    // predicate (a step or two either way below the 2^52 bound).
    double k = std::max(0.0, std::ceil((t - w) / c));
    while (k > 0.0 && !(w + (k - 1.0) * c < t)) k -= 1.0;
    while (w + k * c < t) k += 1.0;
    counters_.on_engine_wakeup(static_cast<std::uint64_t>(k));
    engine_.schedule_at(w + k * c, [this, stamp = ++stamp_] { wake(stamp); });
  }

  double next_arrival_time() const {
    return next_arrival_ < arrivals_.size() ? arrivals_[next_arrival_].time
                                            : std::numeric_limits<double>::infinity();
  }

  double data_allreduce_time(double bytes) const {
    return in_.hierarchical_allreduce ? in_.cost->staged_allreduce_time(bytes)
                                      : in_.cost->allreduce_time(bytes);
  }

  void maybe_finish_iteration() {
    if (!bwd_done_ || reduced_ < static_cast<std::int64_t>(in_.grad_events.size())) return;
    bwd_done_ = false;  // guard against double entry
    const double exposed = std::max(0.0, engine_.now() - bwd_end_time_);
    exposed_total_ += exposed;
    if (exposed > 0.0)
      emit_compute("exchange", bwd_end_time_, engine_.now());
    const double opt_start = engine_.now();
    const double opt_scale = per_rank_mode() ? stretch_ * iter_max_factor_ : stretch_;
    engine_.schedule_after(in_.optimizer_time * opt_scale, [this, opt_start] {
      emit_compute("optimizer", opt_start, engine_.now());
      emit_compute("step", step_start_, engine_.now());
      iteration_seconds_.push_back(engine_.now() - step_start_);
      iteration_alive_.push_back(per_rank_mode() ? alive_count_ : in_.sim_ranks);
      max_factor_sum_ += iter_max_factor_;
      ++completed_;
      if (completed_ >= in_.iterations) {
        finish_time_ = engine_.now();
        done_ = true;  // stops the wake loop from rescheduling
      } else {
        start_iteration();
      }
    });
  }

  TimelineInput in_;
  sim::Engine engine_;
  EngineCounters counters_;
  std::deque<double> pending_;
  /// Representative mode: this iteration's gradient arrivals in calendar
  /// order, the next one not yet drained, and the stamp of their
  /// registration (stamps order registrations against wake-up scheduling).
  struct Arrival {
    double time;
    double bytes;
  };
  std::vector<Arrival> arrivals_;
  std::size_t next_arrival_ = 0;
  std::uint64_t arrivals_stamp_ = 0;
  std::uint64_t stamp_ = 0;
  bool tracing_ = false;
  // 64-bit accumulators throughout: per-rank mode pushes tensor and event
  // counts into ranges where 32-bit intermediates overflow (16k ranks x
  // thousands of tensors x iterations).
  std::int64_t reduced_ = 0;
  bool bwd_done_ = false;
  bool done_ = false;
  int completed_ = 0;
  double bwd_end_time_ = 0.0;
  double exposed_total_ = 0.0;
  double comm_busy_total_ = 0.0;
  double step_start_ = 0.0;
  double finish_time_ = 0.0;
  double stretch_ = 1.0;
  // Per-rank arenas (per-rank mode only): sized once, reset per iteration.
  std::vector<double> rank_factor_;
  std::vector<std::uint32_t> rank_cursor_;
  std::vector<std::int32_t> submit_count_;
  std::vector<char> rank_alive_;
  int alive_count_ = 1;
  std::int64_t bwd_ranks_done_ = 0;
  double iter_start_ = 0.0;
  double iter_max_factor_ = 1.0;
  double max_factor_sum_ = 0.0;
  double iter_resync_s_ = 0.0;
  std::uint64_t membership_changes_ = 0;
  std::vector<double> iteration_seconds_;
  std::vector<int> iteration_alive_;
};

}  // namespace

TimelineResult simulate_training(const TimelineInput& input) {
  return TimelineSim(input).run();
}

}  // namespace dnnperf::hvd
