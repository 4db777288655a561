// Discrete-event simulation engine.
//
// A single-threaded event calendar: callbacks scheduled at simulated times,
// executed in (time, insertion-order) order. The Horovod engine simulator
// (src/hvd/timeline) runs on top of this, as do the ablation benches.
//
// Events live in a slab pool: a slot array with an embedded free list plus a
// binary heap of (time, seq, slot) index entries. Scheduling reuses a freed
// slot instead of allocating, cancellation flips a flag in the slot (no
// side-table), and generation counters keep stale EventIds harmless — the
// layout that lets a 4k-rank timeline push millions of events without
// touching the allocator once the pool is warm.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace dnnperf::sim {

/// Handle to a scheduled event: slot index in the low 32 bits, the slot's
/// generation at scheduling time in the high 32. A reused slot bumps its
/// generation, so ids of executed/cancelled events never alias live ones.
using EventId = std::uint64_t;

class Engine {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time in seconds.
  double now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (finite and >= now()).
  EventId schedule_at(double t, Callback cb);

  /// Schedules `cb` `dt` seconds from now (dt >= 0).
  EventId schedule_after(double dt, Callback cb);

  /// Cancels a pending event; no-op if it already ran or was cancelled.
  void cancel(EventId id);

  /// Runs until the calendar is empty.
  void run();

  /// Runs events with time <= t, then sets now() = t.
  void run_until(double t);

  /// Executes exactly one event if any is pending; returns false when empty.
  bool step();

  /// Time of the earliest live event, or +inf when the calendar is empty.
  /// Pops cancelled entries off the heap top first, hence non-const.
  double next_time();

  /// Routes the calendar onto a virtual-time trace track: an
  /// events_processed counter is emitted at the simulated timestamp every
  /// kTraceCounterStride events (when util::trace is enabled), sketching the
  /// calendar's activity without flooding the trace. pid 0 disables.
  void set_trace_track(int pid, int tid) {
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

  static constexpr std::uint64_t kTraceCounterStride = 256;

  bool empty() const { return pending_live_ == 0; }
  std::uint64_t events_processed() const { return processed_; }

  /// Total events ever scheduled (== pool allocations + pool reuses).
  std::uint64_t events_scheduled() const { return scheduled_; }
  /// High-water slot count: the pool's resident footprint. Scheduling only
  /// grows the slab when every slot is in flight simultaneously.
  std::size_t pool_slots() const { return slots_.size(); }

 private:
  struct Slot {
    double time = 0.0;
    std::uint64_t seq = 0;       ///< FIFO tiebreak among simultaneous events
    std::uint32_t gen = 1;       ///< bumped on free; validates EventIds
    bool live = false;           ///< scheduled and not yet executed/freed
    bool cancelled = false;
    std::uint32_t next_free = kNoSlot;
    Callback cb;
  };
  struct HeapEntry {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Min-heap on (time, seq) via std::push_heap's max-heap with an inverted
  /// comparison.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Pops cancelled events off the heap top, freeing their slots.
  void drop_cancelled_top();

  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  int trace_pid_ = 0;
  int trace_tid_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t pending_live_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<HeapEntry> heap_;
};

}  // namespace dnnperf::sim
