#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/inline_action.hpp"
#include "sim/time.hpp"

namespace hawkeye::sim {

/// Packet-level discrete-event simulator core: one calendar of (time,
/// sequence, closure) events, drained on the calling thread. Ties are
/// broken by insertion order, so a run is fully deterministic, which the
/// evaluation harness relies on for reproducible precision/recall numbers
/// (and the parallel sweep runner, which runs one Simulator per run, relies
/// on for thread-count independence).
///
/// The hot path stays allocation-free: closures are stored in the event
/// itself (sim::InlineAction, 40-byte small-buffer optimization) and events
/// live in bucketed calendar queues. Events are moved, never copied.
class Simulator {
 public:
  using Action = InlineAction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ---- Scheduling ----

  /// Current simulation time: the executing event's time.
  Time now() const { return now_; }

  /// Schedule `fn` to run `delay` ns from now. Negative delays clamp to 0.
  void schedule(Time delay, Action&& fn) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedule `fn` at an absolute time (clamped to now).
  void schedule_at(Time at, Action&& fn) {
    calendar_.push(at < now_ ? now_ : at, next_seq_++, std::move(fn));
  }

  // ---- Execution ----

  /// Run until the calendar drains or `until` is passed (events scheduled
  /// beyond `until` remain queued and `now()` stops at the last executed
  /// event's time). An event at exactly `until` still fires.
  void run_until(Time until);

  /// Drain the calendar.
  void run() { run_until(std::numeric_limits<Time>::max() - 1); }

  bool empty() const { return calendar_.empty(); }
  std::size_t pending() const { return calendar_.size(); }
  std::uint64_t executed_events() const { return executed_; }

  // ---- Read only by tracebench/; deleted when tracebench's replay moves
  // onto eval::Run (ROADMAP). One calendar: no rounds, no merge, no busy
  // split, one device calendar. ----
  struct ShardStats {
    std::uint64_t parallel_rounds = 0;
    std::uint64_t merged_records = 0;
    std::uint64_t deferred_schedules = 0;
    double drain_seconds = 0;
    double merge_seconds = 0;
    double flush_seconds = 0;
    double sequential_seconds = 0;
  };
  ShardStats shard_stats() const { return {}; }
  bool sharded() const { return false; }
  std::vector<double> per_shard_busy() const { return {}; }
  int device_count() const { return 1; }

 private:
  EventCalendar calendar_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace hawkeye::sim
