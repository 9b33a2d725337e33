#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/inline_action.hpp"
#include "sim/time.hpp"

namespace hawkeye::sim {

/// Packet-level discrete-event simulator core.
///
/// Default mode is the seed's single-threaded calendar of (time, sequence,
/// closure) events: ties are broken by insertion order so the simulation is
/// fully deterministic, which the evaluation harness relies on for
/// reproducible precision/recall numbers (and the parallel sweep runner
/// relies on for thread-count independence).
///
/// `configure_shards(N, L)` with N > 1 switches the simulator into
/// *intra-run* parallel mode (PR 6): N device shards plus one control shard,
/// each owning its own EventCalendar, drained by a persistent worker pool in
/// conservative rounds bounded by the lookahead horizon
/// `H = min pending time + L` (L = the minimum cross-shard scheduling
/// latency, in practice the minimum link delay). Cross-shard and
/// post-horizon schedules are deferred into per-shard outboxes (the
/// "mailboxes") and merged at the round barrier under the canonical
/// (time, seq) total order, so N-shard execution is **bitwise identical**
/// to 1-shard execution. See DESIGN.md §12 for the correctness argument.
///
/// Canonical-order encoding: the seed's global `next_seq_++` tie-breaker is
/// equivalent to ordering same-time events lexicographically by
/// (rank of the scheduling parent event, per-parent child index), where
/// "rank" is the global execution rank (setup-time schedules are children
/// of a pseudo-root with rank 0, in setup-call order). Sharded mode packs
/// exactly that pair into the existing 64-bit seq so the EventCalendar is
/// reused unchanged:
///   class 0 (cross-round):  seq =            rank(parent) << 21 | child
///   class 1 (intra-round):  seq = 1 << 63 | local_parent_idx << 21 | child
/// Class-1 keys are only ever compared against keys of the same round on
/// the same shard, where local execution index order coincides with rank
/// order; the class bit places intra-round children after all cross-round
/// events of the same timestamp, which matches the seed order because an
/// intra-round parent always ranks after every pre-round parent.
///
/// The hot path stays allocation-free: closures are stored in the event
/// itself (sim::InlineAction, 40-byte small-buffer optimization) and events
/// live in bucketed calendar queues. Events are moved, never copied.
class Simulator {
 public:
  using Action = InlineAction;

  /// seq bit layout for sharded mode (see class comment).
  static constexpr int kChildBits = 21;
  static constexpr std::uint64_t kChildMask = (std::uint64_t{1} << kChildBits) - 1;
  static constexpr std::uint64_t kParentMask = (std::uint64_t{1} << 42) - 1;
  static constexpr std::uint64_t kClass1Bit = std::uint64_t{1} << 63;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ---- Sharding control (no-op for the default single-shard mode) ----

  /// Partition the run into `device_shards` spatial shards plus one control
  /// shard. Must be called before anything is scheduled. `min_lookahead` is
  /// a lower bound on every cross-shard scheduling delay (the minimum link
  /// latency); 0 degrades every round to sequential at-minimum execution,
  /// which is always correct but serial. `device_shards <= 1` keeps the
  /// seed's single-calendar fast path.
  void configure_shards(int device_shards, Time min_lookahead);

  bool sharded() const { return !shards_.empty(); }
  /// Number of device shards (1 when unsharded).
  int device_count() const { return sharded() ? shard_count() - 1 : 1; }
  /// Calendar index of the control shard: events that touch global state
  /// (scans over all devices, routing mutation, collection fan-out) are
  /// scheduled here; any round whose window contains a control event runs
  /// single-threaded, giving those events exclusive access to everything.
  int control_shard() const { return sharded() ? shard_count() - 1 : 0; }
  /// Shard of the currently-executing event; setup shard (or 0) outside.
  int current_shard() const;
  Time min_lookahead() const { return lookahead_; }

  /// Route setup-time (pre-run) schedules issued inside `f` to `shard`.
  /// Setup schedules are children of the pseudo-root rank 0 in call order,
  /// matching the seed's monotone seq assignment.
  template <typename F>
  void with_setup_shard(int shard, F&& f) {
    const int prev = setup_shard_;
    setup_shard_ = shard;
    std::forward<F>(f)();
    setup_shard_ = prev;
  }

  /// Run `fn` with exclusive access to all simulation state. Inside a
  /// parallel round the closure is deferred to the round barrier, where all
  /// deferred closures execute single-threaded in canonical parent order;
  /// in every exclusive context (unsharded, sequential window, setup) it
  /// runs inline. The closure must capture any event-time values it needs
  /// (now() at barrier time is not the deferring event's time) and may
  /// perform at most one schedule call.
  void defer_control(Action fn);

  /// `hook` runs single-threaded at the end of every round (after deferred
  /// control closures and mailbox merges). Used by subsystems to reset
  /// per-round staging state (e.g. the collector's pending-dedup sets).
  void add_round_hook(std::function<void()> hook) {
    round_hooks_.push_back(std::move(hook));
  }

  // ---- Scheduling ----

  /// Current simulation time: the executing event's time on its shard, the
  /// global clock outside of events.
  Time now() const {
    const ExecCtx* c = tls_ctx_;
    if (c != nullptr && sharded()) return shards_[c->shard]->now;
    return now_;
  }

  /// Schedule `fn` to run `delay` ns from now on the current shard.
  /// Negative delays clamp to 0.
  void schedule(Time delay, Action&& fn) {
    schedule_at_on(-1, now() + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedule `fn` at an absolute time (>= now) on the current shard.
  void schedule_at(Time at, Action&& fn) {
    schedule_at_on(-1, at, std::move(fn));
  }

  /// Cross-shard variants: `shard` is the calendar index that must execute
  /// `fn` (the shard owning the device the closure touches, or
  /// control_shard() for global-state events). Cross-shard delays must be
  /// >= min_lookahead() for parallel rounds to preserve canonical order.
  void schedule_on(int shard, Time delay, Action&& fn) {
    schedule_at_on(shard, now() + (delay < 0 ? 0 : delay), std::move(fn));
  }
  void schedule_at_on(int shard, Time at, Action&& fn);

  // ---- Execution ----

  /// Run until the calendars drain or `until` is passed (events scheduled
  /// beyond `until` remain queued and `now()` stops at the last executed
  /// event's time). An event at exactly `until` still fires.
  void run_until(Time until);

  /// Drain every calendar.
  void run() { run_until(std::numeric_limits<Time>::max() - 1); }

  bool empty() const { return pending() == 0; }
  std::size_t pending() const;
  std::uint64_t executed_events() const;

  /// Sharded-mode execution profile: where wall-clock went (parallel worker
  /// drains vs the serial barrier vs sequential windows) and how much work
  /// crossed the round boundary. All zeros when unsharded. The benches use
  /// this to report shard-scaling efficiency next to raw wall-clock.
  struct ShardStats {
    std::uint64_t parallel_rounds = 0;
    std::uint64_t sequential_windows = 0;
    std::uint64_t sequential_events = 0;  // events run inside seq windows
    std::uint64_t merged_records = 0;     // events rank-merged at barriers
    std::uint64_t deferred_schedules = 0; // mailbox entries
    std::uint64_t deferred_controls = 0;
    double drain_seconds = 0;      // workers executing (parallel phase)
    double round_max_seconds = 0;  // sum over rounds of slowest worker
    double barrier_seconds = 0;    // rank merge + controls + mailbox flush
    double merge_seconds = 0;      // serial part: rank merge + controls
    double flush_seconds = 0;      // parallelizable part: mailbox flush
    double sequential_seconds = 0; // serial: sequential windows
  };
  const ShardStats& shard_stats() const { return stats_; }
  /// Summed worker-side drain seconds per shard (parallel rounds only).
  std::vector<double> per_shard_busy() const;

 private:
  // ---- Sharded-mode internals ----

  /// Executed-event record for the round barrier's canonical rank merge.
  struct Rec {
    Time at;
    std::uint64_t parent;  // class 0: parent rank; class 1: parent local idx
    std::uint32_t child;   // child index under that parent
    bool cls1;
  };
  /// A schedule deferred to the round barrier (cross-shard or >= horizon).
  /// The destination calendar is the outbox bucket it sits in.
  struct DefSched {
    Time at;
    std::uint32_t lidx;   // deferring (parent) event's local record index
    std::uint32_t child;  // child index reserved under that parent
    Action fn;
  };
  /// A control closure deferred to the round barrier.
  struct DefCtl {
    std::uint32_t lidx;
    std::uint32_t child;
    Action fn;
  };
  /// One shard: calendar + clock + per-round staging. Only the owning
  /// worker touches it during a parallel round; the main thread touches it
  /// only between rounds (the pool mutex orders the two).
  struct alignas(64) Shard {
    EventCalendar cal;
    Time now = 0;
    std::uint64_t executed = 0;
    double busy = 0;  // worker-side drain time, summed over rounds
    double round_busy = 0;  // this round's drain time
    std::vector<Rec> recs;               // this round's executed events
    /// Deferred schedules, bucketed by destination calendar so the barrier
    /// flush parallelizes: worker t drains every shard's bucket t into its
    /// own calendar (per-(src,dst) mailboxes).
    std::vector<std::vector<DefSched>> out;
    std::vector<DefCtl> ctl;             // deferred control closures
    std::vector<std::uint64_t> rank_of;  // round-local idx -> global rank
  };
  /// Per-thread execution context; null outside event execution.
  struct ExecCtx {
    int shard = 0;
    bool parallel = false;    // inside a parallel worker round
    std::uint64_t parent = 0; // class-0 parent rank (exclusive contexts)
    std::uint32_t lidx = 0;   // parallel: executing event's record index
    std::uint32_t child = 0;  // next child index
    std::uint32_t child_cap = std::numeric_limits<std::uint32_t>::max();
    Time cap = 0;             // horizon for intra-round (class 1) children
  };

  int shard_count() const { return static_cast<int>(shards_.size()); }
  void run_until_sharded(Time until);
  void run_sequential_window(Time cap);
  void run_parallel_round(Time cap);
  void drain_shard(int s, Time cap);
  void flush_target(int t);
  void round_barrier();
  void run_round_hooks();
  void ensure_pool();

  // Defined in-class so every translation unit reads it as a plain TLS
  // load. Defined out of line, it is read from other units through the
  // weak TLS-init wrapper, and UBSan reports those reads as null loads.
  static inline thread_local ExecCtx* tls_ctx_ = nullptr;

  // Single-shard (seed) state.
  EventCalendar calendar_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;

  // Sharded state (empty when unsharded).
  std::vector<std::unique_ptr<Shard>> shards_;
  Time lookahead_ = 0;
  int setup_shard_ = 0;
  std::uint64_t setup_child_ = 0;  // pseudo-root's next child index
  std::uint64_t next_rank_ = 1;    // 0 is the setup pseudo-root
  std::vector<std::function<void()>> round_hooks_;
  ShardStats stats_;

  struct Pool;
  std::unique_ptr<Pool> pool_;
};

}  // namespace hawkeye::sim
