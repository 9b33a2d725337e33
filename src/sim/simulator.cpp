#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace hawkeye::sim {

/// Persistent worker pool for parallel rounds. Workers block on a round
/// generation counter; the main thread publishes a horizon, wakes them, and
/// waits for the drain count to hit zero. The mutex acquire/release pairs
/// give every round a happens-before edge in both directions, so all
/// per-shard state written by a worker is visible to the barrier (and vice
/// versa) without any other synchronization.
struct Simulator::Pool {
  enum class Task { kDrain, kFlush };
  std::vector<std::thread> threads;
  std::mutex m;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t gen = 0;
  int remaining = 0;
  Time cap = 0;
  Task task = Task::kDrain;
  bool quit = false;
};

Simulator::Simulator() = default;

Simulator::~Simulator() {
  if (pool_ != nullptr) {
    {
      std::lock_guard<std::mutex> lk(pool_->m);
      pool_->quit = true;
    }
    pool_->cv_work.notify_all();
    for (std::thread& t : pool_->threads) t.join();
  }
}

void Simulator::configure_shards(int device_shards, Time min_lookahead) {
  assert(shards_.empty() && "configure_shards must be called once");
  assert(calendar_.empty() && executed_ == 0 && next_seq_ == 0 &&
         "configure_shards must precede all scheduling");
  if (device_shards <= 1) return;  // keep the seed single-calendar path
  assert(min_lookahead >= 0);
  lookahead_ = min_lookahead;
  shards_.reserve(static_cast<std::size_t>(device_shards) + 1);
  for (int s = 0; s < device_shards + 1; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->out.resize(static_cast<std::size_t>(device_shards) + 1);
  }
  setup_shard_ = control_shard();
}

int Simulator::current_shard() const {
  const ExecCtx* c = tls_ctx_;
  if (c != nullptr) return c->shard;
  return sharded() ? setup_shard_ : 0;
}

void Simulator::schedule_at_on(int shard, Time at, Action&& fn) {
  if (!sharded()) {
    if (at < now_) at = now_;
    calendar_.push(at, next_seq_++, std::move(fn));
    return;
  }
  ExecCtx* c = tls_ctx_;
  if (c == nullptr) {
    // Setup (pre-run, single-threaded): children of the pseudo-root rank 0
    // in call order — the same total order the seed's monotone seq gives.
    if (at < now_) at = now_;
    const int tgt = shard >= 0 ? shard : setup_shard_;
    assert(setup_child_ <= kChildMask && "too many setup-time schedules");
    shards_[static_cast<std::size_t>(tgt)]->cal.push(at, setup_child_++,
                                                     std::move(fn));
    return;
  }
  Shard& cur = *shards_[static_cast<std::size_t>(c->shard)];
  if (at < cur.now) at = cur.now;
  const int tgt = shard >= 0 ? shard : c->shard;
  assert(c->child < c->child_cap && "defer_control closures may schedule at most once");
  assert(c->child <= kChildMask && "per-event child-index overflow");
  if (!c->parallel) {
    // Exclusive context (sequential window, barrier): the parent's
    // global rank is already known, so the canonical class-0 key is direct.
    const std::uint64_t seq = (c->parent << kChildBits) | c->child++;
    shards_[static_cast<std::size_t>(tgt)]->cal.push(at, seq, std::move(fn));
    return;
  }
  if (tgt == c->shard && at < c->cap) {
    // Intra-round self-schedule: class-1 key. Only compared against this
    // round's keys on this shard, where local index order == rank order.
    const std::uint64_t seq = kClass1Bit |
                              (static_cast<std::uint64_t>(c->lidx) << kChildBits) |
                              c->child++;
    cur.cal.push(at, seq, std::move(fn));
    return;
  }
  // Cross-shard or post-horizon: defer to the round barrier, which resolves
  // the parent's global rank and pushes the canonical class-0 key.
  cur.out[static_cast<std::size_t>(tgt)].push_back(
      DefSched{at, c->lidx, c->child++, std::move(fn)});
}

void Simulator::defer_control(Action fn) {
  ExecCtx* c = tls_ctx_;
  if (!sharded() || c == nullptr || !c->parallel) {
    fn();  // every exclusive context runs the closure inline
    return;
  }
  shards_[static_cast<std::size_t>(c->shard)]->ctl.push_back(
      DefCtl{c->lidx, c->child++, std::move(fn)});
}

void Simulator::run_until(Time until) {
  if (sharded()) {
    run_until_sharded(until);
    return;
  }
  while (calendar_.prepare_head() && calendar_.head().at <= until) {
    EventCalendar::Event ev = calendar_.pop_head();
    now_ = ev.at;
    ev.fn();
    ++executed_;
  }
}

std::size_t Simulator::pending() const {
  if (!sharded()) return calendar_.size();
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->cal.size();
  return total;
}

std::vector<double> Simulator::per_shard_busy() const {
  std::vector<double> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) out.push_back(sh->busy);
  return out;
}

std::uint64_t Simulator::executed_events() const {
  if (!sharded()) return executed_;
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->executed;
  return total;
}

void Simulator::run_until_sharded(Time until) {
  const int n = shard_count();
  for (;;) {
    Time tmin = std::numeric_limits<Time>::max();
    for (int s = 0; s < n; ++s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      if (sh.cal.prepare_head()) tmin = std::min(tmin, sh.cal.head().at);
    }
    if (tmin == std::numeric_limits<Time>::max() || tmin > until) break;
    // Conservative horizon: every cross-shard schedule issued by an event
    // at t >= tmin lands at >= tmin + lookahead, so events strictly below
    // the horizon are causally closed per shard.
    const Time horizon =
        lookahead_ > 0 ? tmin + lookahead_ : tmin + 1;  // L==0: {tmin} only
    const Time cap = std::min(horizon, until == std::numeric_limits<Time>::max()
                                           ? until
                                           : until + 1);
    Shard& ctl = *shards_[static_cast<std::size_t>(control_shard())];
    Time tctl = std::numeric_limits<Time>::max();
    if (ctl.cal.prepare_head()) tctl = ctl.cal.head().at;
    if (lookahead_ == 0 || tctl == tmin) {
      // A control event sits at the frontier (or there is no lookahead):
      // give it exclusive access, but only for its own timestamp — the rest
      // of the window resumes in parallel on the next iteration. Narrower
      // windows are always conservative-safe.
      const auto t0 = std::chrono::steady_clock::now();
      run_sequential_window(std::min(cap, tmin + 1));
      stats_.sequential_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      ++stats_.sequential_windows;
    } else if (tctl < cap) {
      // Control event inside the window but not at the frontier: run the
      // parallel round up to it, then handle it next iteration.
      run_parallel_round(tctl);
      ++stats_.parallel_rounds;
    } else {
      run_parallel_round(cap);
      ++stats_.parallel_rounds;
    }
  }
}

/// Drain every calendar below `cap` single-threaded, in the global
/// canonical (time, seq) order (all pending keys are class 0 at round
/// boundaries, so plain seq comparison IS the canonical comparison). Ranks
/// are assigned inline and children get direct class-0 keys, so control
/// events may touch any shard's state and schedule anywhere.
void Simulator::run_sequential_window(Time cap) {
  const int n = shard_count();
  ExecCtx ctx;
  ctx.parallel = false;
  tls_ctx_ = &ctx;
  for (;;) {
    int best = -1;
    Time bat = 0;
    std::uint64_t bseq = 0;
    for (int s = 0; s < n; ++s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      if (!sh.cal.prepare_head()) continue;
      const EventCalendar::Event& h = sh.cal.head();
      if (h.at >= cap) continue;
      if (best < 0 || h.at < bat || (h.at == bat && h.seq < bseq)) {
        best = s;
        bat = h.at;
        bseq = h.seq;
      }
    }
    if (best < 0) break;
    Shard& sh = *shards_[static_cast<std::size_t>(best)];
    EventCalendar::Event ev = sh.cal.pop_head();
    sh.now = ev.at;
    if (ev.at > now_) now_ = ev.at;
    ctx.shard = best;
    ctx.parent = next_rank_++;
    ctx.child = 0;
    ev.fn();
    ++sh.executed;
    ++stats_.sequential_events;
  }
  tls_ctx_ = nullptr;
  run_round_hooks();
}

void Simulator::ensure_pool() {
  if (pool_ != nullptr) return;
  pool_ = std::make_unique<Pool>();
  const int workers = device_count();
  pool_->threads.reserve(static_cast<std::size_t>(workers));
  for (int s = 0; s < workers; ++s) {
    pool_->threads.emplace_back([this, s] {
      std::uint64_t seen = 0;
      for (;;) {
        Time cap;
        Pool::Task task;
        {
          std::unique_lock<std::mutex> lk(pool_->m);
          pool_->cv_work.wait(
              lk, [&] { return pool_->quit || pool_->gen != seen; });
          if (pool_->quit) return;
          seen = pool_->gen;
          cap = pool_->cap;
          task = pool_->task;
        }
        if (task == Pool::Task::kDrain) {
          drain_shard(s, cap);
        } else {
          flush_target(s);
        }
        {
          std::lock_guard<std::mutex> lk(pool_->m);
          if (--pool_->remaining == 0) pool_->cv_done.notify_one();
        }
      }
    });
  }
}

void Simulator::run_parallel_round(Time cap) {
  ensure_pool();
  const int workers = device_count();
  for (int s = 0; s < workers; ++s)
    shards_[static_cast<std::size_t>(s)]->round_busy = 0;
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lk(pool_->m);
    pool_->cap = cap;
    pool_->task = Pool::Task::kDrain;
    pool_->remaining = workers;
    ++pool_->gen;
    pool_->cv_work.notify_all();
    pool_->cv_done.wait(lk, [&] { return pool_->remaining == 0; });
  }
  double mx = 0;
  for (int s = 0; s < workers; ++s)
    mx = std::max(mx, shards_[static_cast<std::size_t>(s)]->round_busy);
  stats_.round_max_seconds += mx;
  const auto t1 = std::chrono::steady_clock::now();
  round_barrier();
  const auto t2 = std::chrono::steady_clock::now();
  stats_.drain_seconds += std::chrono::duration<double>(t1 - t0).count();
  stats_.barrier_seconds += std::chrono::duration<double>(t2 - t1).count();
}

/// Worker body: drain the shard's own calendar below the horizon, recording
/// each executed event's canonical parentage for the barrier merge.
void Simulator::drain_shard(int s, Time cap) {
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  const auto t0 = std::chrono::steady_clock::now();
  ExecCtx ctx;
  ctx.shard = s;
  ctx.parallel = true;
  ctx.cap = cap;
  tls_ctx_ = &ctx;
  while (sh.cal.prepare_head() && sh.cal.head().at < cap) {
    EventCalendar::Event ev = sh.cal.pop_head();
    sh.now = ev.at;
    ctx.lidx = static_cast<std::uint32_t>(sh.recs.size());
    ctx.child = 0;
    const bool cls1 = (ev.seq & kClass1Bit) != 0;
    sh.recs.push_back(Rec{ev.at, (ev.seq >> kChildBits) & kParentMask,
                          static_cast<std::uint32_t>(ev.seq & kChildMask),
                          cls1});
    ev.fn();
    ++sh.executed;
  }
  sh.round_busy =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  sh.busy += sh.round_busy;
  tls_ctx_ = nullptr;
}

/// Flush every shard's outbox bucket for calendar `t` into `t`'s calendar,
/// resolving each deferred schedule's parent rank to its canonical class-0
/// key. Runs on the worker owning `t` (main thread for the control shard):
/// the destination calendar is touched by exactly one thread, the source
/// rank_of/outbox vectors are read-only by then, and every key is globally
/// unique so insertion order cannot affect pop order.
void Simulator::flush_target(int t) {
  Shard& dst = *shards_[static_cast<std::size_t>(t)];
  const int n = shard_count();
  for (int s = 0; s < n; ++s) {
    Shard& src = *shards_[static_cast<std::size_t>(s)];
    std::vector<DefSched>& box = src.out[static_cast<std::size_t>(t)];
    for (DefSched& d : box) {
      const std::uint64_t rank = src.rank_of[d.lidx];
      assert(rank <= kParentMask && "global rank overflow");
      dst.cal.push(d.at, (rank << kChildBits) | d.child, std::move(d.fn));
    }
    box.clear();
  }
}

/// Round barrier (main thread coordinates, workers quiescent or flushing):
///  1. k-way merge of the per-shard executed-record streams under the
///     canonical (time, parent rank, child index) order, assigning global
///     ranks in merge order. A class-1 record's parent rank is always
///     resolved before the record surfaces, because the parent precedes it
///     in the same shard's stream. The merge walks a cursor min-heap —
///     each stream head's key is resolved once, when it enters the heap.
///  2. deferred control closures, in canonical parent order;
///  3. deferred schedules: resolve parent ranks, push class-0 keys into the
///     target calendars (the deterministic mailbox merge — calendar keys,
///     not arrival order, define the final ordering). Parallel: each worker
///     flushes the buckets destined for its own calendar.
///  4. round hooks, staging reset.
void Simulator::round_barrier() {
  const auto barrier_t0 = std::chrono::steady_clock::now();
  const int n = shard_count();
  // 1. Canonical rank merge. Cursor = one shard stream's next record with
  // its parent rank pre-resolved; min-heap ordered by (at, parent, child).
  struct Cur {
    Time at;
    std::uint64_t par;
    std::uint32_t child;
    int s;
  };
  const auto cur_later = [](const Cur& a, const Cur& b) {
    if (a.at != b.at) return a.at > b.at;
    if (a.par != b.par) return a.par > b.par;
    return a.child > b.child;
  };
  std::vector<Cur> heap;
  heap.reserve(static_cast<std::size_t>(n));
  std::vector<std::size_t> idx(static_cast<std::size_t>(n), 0);
  const auto load = [&](int s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    const std::size_t i = idx[static_cast<std::size_t>(s)];
    if (i >= sh.recs.size()) return;
    const Rec& r = sh.recs[i];
    const std::uint64_t p =
        r.cls1 ? sh.rank_of[static_cast<std::size_t>(r.parent)] : r.parent;
    heap.push_back(Cur{r.at, p, r.child, s});
    std::push_heap(heap.begin(), heap.end(), cur_later);
  };
  for (int s = 0; s < n; ++s) load(s);
  Time last_at = now_;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), cur_later);
    Cur cur = heap.back();
    heap.pop_back();
    // Run fast path: keep draining the winning stream while its next record
    // still precedes every other stream's head (bursts cluster per shard,
    // so runs are common) — no heap traffic until the stream loses.
    for (;;) {
      Shard& sh = *shards_[static_cast<std::size_t>(cur.s)];
      sh.rank_of.push_back(next_rank_++);
      const std::size_t i = ++idx[static_cast<std::size_t>(cur.s)];
      ++stats_.merged_records;
      if (cur.at > last_at) last_at = cur.at;
      if (i >= sh.recs.size()) break;
      const Rec& r = sh.recs[i];
      const Cur nxt{r.at,
                    r.cls1 ? sh.rank_of[static_cast<std::size_t>(r.parent)]
                           : r.parent,
                    r.child, cur.s};
      if (heap.empty() || cur_later(heap.front(), nxt)) {
        cur = nxt;
        continue;
      }
      heap.push_back(nxt);
      std::push_heap(heap.begin(), heap.end(), cur_later);
      break;
    }
  }
  now_ = last_at;
  // 2. Deferred control closures, ordered by (parent rank, reserved child).
  struct CtlRef {
    std::uint64_t rank;
    std::uint32_t child;
    int shard;
    std::size_t i;
  };
  std::vector<CtlRef> ctls;
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < sh.ctl.size(); ++i) {
      ctls.push_back(CtlRef{sh.rank_of[sh.ctl[i].lidx], sh.ctl[i].child, s, i});
    }
  }
  std::sort(ctls.begin(), ctls.end(), [](const CtlRef& a, const CtlRef& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.child < b.child;
  });
  for (const CtlRef& ref : ctls) {
    Shard& sh = *shards_[static_cast<std::size_t>(ref.shard)];
    DefCtl& d = sh.ctl[ref.i];
    ExecCtx ctx;
    ctx.parallel = false;
    ctx.shard = ref.shard;
    ctx.parent = ref.rank;
    ctx.child = d.child;
    ctx.child_cap = d.child + 1;  // at most one schedule, on the reserved key
    tls_ctx_ = &ctx;
    d.fn();
    tls_ctx_ = nullptr;
  }
  // 3. Mailbox flush. Worker t pushes every bucket destined for calendar t
  // into its own calendar; the main thread takes the control calendar.
  bool any_out = false;
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    stats_.deferred_controls += sh.ctl.size();
    for (const auto& box : sh.out) {
      stats_.deferred_schedules += box.size();
      if (!box.empty()) any_out = true;
    }
  }
  stats_.merge_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    barrier_t0)
          .count();
  const auto flush_t0 = std::chrono::steady_clock::now();
  if (any_out) {
    std::unique_lock<std::mutex> lk(pool_->m);
    pool_->task = Pool::Task::kFlush;
    pool_->remaining = device_count();
    ++pool_->gen;
    pool_->cv_work.notify_all();
    lk.unlock();
    flush_target(control_shard());
    lk.lock();
    pool_->cv_done.wait(lk, [&] { return pool_->remaining == 0; });
  }
  stats_.flush_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    flush_t0)
          .count();
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    sh.recs.clear();
    sh.ctl.clear();
    sh.rank_of.clear();
  }
  run_round_hooks();
}

void Simulator::run_round_hooks() {
  for (const std::function<void()>& h : round_hooks_) h();
}

}  // namespace hawkeye::sim
