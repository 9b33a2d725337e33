#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/inline_action.hpp"
#include "sim/time.hpp"

namespace hawkeye::sim {

/// Hierarchical bucket calendar for simulator events, replacing the seed's
/// global `std::priority_queue`. Events land in fixed-width time buckets
/// (a classic timing wheel) so the steady-state cost per event is one list
/// append + one batch-sorted key instead of an O(log n) sift through a
/// calendar holding the entire pending set.
///
/// Storage: every pending event sits in one arena of 64-byte slots
/// (chunks of kChunkEvents, so growth never moves an event) from its push
/// to its pop, moved only by a compaction (below); freed slots go on a
/// free list and are reused first. The
/// tiers below hold only 4-byte arena indices, chained through a parallel
/// `next_` array with a head and tail per list so each list keeps push
/// order. Filling a bucket therefore never regrows anything.
///
/// Tiers (near → far):
///  - the *drain tier* — the bucket currently being drained. 24-byte
///    (time, seq, slot) keys do all the ordering: when the frontier advances
///    to a bucket its keys are staged from the bucket's list, sorted ONCE
///    (`drain_keys_`) and popped by bumping `drain_idx_` — no per-pop
///    sifting. Only events pushed into the already-active bucket while it
///    drains (rare: zero-delay and sub-bucket-width self-reschedules) go
///    through a small binary heap (`late_keys_`); the head is whichever
///    lane's key is earlier. All pending events with a bucket index
///    <= `base_bucket_` live in this tier.
///  - `wheel_`     — kBucketCount lists of unordered events covering the
///    next kBucketCount * kBucketWidthNs nanoseconds after `base_bucket_`.
///    A 1-bit-per-bucket occupancy bitmap makes skipping empty buckets a
///    countr_zero scan instead of a pointer chase.
///  - `far_`       — one unordered list of events beyond the wheel horizon
///    (retransmit timeouts, far-future flow starts), relinked into the
///    wheel when the drain frontier approaches them.
///
/// Determinism: pop order is *exactly* ascending (time, insertion seq) —
/// the same total order the seed heap used — because draining a bucket
/// first partitions out precisely the events of that absolute bucket and
/// then key-orders them by (time, seq); late same-bucket arrivals always
/// carry a (time, seq) no earlier than the last pop (simulation time and
/// seq are monotonic), so the two-lane merge preserves the total order.
/// Buckets and arena slots only hold events; they never order them. The
/// evaluation harness depends on this for bit-identical precision/recall.
///
/// Memory: at every frontier advance the arena holds storage for at most
/// kBucketCount * kRetainedBucketEvents events (8 MB) beyond the pending
/// ones — `retained_events()` reports it. Once more than kMaxFreeEvents
/// slots are free there, the arena is compacted: the pending events move
/// into its lowest slots and the chunks above them are released. Between
/// advances only the bucket being drained can add free slots.
class EventCalendar {
 public:
  /// One scheduled event — exactly one 64-byte cache line (8-byte time +
  /// 8-byte seq + 48-byte InlineAction). Move-only; the calendar never
  /// copies events — see SimulatorTest.EventsAreNeverCopied.
  struct alignas(64) Event {
    Time at = 0;
    std::uint64_t seq = 0;
    InlineAction fn;
  };

  static constexpr int kBucketWidthShift = 6;   // 64 ns buckets
  static constexpr int kBucketCountLog2 = 14;   // 16384 buckets, ~1.05 ms span
  static constexpr std::int64_t kBucketCount = std::int64_t{1}
                                               << kBucketCountLog2;
  static constexpr std::int64_t kBucketMask = kBucketCount - 1;
  static constexpr Time kBucketWidthNs = Time{1} << kBucketWidthShift;
  /// Storage bound, in events per wheel bucket: at a frontier advance the
  /// calendar retains at most kBucketCount * kRetainedBucketEvents events
  /// beyond its pending ones (DESIGN.md §7).
  static constexpr std::size_t kRetainedBucketEvents = 8;

  EventCalendar() : wheel_(static_cast<std::size_t>(kBucketCount)) {}
  EventCalendar(const EventCalendar&) = delete;
  EventCalendar& operator=(const EventCalendar&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Event slots the arena holds, occupied or not: what the storage bound
  /// limits.
  std::size_t retained_events() const {
    return chunks_.size() * std::size_t{kChunkEvents};
  }

  void push(Time at, std::uint64_t seq, InlineAction&& fn) {
    const std::uint32_t i = acquire();
    Event& ev = slot(i);
    ev.at = at;
    ev.seq = seq;
    ev.fn = std::move(fn);
    const std::int64_t b = bucket_of(at);
    if (b <= base_bucket_) {
      late_keys_.push_back(Key{at, seq, i});
      std::push_heap(late_keys_.begin(), late_keys_.end(), KeyLater{});
    } else if (b < base_bucket_ + kBucketCount) {
      link_wheel(b, i);
    } else {
      if (far_empty() || b < far_min_bucket_) far_min_bucket_ = b;
      append(far_, far_count_++ == 0, i);
    }
    ++size_;
  }

  /// Advance the drain frontier (without executing anything) until the
  /// earliest pending event sits at the head. Returns false when drained.
  bool prepare_head() {
    while (drain_idx_ == drain_keys_.size() && late_keys_.empty()) {
      if (size_ == 0) return false;
      drain_keys_.clear();
      drain_idx_ = 0;
      // No key is live here: every pending event sits in a wheel or far
      // list, so the arena can be compacted by relinking those lists.
      if (free_count_ > kMaxFreeEvents) compact();
      const std::int64_t wheel_next = next_wheel_bucket();
      const bool have_far = !far_empty();
      // Jump to the earlier of (next occupied wheel bucket, earliest far
      // bucket). When both land on the same bucket — a migrated retransmit
      // timeout sharing a bucket with queued traffic — BOTH sources must
      // drain together, or the wheel's share would fire out of
      // (time, seq) order behind the far share.
      const std::int64_t target =
          wheel_next >= 0 && (!have_far || wheel_next <= far_min_bucket_)
              ? wheel_next
              : far_min_bucket_;
      base_bucket_ = target;
      if (wheel_next == target) take_bucket(target);
      if (have_far && far_min_bucket_ <= target) migrate_far();
      std::sort(drain_keys_.begin(), drain_keys_.end(), KeyEarlier{});
    }
    return true;
  }

  /// Earliest pending event; only valid after prepare_head() returned true.
  const Event& head() const { return slot(peek_slot()); }

  /// Remove and return the earliest pending event (prepare_head() first).
  Event pop_head() {
    std::uint32_t i;
    if (late_head_wins()) {
      std::pop_heap(late_keys_.begin(), late_keys_.end(), KeyLater{});
      i = late_keys_.back().slot;
      late_keys_.pop_back();
    } else {
      i = drain_keys_[drain_idx_++].slot;
    }
    Event ev = std::move(slot(i));
    release(i);
    --size_;
    return ev;
  }

 private:
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
  /// Arena chunk: 1024 events, 64 KB.
  static constexpr int kChunkShift = 10;
  static constexpr std::uint32_t kChunkEvents = std::uint32_t{1} << kChunkShift;
  /// Free slots a frontier advance tolerates before it compacts the arena.
  /// A partly used last chunk adds fewer than kChunkEvents, so the retained
  /// storage stays within the kRetainedBucketEvents bound.
  static constexpr std::size_t kMaxFreeEvents =
      static_cast<std::size_t>(kBucketCount) * kRetainedBucketEvents -
      kChunkEvents;

  /// Drain-tier entry: the (time, seq) sort key plus the event's arena
  /// slot. Trivially copyable by design — ordering shuffles these 24-byte
  /// PODs, never the cache-line events.
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Ascending (time, seq) — the batch-sort order of `drain_keys_`.
  struct KeyEarlier {
    bool operator()(const Key& a, const Key& b) const {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    }
  };
  /// Min-heap comparator for `late_keys_`: `a` fires after `b`.
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  /// An arena-index list in push order; its links live in `next_`. Only
  /// meaningful while the list is non-empty (occupancy bit / far count).
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  Event& slot(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkEvents - 1)];
  }
  const Event& slot(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkEvents - 1)];
  }

  /// A free arena slot: the most recently released one (still warm in
  /// cache), else the next never-used one, adding a chunk when none is left.
  std::uint32_t acquire() {
    if (free_head_ != kNil) {
      const std::uint32_t i = free_head_;
      free_head_ = next_[i];
      --free_count_;
      return i;
    }
    if (used_ == next_.size()) {
      assert(next_.size() < kNil - kChunkEvents && "event arena overflow");
      chunks_.push_back(std::make_unique<Event[]>(kChunkEvents));
      next_.resize(next_.size() + kChunkEvents);
    }
    return used_++;
  }
  void release(std::uint32_t i) {
    next_[i] = free_head_;
    free_head_ = i;
    ++free_count_;
  }

  void append(List& list, bool was_empty, std::uint32_t i) {
    if (was_empty) {
      list.head = i;
    } else {
      next_[list.tail] = i;
    }
    list.tail = i;
  }
  void link_wheel(std::int64_t b, std::uint32_t i) {
    const auto m = static_cast<std::uint64_t>(b & kBucketMask);
    std::uint64_t& word = occupied_[m >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (m & 63);
    append(wheel_[m], (word & bit) == 0, i);
    word |= bit;
    ++wheel_count_;
  }
  bool far_empty() const { return far_count_ == 0; }

  /// True when the late-arrival heap holds the earliest pending key.
  bool late_head_wins() const {
    return !late_keys_.empty() &&
           (drain_idx_ == drain_keys_.size() ||
            KeyLater{}(drain_keys_[drain_idx_], late_keys_.front()));
  }
  std::uint32_t peek_slot() const {
    return late_head_wins() ? late_keys_.front().slot
                            : drain_keys_[drain_idx_].slot;
  }

  static constexpr std::int64_t bucket_of(Time at) {
    return at >> kBucketWidthShift;
  }

  void stage(std::uint32_t i) {
    const Event& ev = slot(i);
    drain_keys_.push_back(Key{ev.at, ev.seq, i});
  }

  /// Absolute bucket of the next non-empty wheel slot after base_bucket_,
  /// or -1. Every wheel event lies in (base_bucket_, base_bucket_ +
  /// kBucketCount), so the masked slot maps back to a unique absolute
  /// bucket.
  std::int64_t next_wheel_bucket() const {
    if (wheel_count_ == 0) return -1;
    const std::int64_t start = base_bucket_ + 1;
    // Scan the occupancy bitmap as a circular kBucketCount-bit word
    // starting at start's slot; `off` is the distance from `start`.
    std::int64_t off = 0;
    while (off < kBucketCount) {
      const auto slot =
          static_cast<std::uint64_t>((start + off) & kBucketMask);
      const std::uint64_t word = occupied_[slot >> 6] >> (slot & 63);
      if (word != 0) {
        off += std::countr_zero(word);
        return off < kBucketCount ? start + off : -1;
      }
      off += 64 - static_cast<std::int64_t>(slot & 63);
    }
    return -1;
  }

  /// Stage the keys of absolute bucket `b`'s wheel list into the drain
  /// tier. A wheel slot only ever holds one absolute bucket: every wheel
  /// push lies within one revolution of base_bucket_, and the frontier
  /// cannot pass a bucket that still holds events.
  void take_bucket(std::int64_t b) {
    const auto m = static_cast<std::uint64_t>(b & kBucketMask);
    const List list = wheel_[m];
    for (std::uint32_t i = list.head;; i = next_[i]) {
      assert(bucket_of(slot(i).at) == b);
      stage(i);
      --wheel_count_;
      if (i == list.tail) break;
    }
    occupied_[m >> 6] &= ~(std::uint64_t{1} << (m & 63));
  }

  /// Relink far-future events that now fall inside the wheel horizon (or
  /// the active bucket) after base_bucket_ moved.
  void migrate_far() {
    const List far = far_;
    const std::size_t n = far_count_;
    far_count_ = 0;
    std::int64_t new_min = -1;
    std::uint32_t i = far.head;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t next = next_[i];  // read before relinking `i`
      const std::int64_t b = bucket_of(slot(i).at);
      if (b <= base_bucket_) {
        stage(i);
      } else if (b < base_bucket_ + kBucketCount) {
        link_wheel(b, i);
      } else {
        if (new_min < 0 || b < new_min) new_min = b;
        append(far_, far_count_++ == 0, i);
      }
      i = next;
    }
    far_min_bucket_ = new_min;
  }

  /// Move the pending events into arena slots [0, size_) and release the
  /// chunks above them. Only runs when no key is live, so the wheel and
  /// far lists name every pending event and relinking them is all the
  /// bookkeeping; a moved event keeps its list position.
  void compact() {
    const auto live = static_cast<std::uint32_t>(size_);
    std::vector<std::uint32_t> holes;  // free slots below `live`
    for (std::uint32_t i = free_head_; i != kNil; i = next_[i]) {
      if (i < live) holes.push_back(i);
    }
    const auto settle = [&](List& list) {
      std::uint32_t* link = &list.head;
      for (std::uint32_t i = list.head;;) {
        const bool last = i == list.tail;
        const std::uint32_t next = next_[i];
        if (i >= live) {
          const std::uint32_t j = holes.back();
          holes.pop_back();
          slot(j) = std::move(slot(i));
          next_[j] = next;
          *link = j;
          i = j;
        }
        if (last) {
          list.tail = i;
          return;
        }
        link = &next_[i];
        i = next;
      }
    };
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        settle(wheel_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]);
      }
    }
    if (!far_empty()) settle(far_);
    assert(holes.empty());
    const std::size_t chunks = (live + kChunkEvents - 1) / kChunkEvents;
    chunks_.resize(chunks);
    next_.resize(chunks * kChunkEvents);
    next_.shrink_to_fit();
    used_ = live;
    free_head_ = kNil;
    free_count_ = 0;
  }

  // Arena: chunks of events, `next_` links, and the free list through it.
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<std::uint32_t> next_;
  std::uint32_t used_ = 0;  // slots [0, used_) were handed out
  std::uint32_t free_head_ = kNil;
  std::size_t free_count_ = 0;

  std::vector<List> wheel_;
  std::array<std::uint64_t, static_cast<std::size_t>(kBucketCount / 64)>
      occupied_{};
  std::vector<Key> drain_keys_;  // sorted batch of the active bucket's keys
  std::size_t drain_idx_ = 0;    // next unpopped index into drain_keys_
  std::vector<Key> late_keys_;   // min-heap: pushes into the active bucket
  List far_;                     // events beyond the wheel horizon
  std::size_t far_count_ = 0;
  std::int64_t base_bucket_ = 0;
  std::int64_t far_min_bucket_ = -1;
  std::size_t wheel_count_ = 0;  // events currently in wheel_ lists
  std::size_t size_ = 0;         // total pending events
};

}  // namespace hawkeye::sim
