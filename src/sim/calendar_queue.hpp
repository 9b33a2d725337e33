#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inline_action.hpp"
#include "sim/time.hpp"

namespace hawkeye::sim {

/// Bucket calendar for simulator events, replacing the seed's global
/// `std::priority_queue`. Events land in fixed-width time buckets on a
/// timing wheel, so the steady-state cost per event is one list append
/// plus its share of one batch sort instead of an O(log n) sift through a
/// heap of every pending event.
///
/// Storage: every pending event sits in one flat arena (`events_`) from
/// its push to its pop. A popped event's slot goes on a free list that the
/// next push takes first (LIFO, so the slot is still warm in cache), and
/// the arena grows only when every slot is occupied: its size is the run's
/// pending high-water mark, which `retained_events()` reports. Growth may
/// move events (never copy them). The wheel lists hold 4-byte arena
/// indices, chained through a parallel `next_` array with a head and tail
/// per list so each list keeps push order.
///
/// Two tiers:
///  - the *drain tier*: bucket `base_bucket_`, the one being drained. When
///    the frontier reaches a bucket, the 24-byte (time, seq, slot) keys of
///    its events are staged, sorted ONCE (`drain_keys_`) and popped by
///    bumping `drain_idx_`. Only events pushed into the drained bucket
///    while it drains (zero-delay and sub-bucket-width self-reschedules) go
///    through a small binary heap (`late_keys_`); the head is whichever
///    lane's key is earlier.
///  - `wheel_`: kBucketCount lists, bucket b in slot b mod kBucketCount,
///    plus a 1-bit-per-slot occupancy bitmap, so skipping empty slots is a
///    countr_zero scan. A slot may also hold events one or more revolutions
///    ahead (retransmit timeouts, far-future flow starts): reaching the
///    slot at bucket b stages only bucket b's events and leaves the rest
///    in push order, and the frontier reaches the slot again one
///    revolution later.
///
/// Determinism: pop order is *exactly* ascending (time, insertion seq) —
/// the same total order the seed heap used — because the frontier reaches
/// buckets in ascending order, stages precisely the events of the bucket
/// it reaches and key-orders them by (time, seq); late same-bucket
/// arrivals always carry a (time, seq) no earlier than the last pop
/// (simulation time and seq are monotonic), so the two-lane merge
/// preserves the total order. Buckets and arena slots only hold events;
/// they never order them. The evaluation harness depends on this for
/// bit-identical precision/recall.
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

  EventCalendar() : wheel_(static_cast<std::size_t>(kBucketCount)) {}
  EventCalendar(const EventCalendar&) = delete;
  EventCalendar& operator=(const EventCalendar&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Event slots the arena holds, occupied or free: the most events that
  /// were ever pending at once.
  std::size_t retained_events() const { return events_.size(); }

  void push(Time at, std::uint64_t seq, InlineAction&& fn) {
    const std::uint32_t i = acquire();
    Event& ev = events_[i];
    ev.at = at;
    ev.seq = seq;
    ev.fn = std::move(fn);
    const std::int64_t b = bucket_of(at);
    if (b <= base_bucket_) {
      late_keys_.push_back(Key{at, seq, i});
      std::push_heap(late_keys_.begin(), late_keys_.end(), KeyLater{});
    } else {
      link_wheel(b, i);
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
      base_bucket_ = next_wheel_bucket();
      take_bucket(base_bucket_);
      std::sort(drain_keys_.begin(), drain_keys_.end(), KeyEarlier{});
    }
    return true;
  }

  /// Earliest pending event; only valid after prepare_head() returned true,
  /// and only until the next push (which may grow the arena).
  const Event& head() const { return events_[peek_slot()]; }

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
    Event ev = std::move(events_[i]);
    release(i);
    --size_;
    return ev;
  }

 private:
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

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
  /// An arena-index list in push order; its links live in `next_`. A
  /// default List is empty; a wheel slot's list is only meaningful while
  /// its occupancy bit is set.
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// A free arena slot: the most recently released one, else a new one.
  std::uint32_t acquire() {
    if (free_head_ != kNil) {
      const std::uint32_t i = free_head_;
      free_head_ = next_[i];
      return i;
    }
    events_.emplace_back();
    next_.push_back(kNil);
    return static_cast<std::uint32_t>(events_.size() - 1);
  }
  void release(std::uint32_t i) {
    next_[i] = free_head_;
    free_head_ = i;
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
  }

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

  /// Absolute bucket of the next occupied wheel slot after base_bucket_:
  /// the first bucket in (base_bucket_, base_bucket_ + kBucketCount] whose
  /// slot holds events. Only called while every pending event sits in the
  /// wheel, so the scan finds one within one revolution.
  std::int64_t next_wheel_bucket() const {
    const std::int64_t start = base_bucket_ + 1;
    // Scan the occupancy bitmap as a circular kBucketCount-bit word
    // starting at start's slot; `off` is the distance from `start`.
    for (std::int64_t off = 0;;) {
      const auto slot =
          static_cast<std::uint64_t>((start + off) & kBucketMask);
      const std::uint64_t word = occupied_[slot >> 6] >> (slot & 63);
      if (word != 0) return start + off + std::countr_zero(word);
      off += 64 - static_cast<std::int64_t>(slot & 63);
    }
  }

  /// Stage the keys of absolute bucket `b` from its wheel slot into the
  /// drain tier. The slot's events of later revolutions stay in it, in
  /// push order.
  void take_bucket(std::int64_t b) {
    const auto m = static_cast<std::uint64_t>(b & kBucketMask);
    List& list = wheel_[m];
    List later;  // the slot's events of later revolutions
    for (std::uint32_t i = list.head;;) {
      const bool last = i == list.tail;
      const std::uint32_t next = next_[i];
      const Event& ev = events_[i];
      if (bucket_of(ev.at) == b) {
        drain_keys_.push_back(Key{ev.at, ev.seq, i});
      } else {
        assert(bucket_of(ev.at) > b && "the frontier passed a pending event");
        append(later, later.head == kNil, i);
      }
      if (last) break;
      i = next;
    }
    if (later.head == kNil) {
      occupied_[m >> 6] &= ~(std::uint64_t{1} << (m & 63));
    } else {
      list = later;
    }
  }

  // Arena: the events, their `next_` links, and the free list through it.
  std::vector<Event> events_;
  std::vector<std::uint32_t> next_;
  std::uint32_t free_head_ = kNil;

  std::vector<List> wheel_;
  std::array<std::uint64_t, static_cast<std::size_t>(kBucketCount / 64)>
      occupied_{};
  std::vector<Key> drain_keys_;  // sorted batch of the active bucket's keys
  std::size_t drain_idx_ = 0;    // next unpopped index into drain_keys_
  std::vector<Key> late_keys_;   // min-heap: pushes into the active bucket
  std::int64_t base_bucket_ = 0;
  std::size_t size_ = 0;         // total pending events
};

}  // namespace hawkeye::sim
