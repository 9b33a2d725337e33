#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/inline_action.hpp"
#include "sim/time.hpp"

namespace hawkeye::sim {

/// Hierarchical bucket calendar for simulator events, replacing the seed's
/// global `std::priority_queue`. Events land in fixed-width time buckets
/// (a classic timing wheel) so the steady-state cost per event is a
/// push_back + one batch-sorted key instead of an O(log n) sift through a
/// calendar holding the entire pending set.
///
/// Structure (near → far):
///  - the *drain tier* — the events of the bucket currently being drained.
///    Events sit still in an arena (`cur_slots_`, one 64-byte cache line
///    each); 24-byte (time, seq, slot) keys do all the ordering. When the
///    frontier advances to a bucket, its keys are sorted ONCE
///    (`drain_keys_`) and popped by bumping `drain_idx_` — no per-pop
///    sifting. Only events scheduled into the already-active bucket while
///    it drains (rare: zero-delay and sub-bucket-width self-reschedules) go
///    through a small binary heap (`late_keys_`); the head is whichever
///    lane's key is earlier. All pending events with a bucket index
///    <= `base_bucket_` live in this tier.
///  - `wheel_`     — kBucketCount vectors of unordered events covering the
///    next kBucketCount * kBucketWidthNs nanoseconds after `base_bucket_`.
///    A 1-bit-per-bucket occupancy bitmap makes skipping empty buckets a
///    countr_zero scan instead of a pointer chase.
///  - `far_`       — unordered overflow for events beyond the wheel horizon
///    (retransmit timeouts, far-future flow starts). Migrated into the
///    wheel when the drain frontier approaches them.
///
/// Determinism: pop order is *exactly* ascending (time, insertion seq) —
/// the same total order the seed heap used — because draining a bucket
/// first partitions out precisely the events of that absolute bucket and
/// then key-orders them by (time, seq); late same-bucket arrivals always
/// carry a (time, seq) no earlier than the last pop (simulation time and
/// seq are monotonic), so the two-lane merge preserves the total order.
/// Buckets only group events; they never reorder them. The evaluation
/// harness depends on this for bit-identical precision/recall numbers.
///
/// Memory: a drained wheel slot keeps storage for at most
/// kRetainedBucketEvents events, so the calendar retains at most
/// kBucketCount * kRetainedBucketEvents * 64 B = 8 MB beyond its pending
/// events and the drain arena's one bucket, however large the largest
/// bucket a run drained (`retained_events()` reports it). Capacity never
/// decides which events a bucket holds, so the cap cannot change pop order.
class EventCalendar {
 public:
  /// One scheduled event — exactly one 64-byte cache line (8-byte time +
  /// 8-byte seq + 48-byte InlineAction). Move-only; the calendar never
  /// copies events — see SimulatorTest.EventsAreNeverCopied.
  struct Event {
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
  /// Event capacity a drained wheel slot may keep for its next revolution;
  /// larger storage is freed (DESIGN.md §7 gives the choice of 8).
  static constexpr std::size_t kRetainedBucketEvents = 8;

  EventCalendar() : wheel_(static_cast<std::size_t>(kBucketCount)) {}
  EventCalendar(const EventCalendar&) = delete;
  EventCalendar& operator=(const EventCalendar&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Event capacity held by the wheel slots and the drain arena, occupied
  /// or not: what the retention cap bounds.
  std::size_t retained_events() const {
    std::size_t n = cur_slots_.capacity();
    for (const std::vector<Event>& slot : wheel_) n += slot.capacity();
    return n;
  }

  void push(Time at, std::uint64_t seq, InlineAction fn) {
    const std::int64_t b = bucket_of(at);
    if (b <= base_bucket_) {
      late_keys_.push_back(
          Key{at, seq, static_cast<std::uint32_t>(cur_slots_.size())});
      cur_slots_.push_back(Event{at, seq, std::move(fn)});
      std::push_heap(late_keys_.begin(), late_keys_.end(), key_later);
    } else if (b < base_bucket_ + kBucketCount) {
      wheel_[static_cast<std::size_t>(b & kBucketMask)].push_back(
          Event{at, seq, std::move(fn)});
      mark_occupied(b);
      ++wheel_count_;
    } else {
      if (far_.empty() || b < far_min_bucket_) far_min_bucket_ = b;
      far_.push_back(Event{at, seq, std::move(fn)});
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
      cur_slots_.clear();
      const std::int64_t wheel_next = next_wheel_bucket();
      const bool have_far = !far_.empty();
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
      std::sort(drain_keys_.begin(), drain_keys_.end(), key_earlier);
    }
    return true;
  }

  /// Earliest pending event; only valid after prepare_head() returned true.
  const Event& head() const { return cur_slots_[peek_slot()]; }

  /// Remove and return the earliest pending event (prepare_head() first).
  Event pop_head() {
    std::uint32_t slot;
    if (late_head_wins()) {
      std::pop_heap(late_keys_.begin(), late_keys_.end(), key_later);
      slot = late_keys_.back().slot;
      late_keys_.pop_back();
    } else {
      slot = drain_keys_[drain_idx_++].slot;
    }
    Event ev = std::move(cur_slots_[slot]);
    // Reclaim the arena (all remaining slots are moved-from husks) so a
    // push/pop ping-pong within one bucket can't grow it unboundedly.
    if (drain_idx_ == drain_keys_.size() && late_keys_.empty()) {
      drain_keys_.clear();
      drain_idx_ = 0;
      cur_slots_.clear();
    }
    --size_;
    return ev;
  }

 private:
  /// Drain-tier entry: the (time, seq) sort key plus the event's arena
  /// index. Trivially copyable by design — ordering shuffles these 24-byte
  /// PODs, never the cache-line events.
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Ascending (time, seq) — the batch-sort order of `drain_keys_`.
  static bool key_earlier(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  /// Min-heap comparator for `late_keys_`: `a` fires after `b`.
  static bool key_later(const Key& a, const Key& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  /// True when the late-arrival heap holds the earliest pending key.
  bool late_head_wins() const {
    return !late_keys_.empty() &&
           (drain_idx_ == drain_keys_.size() ||
            key_later(drain_keys_[drain_idx_], late_keys_.front()));
  }
  std::uint32_t peek_slot() const {
    return late_head_wins() ? late_keys_.front().slot
                            : drain_keys_[drain_idx_].slot;
  }

  static constexpr std::int64_t bucket_of(Time at) {
    return at >> kBucketWidthShift;
  }

  void mark_occupied(std::int64_t b) {
    const auto m = static_cast<std::uint64_t>(b & kBucketMask);
    occupied_[m >> 6] |= std::uint64_t{1} << (m & 63);
  }
  void clear_occupied(std::int64_t b) {
    const auto m = static_cast<std::uint64_t>(b & kBucketMask);
    occupied_[m >> 6] &= ~(std::uint64_t{1} << (m & 63));
  }

  /// Append an event to the drain arena with its key (unsorted —
  /// prepare_head() sorts the batch once after a frontier advance).
  void stage(Event&& ev) {
    drain_keys_.push_back(
        Key{ev.at, ev.seq, static_cast<std::uint32_t>(cur_slots_.size())});
    cur_slots_.push_back(std::move(ev));
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

  /// Move the events of absolute bucket `b` into the drain tier; events of
  /// the same masked slot but a later wheel revolution stay behind. In the
  /// overwhelmingly common single-revolution case the bucket vector is
  /// *swapped in* as the drain arena — zero per-event moves. The wheel slot
  /// gets the arena's old storage back only when it holds at most
  /// kRetainedBucketEvents; larger storage is released first.
  void take_bucket(std::int64_t b) {
    auto& vec = wheel_[static_cast<std::size_t>(b & kBucketMask)];
    bool stale = false;
    for (const Event& ev : vec) {
      if (bucket_of(ev.at) != b) {
        stale = true;
        break;
      }
    }
    if (!stale) {
      wheel_count_ -= vec.size();
      if (cur_slots_.empty()) {
        if (cur_slots_.capacity() > kRetainedBucketEvents) {
          cur_slots_ = std::vector<Event>();
        }
        cur_slots_.swap(vec);
      } else {  // arena pre-seeded by a same-bucket far migration
        for (Event& ev : vec) cur_slots_.push_back(std::move(ev));
        vec.clear();
        if (vec.capacity() > kRetainedBucketEvents) vec = std::vector<Event>();
      }
      drain_keys_.reserve(cur_slots_.size());
      for (std::uint32_t i = 0; i < cur_slots_.size(); ++i) {
        drain_keys_.push_back(Key{cur_slots_[i].at, cur_slots_[i].seq, i});
      }
      clear_occupied(b);
      return;
    }
    std::size_t kept = 0;
    for (Event& ev : vec) {
      if (bucket_of(ev.at) == b) {
        stage(std::move(ev));
        --wheel_count_;
      } else {
        vec[kept++] = std::move(ev);
      }
    }
    vec.resize(kept);
    if (vec.empty()) clear_occupied(b);
  }

  /// Pull far-future events that now fall inside the wheel horizon (or the
  /// active bucket) after base_bucket_ moved.
  void migrate_far() {
    std::size_t kept = 0;
    std::int64_t new_min = -1;
    for (Event& ev : far_) {
      const std::int64_t b = bucket_of(ev.at);
      if (b <= base_bucket_) {
        stage(std::move(ev));
      } else if (b < base_bucket_ + kBucketCount) {
        wheel_[static_cast<std::size_t>(b & kBucketMask)].push_back(
            std::move(ev));
        mark_occupied(b);
        ++wheel_count_;
      } else {
        if (new_min < 0 || b < new_min) new_min = b;
        far_[kept++] = std::move(ev);
      }
    }
    far_.resize(kept);
    far_min_bucket_ = new_min;
  }

  std::vector<std::vector<Event>> wheel_;
  std::array<std::uint64_t, static_cast<std::size_t>(kBucketCount / 64)>
      occupied_{};
  std::vector<Key> drain_keys_;  // sorted batch of the active bucket's keys
  std::size_t drain_idx_ = 0;    // next unpopped index into drain_keys_
  std::vector<Key> late_keys_;   // min-heap: pushes into the active bucket
  std::vector<Event> cur_slots_; // drain arena: buckets <= base_bucket_
  std::vector<Event> far_;       // events beyond the wheel horizon
  std::int64_t base_bucket_ = 0;
  std::int64_t far_min_bucket_ = -1;
  std::size_t wheel_count_ = 0;  // events currently in wheel_ buckets
  std::size_t size_ = 0;         // total pending events
};

}  // namespace hawkeye::sim
