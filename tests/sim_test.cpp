#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/inline_action.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hawkeye::sim {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator simu;
  std::vector<int> order;
  simu.schedule(30, [&] { order.push_back(3); });
  simu.schedule(10, [&] { order.push_back(1); });
  simu.schedule(20, [&] { order.push_back(2); });
  simu.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simu.now(), 30);
}

TEST(SimulatorTest, TieBreaksByInsertionOrder) {
  Simulator simu;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simu.schedule(5, [&order, i] { order.push_back(i); });
  }
  simu.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simu;
  int fired = 0;
  simu.schedule(1, [&] {
    ++fired;
    simu.schedule(1, [&] {
      ++fired;
      simu.schedule(1, [&] { ++fired; });
    });
  });
  simu.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(simu.now(), 3);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator simu;
  int fired = 0;
  simu.schedule(10, [&] { ++fired; });
  simu.schedule(20, [&] { ++fired; });
  simu.schedule(30, [&] { ++fired; });
  simu.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simu.pending(), 1u);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator simu;
  Time seen = -1;
  simu.schedule(100, [&] {
    simu.schedule(-50, [&] { seen = simu.now(); });
  });
  simu.run();
  EXPECT_EQ(seen, 100);
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator simu;
  Time seen = -1;
  simu.schedule(100, [&] {
    simu.schedule_at(10, [&] { seen = simu.now(); });
  });
  simu.run();
  EXPECT_EQ(seen, 100);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator simu;
  for (int i = 0; i < 42; ++i) simu.schedule(i, [] {});
  simu.run();
  EXPECT_EQ(simu.executed_events(), 42u);
}

/// Callable with the footprint of the packet-arrival closure whose copy
/// constructor is instrumented: the simulator core must move events
/// end-to-end (push, arena growth, heap sift, dispatch) and never copy
/// them — the seed's const_cast-move-out-of-priority_queue::top() pattern
/// is gone.
struct CopyProbe {
  Simulator* simu;
  int* copies;
  int* fired;
  int hops;

  CopyProbe(Simulator* s, int* c, int* f, int h)
      : simu(s), copies(c), fired(f), hops(h) {}
  CopyProbe(const CopyProbe& o)
      : simu(o.simu), copies(o.copies), fired(o.fired), hops(o.hops) {
    ++*copies;
  }
  CopyProbe(CopyProbe&& o) noexcept = default;

  void operator()() {
    ++*fired;
    if (--hops <= 0) return;
    // Alternate short hops (within a bucket), bucket-crossing hops and
    // hops past the wheel's one-revolution horizon, so the event takes
    // every path through the calendar.
    const Time delay = hops % 7 == 0 ? ms(2) : (hops % 2 == 0 ? 3 : 700);
    simu->schedule(delay, std::move(*this));
  }
};
static_assert(InlineAction::fits_inline<CopyProbe>(),
              "probe must take the inline path, like the real closures");

TEST(SimulatorTest, EventsAreNeverCopied) {
  int copies = 0;
  int fired = 0;
  Simulator simu;
  for (int i = 0; i < 64; ++i) {
    simu.schedule(i * 37, CopyProbe(&simu, &copies, &fired, 50));
  }
  simu.run();
  EXPECT_EQ(fired, 64 * 50);
  EXPECT_EQ(copies, 0);
}

TEST(InlineActionTest, SmallCapturesStayInline) {
  int x = 0;
  // Pointer-sized captures — the shape of every device closure.
  InlineAction a([&x] { ++x; });
  EXPECT_TRUE(a.is_inline());
  a();
  a();
  EXPECT_EQ(x, 2);
  // Exactly at the inline-budget boundary still qualifies.
  std::array<std::byte, InlineAction::kInlineBytes - sizeof(int*)> pad{};
  InlineAction b([&x, pad] { x += static_cast<int>(pad.size()) ? 1 : 0; });
  EXPECT_TRUE(b.is_inline());
  b();
  EXPECT_EQ(x, 3);
}

TEST(InlineActionTest, OversizeCapturesFallBackToHeapAndStillRun) {
  std::array<std::uint64_t, 16> payload{};  // 128-byte capture
  payload[7] = 41;
  int got = 0;
  InlineAction a([&got, payload] { got = static_cast<int>(payload[7]) + 1; });
  EXPECT_FALSE(a.is_inline());
  InlineAction moved = std::move(a);
  moved();
  EXPECT_EQ(got, 42);
  EXPECT_FALSE(static_cast<bool>(a));  // moved-from is empty
}

TEST(InlineActionTest, AcceptsMoveOnlyCallables) {
  auto p = std::make_unique<int>(7);  // std::function would reject this
  int got = 0;
  InlineAction a([&got, p = std::move(p)] { got = *p; });
  EXPECT_TRUE(a.is_inline());
  InlineAction b = std::move(a);
  b();
  EXPECT_EQ(got, 7);
}

TEST(InlineActionTest, DestroysCallableExactlyOnce) {
  struct DtorCounter {
    int* alive;
    explicit DtorCounter(int* a) : alive(a) { ++*alive; }
    DtorCounter(DtorCounter&& o) noexcept : alive(o.alive) {
      o.alive = nullptr;
    }
    DtorCounter(const DtorCounter&) = delete;
    ~DtorCounter() {
      if (alive != nullptr) --*alive;
    }
    void operator()() {}
  };
  int alive = 0;
  {
    InlineAction a{DtorCounter(&alive)};
    EXPECT_EQ(alive, 1);
    InlineAction b = std::move(a);  // relocate, not duplicate
    InlineAction c = std::move(b);
    EXPECT_EQ(alive, 1);
    c();
  }
  EXPECT_EQ(alive, 0);
}

TEST(CalendarTest, OrderingAcrossBucketBoundaries) {
  // Pseudo-random timestamps spanning thousands of buckets and crossing
  // the wheel horizon (~1.05 ms) must pop in exact (time, seq) order.
  EventCalendar cal;
  std::vector<std::pair<Time, std::uint64_t>> ref;
  std::uint32_t state = 12345;
  for (std::uint64_t seq = 0; seq < 5000; ++seq) {
    state = state * 1664525u + 1013904223u;
    const Time at = static_cast<Time>(state % 3'000'000);
    cal.push(at, seq, [] {});
    ref.emplace_back(at, seq);
  }
  std::sort(ref.begin(), ref.end());
  std::vector<std::pair<Time, std::uint64_t>> got;
  while (cal.prepare_head()) {
    EXPECT_EQ(cal.head().at, ref[got.size()].first);
    EventCalendar::Event ev = cal.pop_head();
    got.emplace_back(ev.at, ev.seq);
  }
  EXPECT_EQ(got, ref);
  EXPECT_TRUE(cal.empty());
}

TEST(CalendarTest, TieBreakByInsertionSeqAcrossBuckets) {
  // Same-timestamp events keep insertion order, including at bucket edges
  // (255|256) and more than two wheel revolutions ahead (2.5 ms: the
  // frontier passes its wheel slot twice before it is due); interleaving
  // timestamps at insertion must not perturb that.
  Simulator simu;
  const std::vector<Time> times = {255, 256, 511, 131'072, 2'500'000};
  std::vector<std::pair<Time, int>> order;
  for (int round = 0; round < 4; ++round) {
    for (const Time t : times) {
      simu.schedule_at(t, [&order, t, round] { order.emplace_back(t, round); });
    }
  }
  simu.run();
  ASSERT_EQ(order.size(), times.size() * 4);
  std::size_t i = 0;
  for (const Time t : times) {
    for (int round = 0; round < 4; ++round, ++i) {
      EXPECT_EQ(order[i], (std::pair<Time, int>{t, round}))
          << "at index " << i;
    }
  }
}

TEST(CalendarTest, RunUntilBoundarySemantics) {
  Simulator simu;
  int fired = 0;
  simu.schedule_at(100, [&] { ++fired; });
  simu.schedule_at(101, [&] { ++fired; });
  // An event at exactly `until` fires; one past it stays queued.
  simu.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simu.now(), 100);
  EXPECT_EQ(simu.pending(), 1u);
  // Re-running to the same boundary is a no-op.
  simu.run_until(100);
  EXPECT_EQ(fired, 1);
  // now() tracks the last *executed* event, not the run_until horizon.
  simu.run_until(5000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simu.now(), 101);
  EXPECT_TRUE(simu.empty());
}

TEST(CalendarTest, FarHorizonEventsFireInOrder) {
  // Events up to 19 wheel revolutions (~1.05 ms each) ahead, one pushed
  // while the calendar drains, fire in time order.
  Simulator simu;
  std::vector<Time> fired;
  const auto rec = [&] { fired.push_back(simu.now()); };
  simu.schedule_at(ms(10), rec);
  simu.schedule_at(50, rec);
  simu.schedule_at(ms(5), [&] {
    fired.push_back(simu.now());
    simu.schedule_at(ms(20), rec);  // a far push while draining
  });
  simu.schedule_at(0, rec);
  simu.schedule_at(ms(2), rec);
  simu.run();
  EXPECT_EQ(fired,
            (std::vector<Time>{0, 50, ms(2), ms(5), ms(10), ms(20)}));
}

TEST(CalendarTest, ArenaHoldsThePendingHighWaterMark) {
  // A popped event's arena slot is reused before the arena grows, so the
  // arena holds exactly as many event slots as were ever pending at once.
  // The seeded sequence grows, shrinks and grows again with pushes up to
  // three wheel revolutions ahead, and peaks at a population that is not a
  // multiple of 1024.
  constexpr Time kRevolution =
      EventCalendar::kBucketCount * EventCalendar::kBucketWidthNs;
  EventCalendar cal;
  Rng rng(21);
  std::uint64_t seq = 0;
  Time now = 0;
  std::size_t peak = 0;
  // (operations, chance that an operation pushes) per phase.
  const std::array<std::pair<int, double>, 4> phases = {
      {{6000, 0.8}, {5000, 0.3}, {4000, 0.7}, {6000, 0.2}}};
  for (const auto& [n, push_chance] : phases) {
    for (int op = 0; op < n; ++op) {
      if (cal.empty() || rng.chance(push_chance)) {
        const Time delay = rng.chance(0.9)
                               ? rng.uniform_int(0, 100'000)
                               : rng.uniform_int(kRevolution, 3 * kRevolution);
        cal.push(now + delay, seq++, [] {});
        peak = std::max(peak, cal.size());
      } else {
        ASSERT_TRUE(cal.prepare_head());
        now = cal.pop_head().at;
      }
    }
    EXPECT_EQ(cal.retained_events(), peak) << "pending " << cal.size();
  }
  while (cal.prepare_head()) cal.pop_head();
  EXPECT_EQ(cal.retained_events(), peak);
  EXPECT_NE(peak % 1024, 0u) << "peak " << peak;
}

TEST(CalendarTest, MatchesReferenceOrderUnderInterleavedPushPop) {
  // Differential guard on the calendar: a seeded interleaving of pushes and
  // pops must pop in exactly the order of a std::priority_queue on
  // (time, seq). The pushes cover zero-delay and same-bucket pushes while a
  // bucket drains, pushes into the next bucket, bursts sharing one bucket
  // (tied timestamps included), pushes one to three wheel revolutions
  // (~1.05 ms each) ahead, alone in their wheel slot or sharing it with
  // near events, near pushes into the buckets of earlier far pushes once
  // those come within one revolution, and events that refire exactly one
  // revolution later. Two witnesses count what the sequence exercised: a
  // popped bucket whose wheel slot still holds later-revolution events, and
  // a bucket passed over with no events of its own while its slot holds
  // later-revolution ones.
  using Key = std::pair<Time, std::uint64_t>;
  constexpr Time kWidth = EventCalendar::kBucketWidthNs;
  constexpr std::int64_t kBuckets = EventCalendar::kBucketCount;
  constexpr Time kRevolution = kBuckets * kWidth;
  constexpr std::size_t kPushPopOps = 120'000;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    EventCalendar cal;
    std::priority_queue<Key, std::vector<Key>, std::greater<>> ref;
    Rng rng(seed);
    std::uint64_t seq = 0;
    std::size_t ops = 0;
    Time now = 0;
    std::int64_t last_bucket = -1;
    std::vector<Time> far_times;  // far pushes awaiting wheel company
    std::vector<Time> later;  // pending pushes a revolution or more ahead
    std::size_t shared_slots = 0;
    std::size_t passed_slots = 0;
    const auto push = [&](Time at) {
      cal.push(at, seq, [] {});
      ref.emplace(at, seq++);
      ++ops;
      if (at / kWidth >= now / kWidth + kBuckets) later.push_back(at);
    };
    while (!ref.empty() || ops < kPushPopOps) {
      const bool pushing =
          ops < kPushPopOps &&
          (ref.empty() || rng.chance(ref.size() < 64 ? 0.7 : 0.45));
      if (pushing) {
        switch (rng.uniform_int(0, 8)) {
          case 0:  // zero delay: into the bucket being drained
            push(now);
            break;
          case 1:  // later in the bucket being drained
            push(now + rng.uniform_int(0, kWidth - 1 - now % kWidth));
            break;
          case 2:  // the next bucket
            push((now / kWidth + 1) * kWidth + rng.uniform_int(0, kWidth - 1));
            break;
          case 3: {  // a burst sharing one bucket a few buckets ahead
            const Time start = (now / kWidth + rng.uniform_int(1, 8)) * kWidth;
            const std::int64_t n = rng.uniform_int(2, 32);
            for (std::int64_t i = 0; i < n; ++i) {
              push(start + rng.uniform_int(0, 3) * 16);
            }
            break;
          }
          case 4:  // elsewhere on the wheel
            push(now + rng.uniform_int(kWidth, 100'000));
            break;
          case 5: {  // one revolution ahead and more
            const Time at = now + kRevolution + rng.uniform_int(0, 200'000);
            push(at);
            far_times.push_back(at);
            break;
          }
          case 6: {  // a near push into a far push's bucket, now in range
            std::erase_if(far_times, [&](Time t) { return t < now + kWidth; });
            const auto it =
                std::find_if(far_times.begin(), far_times.end(), [&](Time t) {
                  return t < now + kRevolution - kWidth;
                });
            if (it == far_times.end()) break;
            push(*it / kWidth * kWidth + rng.uniform_int(0, kWidth - 1));
            far_times.erase(it);
            break;
          }
          case 7: {  // two or three revolutions ahead, beside a near event
            const Time near = now + rng.uniform_int(kWidth, 100'000);
            push(near);
            push(near + rng.uniform_int(2, 3) * kRevolution);
            break;
          }
          case 8:  // two or three revolutions ahead, where no push lands
            push(now + rng.uniform_int(2, 3) * kRevolution +
                 rng.uniform_int(300'000, 900'000));
            break;
        }
        continue;
      }
      ASSERT_TRUE(cal.prepare_head());
      const EventCalendar::Event ev = cal.pop_head();
      ASSERT_EQ((Key{ev.at, ev.seq}), ref.top()) << "seed " << seed;
      ref.pop();
      ++ops;
      ASSERT_EQ(cal.size(), ref.size());
      now = ev.at;
      if (const std::int64_t bucket = now / kWidth; bucket != last_bucket) {
        std::erase_if(later, [&](Time t) { return t / kWidth <= bucket; });
        for (const Time t : later) {
          const std::int64_t b = t / kWidth;
          if ((b - bucket) % kBuckets == 0) ++shared_slots;
          // The first bucket after `last_bucket` in b's wheel slot.
          const std::int64_t x =
              last_bucket + 1 + (b - last_bucket - 1) % kBuckets;
          if (x < bucket) ++passed_slots;
        }
        last_bucket = bucket;
      }
      // Refire exactly one revolution later: the same wheel slot.
      if (ops < kPushPopOps && rng.chance(0.05)) push(ev.at + kRevolution);
    }
    EXPECT_FALSE(cal.prepare_head());
    EXPECT_GE(ops, 100'000u);
    EXPECT_GT(shared_slots, 0u) << "seed " << seed;
    EXPECT_GT(passed_slots, 0u) << "seed " << seed;
  }
}

TEST(CalendarTest, DeterministicAcrossIdenticalRuns) {
  // Two identical self-rescheduling workloads must execute the exact same
  // event sequence — the property the evaluation harness leans on for
  // bit-identical precision/recall (the end-to-end version lives in
  // tests/sweep_test.cpp).
  const auto trace = [] {
    Simulator simu;
    std::vector<std::pair<Time, int>> seq;
    struct Timer {
      Simulator* simu;
      std::vector<std::pair<Time, int>>* seq;
      std::uint32_t state;
      int id, left;
      void operator()() {
        seq->emplace_back(simu->now(), id);
        if (--left <= 0) return;
        state = state * 1664525u + 1013904223u;
        simu->schedule(1 + (state >> 20), std::move(*this));
      }
    };
    for (int i = 0; i < 32; ++i) {
      simu.schedule(i, Timer{&simu, &seq,
                             static_cast<std::uint32_t>(i) * 2654435761u, i,
                             40});
    }
    simu.run();
    return std::pair{seq, simu.executed_events()};
  };
  const auto a = trace();
  const auto b = trace();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.second, 32u * 40u);
}

TEST(TimeTest, SerializationMath) {
  // 1000 bytes at 100 Gbps = 80 ns.
  EXPECT_EQ(serialization_ns(1000, 100.0), 80);
  // 64 bytes at 100 Gbps = 5.12 ns (truncated).
  EXPECT_EQ(serialization_ns(64, 100.0), 5);
  EXPECT_EQ(us(3), 3000);
  EXPECT_EQ(ms(2), 2'000'000);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.0);
}

}  // namespace
}  // namespace hawkeye::sim
