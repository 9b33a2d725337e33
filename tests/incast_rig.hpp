#pragma once

#include "collect/episode.hpp"
#include "eval/testbed.hpp"

namespace hawkeye::collect {

/// Drives an incast so the cross-pod victim degrades ~200-600 us in and
/// Hawkeye triggers and collects along the victim path.
struct IncastRig {
  eval::Testbed tb;
  net::FiveTuple victim;

  explicit IncastRig(eval::Testbed::Options opts = {}) : tb(opts) {
    const net::NodeId sink = tb.ft.hosts[0];
    const net::NodeId vdst = tb.ft.hosts[1];  // sink's ToR sibling
    const net::NodeId vsrc = tb.ft.hosts[12];
    const device::FlowSpec v{vsrc, vdst, 900, 4791, 20'000'000, sim::us(1),
                             true, 0};
    victim = device::tuple_of(v);
    tb.add_flow(v);
    for (int i = 0; i < 4; ++i) {
      tb.add_flow({tb.ft.hosts[static_cast<size_t>(4 + 2 * i)], sink,
                   static_cast<std::uint16_t>(2000 + i), 4791, 600'000,
                   sim::us(200), false, 0});
    }
  }

  /// The victim's first episode, nullptr when it never triggered.
  const Episode* victim_episode() {
    const Episode* ep = nullptr;
    for (const auto id : tb.collector.episode_order()) {
      const Episode* cand = tb.collector.episode(id);
      if (cand->victim == victim && ep == nullptr) ep = cand;
    }
    return ep;
  }
};

}  // namespace hawkeye::collect
