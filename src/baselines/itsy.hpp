#pragma once

#include <cstdint>
#include <vector>

#include "device/network.hpp"
#include "device/switch.hpp"

namespace hawkeye::baselines {

/// Model of ITSY-style in-data-plane PFC deadlock detection (paper §2.3):
/// when a port stays paused, a probe walks the pause dependency — from a
/// paused egress port to the downstream switch's paused egress ports that
/// received its traffic (tracked there with a single *presence bit* per
/// port pair, not a byte meter) — and reports a deadlock when the walk
/// revisits its origin.
///
/// Reproduced limitations: detects only loops (non-loop backpressure and
/// storms are ignored) and names only the cycle's ports — no victim flows,
/// no initiator, no root cause.
class ItsyDetector {
 public:
  struct LoopReport {
    sim::Time detected_at = 0;
    std::vector<net::PortRef> loop_ports;
  };

  explicit ItsyDetector(device::Network& net) : net_(net) {}

  void watch(device::Switch& sw) { switches_.push_back(&sw); }
  void start();

  const std::vector<LoopReport>& loops() const { return loops_; }

 private:
  void probe_round();
  device::Switch* switch_at(net::NodeId id) const;
  /// Paused egress ports of `sw` that recently carried traffic arriving on
  /// `in_port` (the ITSY next-hop set, presence-bit granularity).
  std::vector<net::PortId> next_hops(device::Switch& sw, net::PortId in_port,
                                     sim::Time now) const;

  device::Network& net_;
  std::vector<device::Switch*> switches_;
  std::vector<LoopReport> loops_;
  bool reported_ = false;  // one loop report per detector (dedup)
  bool running_ = false;
};

}  // namespace hawkeye::baselines
