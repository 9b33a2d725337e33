#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "collect/collector.hpp"
#include "device/switch.hpp"

namespace hawkeye::collect {

/// The in-data-plane half of Hawkeye collection (paper §3.4, Figure 6):
/// receives polling packets, mirrors them to the switch CPU (Collector) and
/// performs the line-rate PFC causality analysis that decides which
/// neighbours the polling packet propagates to.
///
/// * flag 01 (victim path): unicast along the victim flow's route; if the
///   victim is PFC-paused at this hop's egress, the high flag bit is set so
///   the downstream switch analyzes its PFC causality.
/// * flag 1x (PFC causality): multicast-prune over the Figure 3 causality
///   structure — for every egress port with recent traffic from the polling
///   packet's ingress port AND PFC pause activity, emit a 10-flagged clone.
///   Ports feeding hosts or showing no pause terminate the recursion (host
///   injection or initial flow contention, respectively — both already
///   captured by this switch's mirrored telemetry).
///
/// Per-victim dedup bounds the work and, critically, terminates the
/// multicast when the PFC spreading path is a deadlock cycle.
class HawkeyeSwitchAgent : public device::PollingHandler {
 public:
  struct Config {
    std::int32_t hop_limit = 32;
    /// false => the "victim-only" baseline of §4.2/§4.3: polling packets
    /// never leave the victim flow path.
    bool trace_pfc_causality = true;
  };

  /// A polling packet whose tracing bits were all handled at this switch
  /// for the same victim within this interval is dropped.
  static constexpr sim::Time kPollDedupInterval = sim::us(500);

  explicit HawkeyeSwitchAgent(Collector& collector)
      : HawkeyeSwitchAgent(collector, Config{}) {}
  HawkeyeSwitchAgent(Collector& collector, const Config& cfg)
      : collector_(collector), cfg_(cfg) {}

  void on_polling(device::Switch& sw, const net::Packet& pkt,
                  net::PortId in_port) override;

 private:
  struct Seen {
    sim::Time at = 0;
    std::uint8_t flags = 0;  // union of flag bits already processed
  };
  void forward(device::Switch& sw, net::Packet pkt, net::PortId out,
               net::PollingFlag flag);

  Collector& collector_;
  Config cfg_;
  /// (switch, victim-tuple-hash) -> last polling time + scope. A packet is
  /// deduplicated only if every tracing bit it carries was already handled
  /// here recently — a victim-path packet must not be dropped because a
  /// PFC-causality clone raced ahead of it.
  std::unordered_map<std::uint64_t, Seen> dedup_;
};

}  // namespace hawkeye::collect
