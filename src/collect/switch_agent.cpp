#include "collect/switch_agent.hpp"

#include "sim/logger.hpp"

namespace hawkeye::collect {

using net::Packet;
using net::PollingFlag;
using net::PortId;

namespace {
std::uint64_t dedup_key(net::NodeId sw, const net::FiveTuple& victim) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sw)) << 32) ^
         (victim.hash() & 0xffffffffull);
}

PollingFlag combine(bool victim_bit, bool pfc_bit) {
  return static_cast<PollingFlag>((victim_bit ? 0b01 : 0) |
                                  (pfc_bit ? 0b10 : 0));
}
}  // namespace

void HawkeyeSwitchAgent::forward(device::Switch& sw, Packet pkt, PortId out,
                                 PollingFlag flag) {
  pkt.poll_flag = flag;
  pkt.poll_hops += 1;
  collector_.count_polling_packet(pkt.probe_id, pkt.size_bytes);
  sw.send_control(out, std::move(pkt));
}

void HawkeyeSwitchAgent::on_polling(device::Switch& sw, const Packet& pkt,
                                    PortId in_port) {
  if (pkt.poll_flag == PollingFlag::kUseless) {
    // Table 1 flag 00: dropped by design at the first Hawkeye switch.
    sw.network().count_drop(device::DropReason::kPolling);
    return;
  }
  const sim::Time now = sw.network().simu().now();

  // Per-victim dedup: drops re-polls within the interval and terminates
  // multicast loops on deadlock cycles.
  const std::uint64_t key = dedup_key(sw.id(), pkt.victim);
  const auto flag_bits = static_cast<std::uint8_t>(pkt.poll_flag);
  Seen& seen = dedup_[key];
  if (seen.at != 0 && now - seen.at < cfg_.poll_dedup_interval &&
      (flag_bits & ~seen.flags) == 0) {
    sim::Logger::debug("poll sw%d victim=%s dedup-drop", sw.id(),
                       pkt.victim.to_string().c_str());
    return;
  }
  if (seen.at == 0 || now - seen.at >= cfg_.poll_dedup_interval) {
    seen.flags = 0;  // stale scope: a fresh diagnosis round
  }
  seen.at = now;
  seen.flags |= flag_bits;
  sim::Logger::debug("poll sw%d in=%d flag=%d hops=%d victim=%s", sw.id(),
                     in_port, static_cast<int>(pkt.poll_flag), pkt.poll_hops,
                     pkt.victim.to_string().c_str());

  // Mirror to the switch CPU: asynchronous telemetry collection starts.
  collector_.collect_from(sw, pkt.probe_id, now);

  if (pkt.poll_hops >= cfg_.hop_limit) return;
  const auto& tele = sw.telemetry();
  const net::Topology& topo = sw.network().topo();

  // --- PFC causality multicast (flag 1x) ---
  if (net::traces_pfc_causality(pkt.poll_flag) && cfg_.trace_pfc_causality &&
      in_port >= 0) {
    std::vector<PortId> cands = tele.causal_out_ports(in_port);
    if (cands.empty()) {
      // The causality meters for this ingress have aged out of the epoch
      // ring (a long-frozen deadlock stops all traffic while background
      // churn recycles the epochs). Fall back to pause-status-directed
      // tracing: any egress still held down by PFC is causally suspect.
      for (PortId p = 0; p < sw.port_count(); ++p) {
        if (tele.port_paused(p, now)) cands.push_back(p);
      }
    }
    for (const PortId out : cands) {
      if (out == in_port) continue;
      const bool paused =
          tele.recent_paused_count(out) > 0 || tele.port_paused(out, now);
      if (!paused) continue;  // initial congestion point — recursion ends
      const net::PortRef peer = topo.peer(sw.id(), out);
      if (!peer.valid() || topo.is_host(peer.node)) continue;  // host end
      forward(sw, pkt, out, PollingFlag::kPfcCausality);
    }
  }

  // --- victim-path unicast (flag x1) ---
  if (net::traces_victim_path(pkt.poll_flag)) {
    const PortId out = sw.routing().egress_port(sw.id(), pkt.victim);
    if (out != net::kInvalidPort) {
      const bool victim_paused =
          tele.recent_flow_paused_count(pkt.victim) > 0 ||
          tele.recent_paused_count(out) > 0 ||
          tele.port_paused(out, now);
      const bool pfc_bit = victim_paused && cfg_.trace_pfc_causality;
      forward(sw, pkt, out, combine(true, pfc_bit));
    }
  }
}

}  // namespace hawkeye::collect
