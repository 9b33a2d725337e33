#include "baselines/itsy.hpp"

#include <algorithm>

namespace hawkeye::baselines {

namespace {

constexpr sim::Time kProbePeriod = sim::us(100);
/// Longest pause dependency a probe walks before giving up.
constexpr int kMaxHops = 16;

}  // namespace

void ItsyDetector::start() {
  if (running_) return;
  running_ = true;
  net_.simu().schedule(kProbePeriod, [this]() { probe_round(); });
}

device::Switch* ItsyDetector::switch_at(net::NodeId id) const {
  for (device::Switch* sw : switches_) {
    if (sw->id() == id) return sw;
  }
  return nullptr;
}

std::vector<net::PortId> ItsyDetector::next_hops(device::Switch& sw,
                                                 net::PortId in_port,
                                                 sim::Time now) const {
  std::vector<net::PortId> out;
  for (const net::PortId p : sw.telemetry().causal_out_ports(in_port)) {
    if (sw.telemetry().port_paused(p, now)) out.push_back(p);
  }
  return out;
}

void ItsyDetector::probe_round() {
  const sim::Time now = net_.simu().now();
  if (!reported_) {
    for (device::Switch* origin : switches_) {
      for (net::PortId p0 = 0; p0 < origin->port_count() && !reported_; ++p0) {
        if (!origin->telemetry().port_paused(p0, now)) continue;
        // Walk the pause dependency chain from (origin, p0).
        std::vector<net::PortRef> path{{origin->id(), p0}};
        net::PortRef cur{origin->id(), p0};
        for (int hop = 0; hop < kMaxHops; ++hop) {
          const net::PortRef peer = net_.topo().peer(cur);
          if (!peer.valid() || !net_.topo().is_switch(peer.node)) break;
          device::Switch* next_sw = switch_at(peer.node);
          if (next_sw == nullptr) break;
          const auto hops = next_hops(*next_sw, peer.port, now);
          if (hops.empty()) break;
          cur = {peer.node, hops.front()};  // probes follow one branch
          const auto it = std::find(path.begin(), path.end(), cur);
          if (it != path.end()) {
            loops_.push_back({now, std::vector<net::PortRef>(it, path.end())});
            reported_ = true;
            break;
          }
          path.push_back(cur);
        }
      }
      if (reported_) break;
    }
  }
  net_.simu().schedule(kProbePeriod, [this]() { probe_round(); });
}

}  // namespace hawkeye::baselines
