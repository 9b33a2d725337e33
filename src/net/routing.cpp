#include "net/routing.hpp"

#include <algorithm>
#include <deque>
#include <limits>

namespace hawkeye::net {

Routing::Routing(const Topology& topo) : topo_(topo) { rebuild(); }

void Routing::rebuild() {
  const std::size_t n = topo_.node_count();
  base_table_.assign(n, {});
  for (auto& row : base_table_) row.assign(n, {});

  // BFS from every destination host; equal-cost next hops are the
  // neighbours one step closer to the destination.
  for (const NodeId dst : topo_.hosts()) {
    std::vector<int> dist(n, std::numeric_limits<int>::max());
    std::deque<NodeId> q;
    dist[static_cast<size_t>(dst)] = 0;
    q.push_back(dst);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      for (PortId p = 0; p < topo_.port_count(u); ++p) {
        const PortRef pr = topo_.peer(u, p);
        if (!pr.valid()) continue;
        // Hosts other than the destination never forward transit traffic.
        if (topo_.is_host(u) && u != dst) continue;
        if (dist[static_cast<size_t>(pr.node)] >
            dist[static_cast<size_t>(u)] + 1) {
          dist[static_cast<size_t>(pr.node)] = dist[static_cast<size_t>(u)] + 1;
          q.push_back(pr.node);
        }
      }
    }
    for (const NodeId sw : topo_.switches()) {
      auto& cands =
          base_table_[static_cast<size_t>(sw)][static_cast<size_t>(dst)];
      if (dist[static_cast<size_t>(sw)] == std::numeric_limits<int>::max())
        continue;
      for (PortId p = 0; p < topo_.port_count(sw); ++p) {
        const PortRef pr = topo_.peer(sw, p);
        if (!pr.valid()) continue;
        if (topo_.is_host(pr.node) && pr.node != dst) continue;
        if (dist[static_cast<size_t>(pr.node)] ==
            dist[static_cast<size_t>(sw)] - 1) {
          cands.push_back(p);
        }
      }
    }
  }
  // The live table starts as a copy of the pristine one; any ports disabled
  // before the rebuild stay disabled afterwards (and count as a mutation,
  // since paths may differ from the pre-rebuild table).
  table_ = base_table_;
  if (!disabled_.empty()) {
    for (const std::int64_t key : disabled_) {
      apply_disabled(static_cast<NodeId>(key >> 32),
                     static_cast<PortId>(key & 0xffffffff));
    }
    ++epoch_;
  }
}

void Routing::apply_disabled(NodeId sw, PortId port) {
  for (auto& cands : table_[static_cast<size_t>(sw)]) {
    const auto it = std::find(cands.begin(), cands.end(), port);
    // A port is only withdrawn where an ECMP alternative exists. With no
    // alternative (e.g. a core's single downlink into a pod) the route is
    // kept: traffic keeps forwarding into the dead link and is dropped
    // there as an injected kLinkDown loss — never re-counted as a kData
    // routing drop, which the losslessness accounting treats as a model
    // bug.
    if (it != cands.end() && cands.size() > 1) cands.erase(it);
  }
}

bool Routing::disable_port(NodeId sw, PortId port) {
  if (sw < 0 || static_cast<size_t>(sw) >= table_.size()) return false;
  if (!disabled_.insert(pkey(sw, port)).second) return false;
  apply_disabled(sw, port);
  ++epoch_;
  return true;
}

bool Routing::enable_port(NodeId sw, PortId port) {
  if (sw < 0 || static_cast<size_t>(sw) >= table_.size()) return false;
  if (disabled_.erase(pkey(sw, port)) == 0) return false;
  const auto& base_row = base_table_[static_cast<size_t>(sw)];
  auto& live_row = table_[static_cast<size_t>(sw)];
  for (std::size_t dst = 0; dst < base_row.size(); ++dst) {
    const auto& base = base_row[dst];
    if (std::find(base.begin(), base.end(), port) == base.end()) continue;
    auto& live = live_row[dst];
    // Candidates were built in ascending port order; re-insert in place so
    // the hash -> port mapping returns to its pre-flap value exactly.
    const auto pos = std::lower_bound(live.begin(), live.end(), port);
    if (pos == live.end() || *pos != port) live.insert(pos, port);
  }
  ++epoch_;
  return true;
}

void Routing::add_override(NodeId sw, NodeId dst, PortId port) {
  overrides_[okey(sw, dst)] = port;
}

void Routing::remove_override(NodeId sw, NodeId dst) {
  overrides_.erase(okey(sw, dst));
}

void Routing::clear_overrides() { overrides_.clear(); }

std::vector<Routing::OverrideInfo> Routing::overrides() const {
  std::vector<OverrideInfo> out;
  out.reserve(overrides_.size());
  for (const auto& [key, port] : overrides_) {
    out.push_back({static_cast<NodeId>(key >> 32),
                   static_cast<NodeId>(key & 0xffffffff), port});
  }
  return out;
}

PortId Routing::egress_port(NodeId sw, const FiveTuple& flow) const {
  return egress_port(sw, Topology::node_of_ip(flow.dst_ip), flow.hash());
}

PortId Routing::egress_port(NodeId sw, NodeId dst,
                            std::uint64_t flow_hash) const {
  if (const auto it = overrides_.find(okey(sw, dst)); it != overrides_.end()) {
    return it->second;
  }
  const auto& cands = candidates(sw, dst);
  if (cands.empty()) return kInvalidPort;
  return cands[flow_hash % cands.size()];
}

const std::vector<PortId>& Routing::candidates(NodeId sw, NodeId dst) const {
  if (sw < 0 || dst < 0 || static_cast<size_t>(sw) >= table_.size() ||
      static_cast<size_t>(dst) >= table_.size()) {
    return empty_;
  }
  return table_[static_cast<size_t>(sw)][static_cast<size_t>(dst)];
}

std::vector<PortRef> Routing::path_of(const FiveTuple& flow,
                                      int max_hops) const {
  std::vector<PortRef> path;
  const NodeId src = Topology::node_of_ip(flow.src_ip);
  const NodeId dst = Topology::node_of_ip(flow.dst_ip);
  if (src < 0 || dst < 0) return path;
  // Host NIC egress (hosts have a single uplink port 0).
  path.push_back({src, 0});
  PortRef cur = topo_.peer(src, 0);
  int hops = 0;
  while (cur.valid() && cur.node != dst && ++hops <= max_hops) {
    const PortId out = egress_port(cur.node, dst, flow.hash());
    if (out == kInvalidPort) break;
    path.push_back({cur.node, out});
    cur = topo_.peer(cur.node, out);
  }
  return path;
}

std::vector<NodeId> Routing::switches_on_path(const FiveTuple& flow) const {
  std::vector<NodeId> out;
  for (const auto& hop : path_of(flow)) {
    if (topo_.is_switch(hop.node)) out.push_back(hop.node);
  }
  return out;
}

std::pair<NodeId, NodeId> Routing::middle_link(const FiveTuple& flow) const {
  const std::vector<NodeId> sws = switches_on_path(flow);
  if (sws.empty()) return {kInvalidNode, kInvalidNode};
  if (sws.size() == 1) return {Topology::node_of_ip(flow.src_ip), sws[0]};
  return {sws[sws.size() / 2 - 1], sws[sws.size() / 2]};
}

std::optional<std::size_t> Routing::hop_of_link(
    const std::vector<PortRef>& path, NodeId dst_host, NodeId a, NodeId b) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    const NodeId u = path[i].node;
    const NodeId v = i + 1 < path.size() ? path[i + 1].node : dst_host;
    if ((u == a && v == b) || (u == b && v == a)) return i;
  }
  return std::nullopt;
}

}  // namespace hawkeye::net
