#include "net/routing.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

namespace hawkeye::net {

Routing::Routing(const Topology& topo) : topo_(topo) { rebuild(); }

void Routing::rebuild() {
  const std::vector<OverrideInfo> kept = overrides_;
  overrides_.clear();
  const std::size_t n = topo_.node_count();
  row_.assign(n, -1);
  col_.assign(n, -1);
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (topo_.is_switch(static_cast<NodeId>(i))) {
      row_[i] = rows++;
    } else {
      col_[i] = cols++;
    }
  }
  host_count_ = static_cast<std::size_t>(cols);
  entries_.assign(static_cast<std::size_t>(rows) * host_count_, Entry{});
  ports_.clear();

  // BFS from every destination host; equal-cost next hops are the
  // neighbours one step closer to the destination.
  std::vector<PortId> cands;
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
      if (dist[static_cast<size_t>(sw)] == std::numeric_limits<int>::max())
        continue;
      cands.clear();
      for (PortId p = 0; p < topo_.port_count(sw); ++p) {
        const PortRef pr = topo_.peer(sw, p);
        if (!pr.valid()) continue;
        if (topo_.is_host(pr.node) && pr.node != dst) continue;
        if (dist[static_cast<size_t>(pr.node)] ==
            dist[static_cast<size_t>(sw)] - 1) {
          cands.push_back(p);
        }
      }
      // The live set starts as a copy of the pristine one.
      Entry& e = *entry(sw, dst);
      e.offset = static_cast<std::uint32_t>(ports_.size());
      e.count = e.live = static_cast<std::uint16_t>(cands.size());
      ports_.insert(ports_.end(), cands.begin(), cands.end());
      ports_.insert(ports_.end(), cands.begin(), cands.end());
    }
  }
  for (const OverrideInfo& ov : kept) add_override(ov.sw, ov.dst, ov.port);
  // Ports disabled before the rebuild stay disabled afterwards (and count
  // as a mutation, since paths may differ from the pre-rebuild table).
  if (!disabled_.empty()) {
    for (const PortRef& d : disabled_) apply_disabled(d.node, d.port);
    ++epoch_;
  }
}

std::span<Routing::Entry> Routing::row(NodeId sw) {
  const std::int32_t r = row_[static_cast<size_t>(sw)];
  if (r < 0) return {};  // a host has no entries
  return {entries_.data() + static_cast<std::size_t>(r) * host_count_,
          host_count_};
}

void Routing::apply_disabled(NodeId sw, PortId port) {
  for (Entry& e : row(sw)) {
    PortId* const live = ports_.data() + e.offset;
    PortId* const end = live + e.live;
    PortId* const it = std::find(live, end, port);
    // A port is only withdrawn where an ECMP alternative exists. With no
    // alternative (e.g. a core's single downlink into a pod) the route is
    // kept: traffic keeps forwarding into the dead link and is dropped
    // there as an injected kLinkDown loss — never re-counted as a kData
    // routing drop, which the losslessness accounting treats as a model
    // bug.
    if (it != end && e.live > 1) {
      std::copy(it + 1, end, it);
      --e.live;
    }
  }
}

bool Routing::disable_port(NodeId sw, PortId port) {
  if (sw < 0 || static_cast<size_t>(sw) >= row_.size()) return false;
  if (port_disabled(sw, port)) return false;
  disabled_.push_back({sw, port});
  apply_disabled(sw, port);
  ++epoch_;
  return true;
}

bool Routing::enable_port(NodeId sw, PortId port) {
  if (sw < 0 || static_cast<size_t>(sw) >= row_.size()) return false;
  const auto d =
      std::find(disabled_.begin(), disabled_.end(), PortRef{sw, port});
  if (d == disabled_.end()) return false;
  disabled_.erase(d);
  for (Entry& e : row(sw)) {
    PortId* const live = ports_.data() + e.offset;
    PortId* const end = live + e.live;
    const PortId* const base = live + e.count;
    if (std::find(base, base + e.count, port) == base + e.count) continue;
    // Candidates were built in ascending port order; re-insert in place so
    // the hash -> port mapping returns to its pre-flap value exactly.
    PortId* const pos = std::lower_bound(live, end, port);
    if (pos != end && *pos == port) continue;
    std::copy_backward(pos, end, end + 1);
    *pos = port;
    ++e.live;
  }
  ++epoch_;
  return true;
}

void Routing::add_override(NodeId sw, NodeId dst, PortId port) {
  Entry* e = entry(sw, dst);
  if (e == nullptr) {
    throw std::invalid_argument(
        "Routing::add_override: not a (switch, host) pair");
  }
  e->override_port = port;
  for (OverrideInfo& ov : overrides_) {
    if (ov.sw == sw && ov.dst == dst) {
      ov.port = port;
      return;
    }
  }
  overrides_.push_back({sw, dst, port});
}

void Routing::remove_override(NodeId sw, NodeId dst) {
  Entry* e = entry(sw, dst);
  if (e == nullptr) return;
  e->override_port = kNoOverride;
  std::erase_if(overrides_, [&](const OverrideInfo& ov) {
    return ov.sw == sw && ov.dst == dst;
  });
}

void Routing::clear_overrides() {
  for (const OverrideInfo& ov : overrides_) {
    entry(ov.sw, ov.dst)->override_port = kNoOverride;
  }
  overrides_.clear();
}

PortId Routing::egress_port(NodeId sw, const FiveTuple& flow) const {
  return egress_port(sw, Topology::node_of_ip(flow.dst_ip), flow.hash());
}

std::vector<PortId> Routing::candidates(NodeId sw, NodeId dst) const {
  const Entry* e = entry(sw, dst);
  if (e == nullptr) return {};
  const auto live = ports_.begin() + e->offset;
  return std::vector<PortId>(live, live + e->live);
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
  const std::uint64_t hash = flow.hash();
  int hops = 0;
  while (cur.valid() && cur.node != dst && ++hops <= max_hops) {
    const PortId out = egress_port(cur.node, dst, hash);
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
