#include "net/topology.hpp"

#include <cassert>
#include <stdexcept>

namespace hawkeye::net {

NodeId add_checked(std::vector<NodeKind>& kinds) {
  return static_cast<NodeId>(kinds.size());
}

NodeId Topology::add_node(NodeKind kind, std::string name) {
  const NodeId id = static_cast<NodeId>(kinds_.size());
  kinds_.push_back(kind);
  if (name.empty()) {
    name = (kind == NodeKind::kHost ? "H" : "SW") + std::to_string(id);
  }
  names_.push_back(std::move(name));
  ports_.emplace_back();
  return id;
}

std::size_t Topology::connect(NodeId a, NodeId b, double gbps,
                              sim::Time delay_ns) {
  if (a < 0 || b < 0 || static_cast<size_t>(a) >= kinds_.size() ||
      static_cast<size_t>(b) >= kinds_.size()) {
    throw std::out_of_range("Topology::connect: bad node id");
  }
  const PortId pa = static_cast<PortId>(ports_[static_cast<size_t>(a)].size());
  const PortId pb = static_cast<PortId>(ports_[static_cast<size_t>(b)].size());
  const std::int64_t link_id = static_cast<std::int64_t>(links_.size());
  links_.push_back(LinkSpec{{a, pa}, {b, pb}, gbps, delay_ns});
  ports_[static_cast<size_t>(a)].push_back({{b, pb}, link_id});
  ports_[static_cast<size_t>(b)].push_back({{a, pa}, link_id});
  return static_cast<std::size_t>(link_id);
}

PortRef Topology::peer(NodeId n, PortId port) const {
  if (n < 0 || static_cast<size_t>(n) >= ports_.size()) return {};
  const auto& pl = ports_[static_cast<size_t>(n)];
  if (port < 0 || static_cast<size_t>(port) >= pl.size()) return {};
  return pl[static_cast<size_t>(port)].peer;
}

std::int64_t Topology::link_of(NodeId n, PortId port) const {
  if (n < 0 || static_cast<size_t>(n) >= ports_.size()) return -1;
  const auto& pl = ports_[static_cast<size_t>(n)];
  if (port < 0 || static_cast<size_t>(port) >= pl.size()) return -1;
  return pl[static_cast<size_t>(port)].link_id;
}

PortId Topology::port_towards(NodeId n, NodeId peer_node) const {
  if (n < 0 || static_cast<size_t>(n) >= ports_.size()) return kInvalidPort;
  const auto& pl = ports_[static_cast<size_t>(n)];
  for (std::size_t i = 0; i < pl.size(); ++i) {
    if (pl[i].peer.node == peer_node) return static_cast<PortId>(i);
  }
  return kInvalidPort;
}

std::vector<NodeId> Topology::hosts() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (kinds_[i] == NodeKind::kHost) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::vector<NodeId> Topology::switches() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (kinds_[i] == NodeKind::kSwitch) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

FatTree build_fat_tree(int k) {
  if (k < 2 || k % 2 != 0) throw std::invalid_argument("fat-tree k must be even");
  FatTree ft;
  ft.k = k;
  const int half = k / 2;
  const int pods = k;

  // Hosts first so host ids are dense starting at 0.
  for (int pod = 0; pod < pods; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < half; ++h) {
        ft.hosts.push_back(ft.topo.add_node(NodeKind::kHost));
      }
    }
  }
  for (int pod = 0; pod < pods; ++pod) {
    for (int e = 0; e < half; ++e) {
      ft.edges.push_back(ft.topo.add_node(
          NodeKind::kSwitch, "Edge" + std::to_string(pod) + "_" + std::to_string(e)));
    }
  }
  for (int pod = 0; pod < pods; ++pod) {
    for (int a = 0; a < half; ++a) {
      ft.aggs.push_back(ft.topo.add_node(
          NodeKind::kSwitch, "Agg" + std::to_string(pod) + "_" + std::to_string(a)));
    }
  }
  for (int c = 0; c < half * half; ++c) {
    ft.cores.push_back(ft.topo.add_node(NodeKind::kSwitch, "Core" + std::to_string(c)));
  }

  // Host <-> edge. Host h of edge (pod, e) is hosts[pod*half*half + e*half + h].
  for (int pod = 0; pod < pods; ++pod) {
    for (int e = 0; e < half; ++e) {
      const NodeId edge = ft.edges[static_cast<size_t>(pod * half + e)];
      for (int h = 0; h < half; ++h) {
        const NodeId host =
            ft.hosts[static_cast<size_t>(pod * half * half + e * half + h)];
        ft.topo.connect(host, edge);
      }
    }
  }
  // Edge <-> agg (full bipartite per pod).
  for (int pod = 0; pod < pods; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        ft.topo.connect(ft.edges[static_cast<size_t>(pod * half + e)],
                        ft.aggs[static_cast<size_t>(pod * half + a)]);
      }
    }
  }
  // Agg <-> core: agg a in each pod connects to cores [a*half, (a+1)*half).
  for (int pod = 0; pod < pods; ++pod) {
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) {
        ft.topo.connect(ft.aggs[static_cast<size_t>(pod * half + a)],
                        ft.cores[static_cast<size_t>(a * half + c)]);
      }
    }
  }
  return ft;
}

LeafSpine build_leaf_spine(int leaves, int spines, int hosts_per_leaf,
                           double gbps, sim::Time link_delay) {
  if (leaves < 1 || spines < 1 || hosts_per_leaf < 1) {
    throw std::invalid_argument("leaf-spine dimensions must be positive");
  }
  LeafSpine ls;
  for (int l = 0; l < leaves; ++l) {
    for (int h = 0; h < hosts_per_leaf; ++h) {
      ls.hosts.push_back(ls.topo.add_node(NodeKind::kHost));
    }
  }
  for (int l = 0; l < leaves; ++l) {
    ls.leaves.push_back(
        ls.topo.add_node(NodeKind::kSwitch, "Leaf" + std::to_string(l)));
  }
  for (int s = 0; s < spines; ++s) {
    ls.spines.push_back(
        ls.topo.add_node(NodeKind::kSwitch, "Spine" + std::to_string(s)));
  }
  for (int l = 0; l < leaves; ++l) {
    for (int h = 0; h < hosts_per_leaf; ++h) {
      ls.topo.connect(ls.hosts[static_cast<size_t>(l * hosts_per_leaf + h)],
                      ls.leaves[static_cast<size_t>(l)], gbps, link_delay);
    }
    for (int s = 0; s < spines; ++s) {
      ls.topo.connect(ls.leaves[static_cast<size_t>(l)],
                      ls.spines[static_cast<size_t>(s)], gbps, link_delay);
    }
  }
  return ls;
}

}  // namespace hawkeye::net
