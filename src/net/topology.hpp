#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace hawkeye::net {

enum class NodeKind : std::uint8_t { kHost, kSwitch };

/// The paper's link calibration: 100 Gbps, 2 us of propagation per link.
inline constexpr double kLinkGbps = 100.0;
inline constexpr sim::Time kLinkDelayNs = 2'000;

/// One duplex link between two (node, port) endpoints.
struct LinkSpec {
  PortRef a;
  PortRef b;
  double gbps = kLinkGbps;
  sim::Time delay_ns = kLinkDelayNs;
};

/// Static network graph: node kinds, links, and port-level adjacency.
/// The simulator wires `Device` objects onto this graph; routing, the
/// Hawkeye analyzer (Algorithm 1/2 take the topology N as input) and the
/// evaluation ground truth all read it.
class Topology {
 public:
  NodeId add_node(NodeKind kind, std::string name = {});

  /// Connects the next free port on `a` to the next free port on `b`.
  /// Returns the link id.
  std::size_t connect(NodeId a, NodeId b, double gbps = kLinkGbps,
                      sim::Time delay_ns = kLinkDelayNs);

  std::size_t node_count() const { return kinds_.size(); }
  NodeKind kind(NodeId n) const { return kinds_[static_cast<size_t>(n)]; }
  bool is_host(NodeId n) const { return kind(n) == NodeKind::kHost; }
  bool is_switch(NodeId n) const { return kind(n) == NodeKind::kSwitch; }
  const std::string& name(NodeId n) const { return names_[static_cast<size_t>(n)]; }

  std::int32_t port_count(NodeId n) const {
    return static_cast<std::int32_t>(ports_[static_cast<size_t>(n)].size());
  }

  /// Peer endpoint of (n, port); invalid PortRef if the port is unwired.
  PortRef peer(NodeId n, PortId port) const;
  PortRef peer(const PortRef& p) const { return peer(p.node, p.port); }

  /// Link id carrying (n, port); -1 if unwired.
  std::int64_t link_of(NodeId n, PortId port) const;
  const LinkSpec& link(std::size_t id) const { return links_[id]; }
  std::size_t link_count() const { return links_.size(); }

  /// The port on `n` that faces `peer_node`; kInvalidPort if not adjacent.
  PortId port_towards(NodeId n, NodeId peer_node) const;

  std::vector<NodeId> hosts() const;
  std::vector<NodeId> switches() const;

  /// Synthetic IPv4-style address of a host (node id + 1, so 0 stays "no ip").
  static std::uint32_t ip_of(NodeId host) { return static_cast<std::uint32_t>(host) + 1; }
  static NodeId node_of_ip(std::uint32_t ip) { return static_cast<NodeId>(ip) - 1; }

 private:
  struct PortWire {
    PortRef peer;
    std::int64_t link_id = -1;
  };

  std::vector<NodeKind> kinds_;
  std::vector<std::string> names_;
  std::vector<std::vector<PortWire>> ports_;
  std::vector<LinkSpec> links_;
};

/// Fat-tree (k pods) per Al-Fares/Clos; k=4 gives the paper's 20-switch,
/// 16-host simulation fabric. Hosts are added first (ids 0..), then edge,
/// aggregation and core switches.
struct FatTree {
  int k = 0;
  Topology topo;
  std::vector<NodeId> hosts;
  std::vector<NodeId> edges;
  std::vector<NodeId> aggs;
  std::vector<NodeId> cores;
};

/// Every link runs at kLinkGbps with kLinkDelayNs of propagation.
FatTree build_fat_tree(int k);

/// Two-tier leaf-spine fabric: every leaf connects to every spine.
struct LeafSpine {
  Topology topo;
  std::vector<NodeId> hosts;
  std::vector<NodeId> leaves;
  std::vector<NodeId> spines;
};

LeafSpine build_leaf_spine(int leaves, int spines, int hosts_per_leaf,
                           double gbps = kLinkGbps,
                           sim::Time link_delay = kLinkDelayNs);

}  // namespace hawkeye::net
