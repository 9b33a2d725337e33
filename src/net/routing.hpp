#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"

namespace hawkeye::net {

/// ECMP routing tables computed by per-destination BFS over the topology.
/// Each switch maps a destination host to the set of equal-cost egress
/// ports; a flow picks one deterministically by tuple hash. Route
/// *overrides* model the routing misconfigurations the paper uses to craft
/// cyclic buffer dependencies (§4.1: "simulate routing misconfigurations to
/// trigger the initiator-in/out-of-loop deadlocks").
///
/// Reconvergence model: a port can be taken out of (and put back into) the
/// ECMP candidate sets of its switch without a global rebuild —
/// disable_port / enable_port are the hooks the fault layer drives after an
/// injected link flap's hold-down timer expires. Every candidate-set
/// mutation bumps `epoch()`, so path-sensitive caches (detection-agent
/// baselines, episode expected-hop sets) can detect that `path_of` answers
/// from different moments are not comparable. Overrides are deliberately
/// NOT affected by disabled ports: they model pinned static routes, which
/// real fabrics keep forwarding into a dead port (that black hole is a
/// diagnosable anomaly, not a model bug).
///
/// Storage: one flat table with an entry per (switch, destination host).
/// An entry holds its override port and the offset of its candidates in
/// one contiguous port array: the live set first, then the pristine BFS
/// set it is restored from. A hop reads one entry and one port, and a
/// copy is a handful of flat vector copies.
class Routing {
 public:
  explicit Routing(const Topology& topo);

  /// Recompute the ECMP tables from scratch. Overrides are preserved, and
  /// so is the disabled-port set (a rebuild re-applies it).
  void rebuild();

  /// Force switch `sw` to send traffic destined to host `dst` out of
  /// `port`. Throws std::invalid_argument unless `sw` is a switch and `dst`
  /// a host.
  void add_override(NodeId sw, NodeId dst, PortId port);
  void remove_override(NodeId sw, NodeId dst);
  void clear_overrides();

  struct OverrideInfo {
    NodeId sw;
    NodeId dst;
    PortId port;
  };
  /// Snapshot of the installed overrides, in installation order (for
  /// configuration audit).
  std::vector<OverrideInfo> overrides() const { return overrides_; }

  /// Remove `port` from every ECMP candidate set on `sw` (link declared
  /// dead after hold-down). Candidate sets where the port is the ONLY
  /// member are left intact — with no alternative the switch keeps its
  /// (black-holed) route, so injected-outage losses stay attributed to the
  /// dead link instead of surfacing as routing drops. Returns true if the
  /// port was live before; a repeat call is a no-op and does not bump the
  /// epoch.
  bool disable_port(NodeId sw, PortId port);

  /// Restore `port` into every candidate set it originally belonged to
  /// (link back up after hold-down). Candidate order is restored exactly —
  /// ports re-enter in ascending-port position — so a disable/enable cycle
  /// leaves the table byte-identical to the pristine one.
  bool enable_port(NodeId sw, PortId port);

  bool port_disabled(NodeId sw, PortId port) const {
    return std::find(disabled_.begin(), disabled_.end(), PortRef{sw, port}) !=
           disabled_.end();
  }

  /// Monotone counter of candidate-set mutations (disable/enable/rebuild
  /// while ports are disabled). Two `path_of` answers are comparable only
  /// when taken at the same epoch. 0 = pristine table, never mutated.
  std::uint64_t epoch() const { return epoch_; }

  /// Egress port on `sw` for `flow`; kInvalidPort if unroutable.
  PortId egress_port(NodeId sw, const FiveTuple& flow) const;

  /// Egress port toward destination host `dst` for a flow with this hash.
  PortId egress_port(NodeId sw, NodeId dst, std::uint64_t flow_hash) const {
    const Entry* e = entry(sw, dst);
    if (e == nullptr) return kInvalidPort;
    if (e->override_port != kNoOverride) return e->override_port;
    if (e->live == 0) return kInvalidPort;
    return ports_[e->offset + flow_hash % e->live];
  }

  /// All live equal-cost candidate ports (before override/hash selection),
  /// in ascending port order; empty unless `sw` is a switch and `dst` a
  /// host.
  std::vector<PortId> candidates(NodeId sw, NodeId dst) const;

  /// Full forwarding path of a flow from src host to dst host, as the list
  /// of egress PortRefs taken (first entry is the host NIC port). Follows
  /// overrides; stops (truncated) if a loop longer than `max_hops` arises.
  std::vector<PortRef> path_of(const FiveTuple& flow, int max_hops = 64) const;

  /// Switches a flow traverses, in order.
  std::vector<NodeId> switches_on_path(const FiveTuple& flow) const;

  /// The canonical victim-path fault target: the middle link of the flow's
  /// switch-level path, far enough from both ends that a fault's symptoms
  /// (black hole, CRC loss, slow serialization) and any PFC backpressure
  /// cross several telemetry hops. A one-switch path gives (source host,
  /// that switch); an unroutable flow gives two kInvalidNode.
  std::pair<NodeId, NodeId> middle_link(const FiveTuple& flow) const;

  /// Index of the hop of `path` (a path_of answer) that crosses link
  /// (a, b), endpoint order irrelevant; nullopt when the link is off the
  /// path. Consecutive hops are link endpoints, and `dst_host` closes the
  /// final hop.
  static std::optional<std::size_t> hop_of_link(
      const std::vector<PortRef>& path, NodeId dst_host, NodeId a, NodeId b);

  const Topology& topo() const { return topo_; }

 private:
  /// "No override": any PortId, kInvalidPort included, may be forced.
  static constexpr PortId kNoOverride = std::numeric_limits<PortId>::min();
  /// One (switch, destination host) route. Its live candidates are
  /// ports_[offset, offset + live) and its pristine ones
  /// ports_[offset + count, offset + 2 * count), both in ascending order.
  struct Entry {
    std::uint32_t offset = 0;
    std::uint16_t count = 0;  // pristine candidates
    std::uint16_t live = 0;   // live candidates, <= count
    PortId override_port = kNoOverride;
  };

  const Entry* entry(NodeId sw, NodeId dst) const {
    if (sw < 0 || dst < 0 || static_cast<std::size_t>(sw) >= row_.size() ||
        static_cast<std::size_t>(dst) >= row_.size()) {
      return nullptr;
    }
    const std::int32_t r = row_[static_cast<std::size_t>(sw)];
    const std::int32_t c = col_[static_cast<std::size_t>(dst)];
    if (r < 0 || c < 0) return nullptr;
    return &entries_[static_cast<std::size_t>(r) * host_count_ +
                     static_cast<std::size_t>(c)];
  }
  Entry* entry(NodeId sw, NodeId dst) {
    return const_cast<Entry*>(std::as_const(*this).entry(sw, dst));
  }
  /// Switch `sw`'s entries, one per destination host; empty for a host.
  std::span<Entry> row(NodeId sw);
  void apply_disabled(NodeId sw, PortId port);

  const Topology& topo_;
  std::vector<std::int32_t> row_;  // node -> switch row; -1 for hosts
  std::vector<std::int32_t> col_;  // node -> host column; -1 for switches
  std::size_t host_count_ = 0;
  std::vector<Entry> entries_;     // [switch row][host column]
  std::vector<PortId> ports_;      // live + pristine candidates per entry
  std::vector<OverrideInfo> overrides_;  // installation order
  std::vector<PortRef> disabled_;        // withdrawal order
  std::uint64_t epoch_ = 0;
};

}  // namespace hawkeye::net
