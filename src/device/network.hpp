#pragma once

#include <array>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace hawkeye::fault {
class FaultInjector;
}

namespace hawkeye::net {
class Routing;
}

namespace hawkeye::device {

/// Anything attached to a topology node: Switch or Host.
class Device {
 public:
  explicit Device(net::NodeId id) : id_(id) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  net::NodeId id() const { return id_; }

  /// A packet fully arrived on `in_port`.
  virtual void receive(net::Packet pkt, net::PortId in_port) = 0;

  /// Routing reconvergence withdrew egress `port` on this device (the link
  /// behind it was declared dead after hold-down). Real hardware drops the
  /// packets queued on a downed port; devices that buffer per egress
  /// override this to flush those queues — releasing the buffer (and any
  /// PFC backpressure it generated) so rerouted traffic can flow. The
  /// default is a no-op.
  virtual void on_port_withdrawn(net::PortId port) { (void)port; }

 private:
  net::NodeId id_;
};

/// Why a packet was dropped. The fabric is lossless for data by design, so
/// the reasons matter: polling packets ride a droppable class and their
/// loss is intentional (non-Hawkeye switch, useless flag, injected fault),
/// while a data or headroom drop is a genuine pathology. Keeping them
/// apart lets the losslessness property test and the robustness sweep
/// assert on exactly the class they care about.
enum class DropReason : std::uint8_t {
  kData = 0,   // data/control packet with no route or no device
  kPolling,    // polling packet discarded (by design or injected fault)
  kHeadroom,   // shared buffer exhausted: PFC headroom misconfiguration
  kLinkDown,   // injected link flap ate the packet on the wire
  kPfcLoss,    // ingress overflow caused by an injected lost PAUSE frame
  kCrc,        // injected degraded-link BER corrupted the frame (FCS fail)
};
inline constexpr std::size_t kDropReasonCount = 6;

/// Record of a PFC event, logged network-wide. The evaluation harness
/// derives the *ground-truth* PFC spreading path (and hence the causal
/// switch set for Fig 11) from this trace; Hawkeye itself never reads it.
struct PfcEvent {
  sim::Time t = 0;
  net::NodeId node = net::kInvalidNode;  // device that SENT the frame
  net::PortId port = net::kInvalidPort;  // port it was sent out of
  std::uint32_t quanta = 0;              // 0 => RESUME
};

/// What one (node, port) is wired to: the peer endpoint and the link, read
/// once from the topology when the Network is built.
struct Wire {
  net::PortRef peer;
  const net::LinkSpec* link = nullptr;  // null when unwired
};

/// Glue between devices and the topology: looks up link properties and
/// schedules packet arrival at the peer after serialization + propagation.
/// Also hosts the global drop/PFC accounting used by tests and benches.
class Network {
 public:
  /// `topo` must be complete: the per-port wire table is read from it here.
  Network(sim::Simulator& simu, const net::Topology& topo);

  sim::Simulator& simu() { return simu_; }
  const net::Topology& topo() const { return topo_; }

  void attach(Device* dev) { devices_.at(static_cast<size_t>(dev->id())) = dev; }
  Device* device(net::NodeId n) const {
    return devices_.at(static_cast<size_t>(n));
  }

  /// Install the fault-injection substrate (nullptr => fault-free). Link
  /// flaps and PFC frame faults act here, on the wire itself; without an
  /// injector the delivery path costs one null check and draws nothing.
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }

  /// Arm routing-reconvergence events for every injected link-flap window
  /// whose spec enables a hold-down: `holddown_ns` into an outage the two
  /// endpoint switches withdraw the dead port from `routing`'s ECMP
  /// candidate sets, and `restore_holddown_ns` after the link comes back
  /// they restore it. All events are scheduled up front from the injector's
  /// precomputed flap schedule, so the simulation stream stays
  /// deterministic; specs with hold-down 0 (the default) arm nothing and
  /// the run is byte-identical to frozen-routing behaviour. Call once,
  /// after set_fault_injector, before the simulation starts.
  void schedule_reconvergence(net::Routing& routing);

  /// Ship `pkt` out of (from, port). `ser_ns` is the serialization time the
  /// sender already accounted for; the packet lands at the peer after
  /// serialization + link propagation.
  void deliver(net::NodeId from, net::PortId port, net::Packet pkt,
               sim::Time ser_ns);

  /// What (node, port) is wired to. An unwired or nonexistent port has an
  /// invalid peer and a null link.
  const Wire& wire(net::NodeId node, net::PortId port) const {
    const auto n = static_cast<std::size_t>(node);
    if (node < 0 || port < 0 || n + 1 >= port_base_.size() ||
        port >= port_base_[n + 1] - port_base_[n]) {
      return kUnwired;
    }
    return wires_[static_cast<std::size_t>(port_base_[n] + port)];
  }

  /// Link feeding (node, port); throws if unwired.
  const net::LinkSpec& link_at(net::NodeId node, net::PortId port) const;

  /// Allocate a network-unique flow id. Per-Network (not process-global)
  /// so a run's ids do not depend on what ran before it in the same
  /// process. All testbed flows allocate at setup time, in setup-call
  /// order.
  std::uint64_t alloc_flow_id() { return next_flow_id_++; }

  void log_pfc(const PfcEvent& ev) { pfc_trace_.push_back(ev); }
  /// Every PAUSE and RESUME frame sent, in send order (time-sorted).
  const std::vector<PfcEvent>& pfc_trace() const { return pfc_trace_; }

  void count_drop(DropReason reason) {
    ++drops_[static_cast<std::size_t>(reason)];
  }
  std::uint64_t drops(DropReason reason) const {
    return drops_[static_cast<std::size_t>(reason)];
  }
  /// Pathological drops only — what "lossless" must keep at zero even
  /// while polling packets are being intentionally discarded. Injected
  /// data-plane faults (kLinkDown, kPfcLoss) are excluded: those losses
  /// are the experiment, not a model bug.
  std::uint64_t data_drops() const {
    return drops(DropReason::kData) + drops(DropReason::kHeadroom);
  }
  std::uint64_t polling_drops() const { return drops(DropReason::kPolling); }
  std::uint64_t link_down_drops() const {
    return drops(DropReason::kLinkDown);
  }
  std::uint64_t pfc_loss_drops() const { return drops(DropReason::kPfcLoss); }
  std::uint64_t crc_drops() const { return drops(DropReason::kCrc); }

  void count_data_hop() { ++data_hops_; }
  /// Total (packet, switch-hop) pairs — NetSight postcard accounting.
  std::uint64_t data_hops() const { return data_hops_; }

 private:
  /// In-flight packet arena. The slab exists so the delivery closure
  /// captures a 4-byte slot index instead of the whole ~96-byte
  /// net::Packet — keeping the per-hop event inside sim::InlineAction's
  /// inline buffer (no heap allocation per packet hop). Slots are recycled
  /// through a free list, so the slab grows only to the run's in-flight
  /// high-water mark.
  struct Slab {
    std::vector<net::Packet> in_flight;
    std::vector<std::uint32_t> free_slots;
  };
  std::uint32_t park_packet(net::Packet&& pkt) {
    if (slab_.free_slots.empty()) {
      slab_.in_flight.push_back(std::move(pkt));
      return static_cast<std::uint32_t>(slab_.in_flight.size() - 1);
    }
    const std::uint32_t slot = slab_.free_slots.back();
    slab_.free_slots.pop_back();
    slab_.in_flight[slot] = std::move(pkt);
    return slot;
  }
  net::Packet unpark_packet(std::uint32_t slot) {
    net::Packet pkt = std::move(slab_.in_flight[slot]);
    slab_.free_slots.push_back(slot);
    return pkt;
  }

  static constexpr Wire kUnwired{};

  sim::Simulator& simu_;
  const net::Topology& topo_;
  /// Wire table: node n's ports are wires_[port_base_[n], port_base_[n+1]).
  std::vector<std::int32_t> port_base_;
  std::vector<Wire> wires_;
  fault::FaultInjector* faults_ = nullptr;
  std::vector<Device*> devices_;
  std::vector<PfcEvent> pfc_trace_;
  Slab slab_;
  std::uint64_t next_flow_id_ = 1;
  std::uint64_t data_hops_ = 0;
  std::array<std::uint64_t, kDropReasonCount> drops_{};
};

}  // namespace hawkeye::device
