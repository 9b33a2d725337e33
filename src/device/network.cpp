#include "device/network.hpp"

#include <stdexcept>

#include "fault/fault.hpp"
#include "net/routing.hpp"

namespace hawkeye::device {

Network::Network(sim::Simulator& simu, const net::Topology& topo)
    : simu_(simu),
      topo_(topo),
      devices_(topo.node_count(), nullptr),
      pfc_traces_(1),
      slabs_(1),
      counters_(1) {
  port_base_.reserve(topo.node_count() + 1);
  port_base_.push_back(0);
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const auto node = static_cast<net::NodeId>(n);
    for (net::PortId p = 0; p < topo.port_count(node); ++p) {
      const std::int64_t lid = topo.link_of(node, p);
      wires_.push_back(
          Wire{topo.peer(node, p),
               lid < 0 ? nullptr : &topo.link(static_cast<std::size_t>(lid))});
    }
    port_base_.push_back(static_cast<std::int32_t>(wires_.size()));
  }
}

const net::LinkSpec& Network::link_at(net::NodeId node,
                                      net::PortId port) const {
  const net::LinkSpec* link = wire(node, port).link;
  if (link == nullptr) throw std::out_of_range("Network::link_at: unwired port");
  return *link;
}

void Network::deliver(net::NodeId from, net::PortId port, net::Packet pkt,
                      sim::Time ser_ns) {
  const DropReason reason = pkt.kind == net::PacketKind::kPolling
                                ? DropReason::kPolling
                                : DropReason::kData;
  const Wire& w = wire(from, port);
  if (w.link == nullptr) {
    count_drop(reason);
    return;
  }
  const net::PortRef peer = w.peer;
  const net::LinkSpec& link = *w.link;
  Device* dst = device(peer.node);
  if (dst == nullptr) {
    count_drop(reason);
    return;
  }
  if (faults_ != nullptr) {
    // Send-edge of an injected link flap: the wire is dead, everything on
    // it (data, control, PFC frames alike) dies with it.
    if (faults_->link_down(from, peer.node, simu_.now())) {
      count_drop(DropReason::kLinkDown);
      faults_->note_link_drop(from, peer.node, pkt, simu_.now());
      return;
    }
    if (pkt.kind == net::PacketKind::kPfc) {
      // Lost/delayed pause signaling. An eaten frame is counted by the
      // injector itself (pfc_pause_lost / pfc_resume_lost); the network's
      // kPfcLoss reason is reserved for the ingress-overflow drops the
      // loss later induces at the switch.
      const fault::PfcVerdict v =
          faults_->on_pfc_frame(from, port, pkt.pause_quanta, simu_.now());
      if (v.dropped) return;
      ser_ns += v.extra_delay;
    } else if (faults_->has_degraded_links() &&
               faults_->on_wire_crc(from, peer.node, pkt, simu_.now())) {
      // Degraded-link BER corrupted the frame on the wire: the receiving
      // MAC fails the FCS check and discards it. PFC frames are exempt —
      // corrupted pause signaling is PfcFrameFaultSpec's axis, keeping the
      // two fault classes orthogonal.
      count_drop(DropReason::kCrc);
      return;
    }
  }
  const int dst_shard = shard_of(peer.node);
  if (simu_.sharded() && dst_shard != simu_.current_shard()) {
    // Pod-boundary hop: the arrival must execute on the destination's
    // shard, so the packet travels by value inside the deferred closure
    // (InlineAction's heap fallback — off the per-shard hot path) and the
    // simulator's mailbox merge assigns its canonical key at the round
    // barrier. The link delay (>= the configured lookahead) guarantees the
    // arrival lands beyond the current horizon.
    auto arrive_remote = [this, dst, p = std::move(pkt), in = peer.port,
                          from]() mutable {
      if (faults_ != nullptr &&
          faults_->link_down(from, dst->id(), simu_.now())) {
        count_drop(DropReason::kLinkDown);
        faults_->note_link_drop(from, dst->id(), p, simu_.now());
        return;
      }
      dst->receive(std::move(p), in);
    };
    simu_.schedule_on(dst_shard, ser_ns + link.delay_ns,
                      std::move(arrive_remote));
    return;
  }
  // Same-shard hop: the packet is parked in the shard's slab so the arrival
  // closure captures only {this, dst, slot, slab, in_port, from} — small
  // enough for the simulator's inline event storage. This is the hottest
  // event in every run (one per packet per hop); the static_assert keeps it
  // allocation-free.
  const auto slab = static_cast<std::uint32_t>(simu_.current_shard());
  const std::uint32_t slot = park_packet(slabs_[slab], std::move(pkt));
  auto arrive = [this, dst, slot, slab, in = peer.port, from]() {
    net::Packet p = unpark_packet(slabs_[slab], slot);
    // Arrival-edge of a flap: the link died while the packet was in flight.
    if (faults_ != nullptr &&
        faults_->link_down(from, dst->id(), simu_.now())) {
      count_drop(DropReason::kLinkDown);
      faults_->note_link_drop(from, dst->id(), p, simu_.now());
      return;
    }
    dst->receive(std::move(p), in);
  };
  static_assert(sim::InlineAction::fits_inline<decltype(arrive)>(),
                "packet-arrival closure must stay inside the event SBO");
  simu_.schedule(ser_ns + link.delay_ns, std::move(arrive));
}

void Network::schedule_reconvergence(net::Routing& routing) {
  if (faults_ == nullptr) return;
  net::Routing* rt = &routing;
  for (const fault::FaultInjector::FlapSchedule& f :
       faults_->flap_schedules()) {
    if (f.holddown_ns <= 0) continue;  // frozen routing for this spec
    const net::PortId pa = topo_.port_towards(f.a, f.b);
    const net::PortId pb = topo_.port_towards(f.b, f.a);
    if (pa == net::kInvalidPort || pb == net::kInvalidPort) continue;
    for (const fault::FaultInjector::DownWindow& w : f.windows) {
      // An outage shorter than the hold-down never reconverges — the timer
      // is the dampening filter that keeps micro-flaps from churning paths.
      const sim::Time withdraw_at = w.t0 + f.holddown_ns;
      if (withdraw_at < w.t1) {
        auto withdraw = [this, rt, a = f.a, b = f.b, pa, pb]() {
          // Guard against window overlap after the restore hold-down: only
          // withdraw if the wire is actually (still) dead right now.
          if (!faults_->link_down(a, b, simu_.now())) return;
          rt->disable_port(a, pa);
          rt->disable_port(b, pb);
          // Flush what is queued on the dead egresses — a withdrawn port's
          // frozen FIFO would otherwise hold its buffer (and the PFC
          // cascade it caused) until the physical link heals.
          if (Device* d = device(a)) d->on_port_withdrawn(pa);
          if (Device* d = device(b)) d->on_port_withdrawn(pb);
        };
        static_assert(sim::InlineAction::fits_inline<decltype(withdraw)>(),
                      "reconvergence closure must stay inside the event SBO");
        // Routing mutation + cross-device queue flushes touch state on
        // every shard: run on the control shard, whose events force the
        // whole lookahead window sequential (exclusive access).
        simu_.schedule_at_on(simu_.control_shard(), withdraw_at,
                             std::move(withdraw));
      }
      auto restore = [this, rt, a = f.a, b = f.b, pa, pb]() {
        if (faults_->link_down(a, b, simu_.now())) return;  // down again
        rt->enable_port(a, pa);
        rt->enable_port(b, pb);
      };
      static_assert(sim::InlineAction::fits_inline<decltype(restore)>(),
                    "reconvergence closure must stay inside the event SBO");
      simu_.schedule_at_on(simu_.control_shard(),
                           w.t1 + f.restore_holddown_ns, std::move(restore));
    }
  }
}

}  // namespace hawkeye::device
